package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestRegistryIdentity(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "x", L("p", "1"))
	b := reg.Counter("x_total", "x", L("p", "1"))
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	c := reg.Counter("x_total", "x", L("p", "2"))
	if a == c {
		t.Fatal("different labels must return distinct counters")
	}
	// Label order must not matter for identity.
	d := reg.Counter("y_total", "y", L("a", "1", "b", "2"))
	e := reg.Counter("y_total", "y", L("b", "2", "a", "1"))
	if d != e {
		t.Fatal("label order must not affect series identity")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("z_total", "z", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("registering z_total as a gauge should panic")
		}
	}()
	reg.Gauge("z_total", "z", nil)
}

// TestRegistryFuncSeriesRefuseInstrument: a series read at scrape time
// is not an instrument the registry owns, so asking for one in its place
// panics instead of handing back a counter or gauge nothing exposes.
// httpproxy's scrape-vs-Stats test tells the two kinds apart this way.
func TestRegistryFuncSeriesRefuseInstrument(t *testing.T) {
	reg := NewRegistry()
	reg.CounterFunc("fc_total", "fc", L("a", "1"), func() uint64 { return 1 })
	reg.GaugeFunc("fg", "fg", L("a", "1"), func() float64 { return 1 })
	for name, get := range map[string]func(){
		"Counter": func() { reg.Counter("fc_total", "fc", L("a", "1")) },
		"Gauge":   func() { reg.Gauge("fg", "fg", L("a", "1")) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a func-backed series should panic", name)
				}
			}()
			get()
		}()
	}
}

// TestRegistryConcurrency exercises registration, updates and exposition
// from many goroutines at once; run under -race it is the registry's
// thread-safety proof.
func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	const goroutines = 8
	const iters = 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Re-resolving through the registry each time exercises
				// the family/series lookup paths, not just the atomics.
				reg.Counter("conc_total", "shared counter", nil).Inc()
				reg.Counter("conc_labeled_total", "per-goroutine",
					L("g", fmt.Sprint(g))).Inc()
				reg.Gauge("conc_gauge", "gauge", nil).Set(int64(i))
				reg.Histogram("conc_seconds", "hist", nil, nil).Observe(float64(i) / iters)
			}
		}(g)
	}
	// Scrape concurrently with the writers.
	var scrape sync.WaitGroup
	scrape.Add(1)
	go func() {
		defer scrape.Done()
		for i := 0; i < 50; i++ {
			var buf bytes.Buffer
			reg.WritePrometheus(&buf)
			reg.WriteJSON(&bytes.Buffer{})
		}
	}()
	wg.Wait()
	scrape.Wait()

	if got := reg.Counter("conc_total", "shared counter", nil).Value(); got != goroutines*iters {
		t.Fatalf("shared counter = %d, want %d", got, goroutines*iters)
	}
	for g := 0; g < goroutines; g++ {
		if got := reg.Counter("conc_labeled_total", "per-goroutine", L("g", fmt.Sprint(g))).Value(); got != iters {
			t.Fatalf("labeled counter g=%d = %d, want %d", g, got, iters)
		}
	}
	if got := reg.Histogram("conc_seconds", "hist", nil, nil).Count(); got != goroutines*iters {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*iters)
	}
}

func TestCounterFuncAndGaugeFunc(t *testing.T) {
	reg := NewRegistry()
	n := uint64(41)
	reg.CounterFunc("ext_total", "externally owned", nil, func() uint64 { return n })
	reg.GaugeFunc("ext_gauge", "computed", nil, func() float64 { return 2.5 })
	n++
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	out := buf.String()
	if !strings.Contains(out, "ext_total 42\n") {
		t.Errorf("counter func not read at scrape time:\n%s", out)
	}
	if !strings.Contains(out, "ext_gauge 2.5\n") {
		t.Errorf("gauge func missing:\n%s", out)
	}
}

func TestWriteJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("j_total", "j", L("k", "v")).Add(3)
	h := reg.Histogram("j_seconds", "lat", nil, []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if got := out[`j_total{k="v"}`]; got != float64(3) {
		t.Errorf("j_total = %v, want 3", got)
	}
	hist, ok := out["j_seconds"].(map[string]any)
	if !ok {
		t.Fatalf("j_seconds missing or not an object: %v", out["j_seconds"])
	}
	if hist["count"] != float64(2) {
		t.Errorf("histogram count = %v, want 2", hist["count"])
	}
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("esc_total", "esc", L("v", "a\"b\\c\nd")).Inc()
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	if want := `esc_total{v="a\"b\\c\nd"} 1`; !strings.Contains(buf.String(), want) {
		t.Fatalf("escaped series %q missing:\n%s", want, buf.String())
	}
}
