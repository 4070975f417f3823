package perfwatch

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"summarycache/internal/obs"
	"summarycache/internal/tracing"
)

func TestStageDecomposition(t *testing.T) {
	reg := obs.NewRegistry()
	w := New(Config{Registry: reg})

	w.OnSpan("n1", tracing.Span{Name: tracing.SpanLocalLookup, DurationUS: 100})
	w.OnSpan("n1", tracing.Span{Name: tracing.SpanOriginFetch, DurationUS: 5000})
	w.OnSpan("n1", tracing.Span{Name: "never_heard_of_it", DurationUS: 10})
	w.OnSpan("n1", tracing.Span{Name: StageLRUGet, DurationUS: 50})
	w.OnSpan("n1", tracing.Span{Name: StageDirUpdateApply, DurationUS: 20})
	w.OnFinish("n1", tracing.KindRequest, "miss", 6*time.Millisecond)

	byStage := map[string]StageSummary{}
	for _, s := range w.Stages() {
		byStage[s.Stage] = s
	}
	for stage, wantCount := range map[string]uint64{
		tracing.SpanLocalLookup: 1,
		tracing.SpanOriginFetch: 1,
		StageOther:              1, // the unknown span name
		StageLRUGet:             1,
		StageDirUpdateApply:     1,
		StageRequest:            1,
	} {
		if got := byStage[stage].Count; got != wantCount {
			t.Errorf("stage %q count = %d, want %d", stage, got, wantCount)
		}
	}
	if first := w.Stages()[0].Stage; first != StageRequest {
		t.Errorf("Stages()[0] = %q, want %q first", first, StageRequest)
	}
	// The sink must not feed icp_answer traces into the request stage.
	w.OnFinish("n1", tracing.KindICPAnswer, "icp_hit", time.Millisecond)
	if got := w.stages[StageRequest].Count(); got != 1 {
		t.Errorf("request stage count after icp_answer finish = %d, want 1", got)
	}
}

// TestSubMicrosecondSpan: a span shorter than a microsecond keeps its
// nanoseconds all the way into the stage histogram.
func TestSubMicrosecondSpan(t *testing.T) {
	w := New(Config{})
	tracer := tracing.New(tracing.Config{Sink: w})
	tracer.Record("n1", tracing.Span{Name: tracing.SpanLocalLookup, DurationUS: tracing.Micros(400 * time.Nanosecond)})
	sum := w.stages[tracing.SpanLocalLookup].Sum()
	if got := time.Duration(math.Round(sum * 1e9)); got != 400*time.Nanosecond {
		t.Fatalf("local_lookup stage sum = %v, want 400ns", got)
	}
}

func TestLatencySLOMarksBreachingRequests(t *testing.T) {
	w := New(Config{Objectives: []Objective{{
		Name:      "client_p99",
		Threshold: 10 * time.Millisecond,
		Budget:    0.01,
	}}})
	if r := w.OnFinish("n1", tracing.KindRequest, "local_hit", time.Millisecond); r != "" {
		t.Errorf("fast request returned anomaly %q, want none", r)
	}
	if r := w.OnFinish("n1", tracing.KindRequest, "miss", 50*time.Millisecond); r != "slo:client_p99" {
		t.Errorf("slow request returned %q, want slo:client_p99", r)
	}
}

func TestSLOEvaluateWindows(t *testing.T) {
	reg := obs.NewRegistry()
	w := New(Config{Registry: reg, Objectives: []Objective{{
		Name:      "client_p99",
		Threshold: 10 * time.Millisecond,
		Budget:    0.1,
	}}})

	// Window 1: 1 bad of 4 → bad fraction 0.25, burn 2.5, breached.
	for i := 0; i < 3; i++ {
		w.OnFinish("n1", tracing.KindRequest, "local_hit", time.Millisecond)
	}
	w.OnFinish("n1", tracing.KindRequest, "miss", 50*time.Millisecond)
	st := w.Evaluate()
	if len(st) != 1 {
		t.Fatalf("Evaluate returned %d statuses, want 1", len(st))
	}
	if st[0].WindowBad != 1 || st[0].WindowTotal != 4 {
		t.Errorf("window = %d/%d, want 1/4", st[0].WindowBad, st[0].WindowTotal)
	}
	if !st[0].Breached || st[0].BurnRate != 2.5 {
		t.Errorf("burn = %v breached = %v, want 2.5 true", st[0].BurnRate, st[0].Breached)
	}
	if st[0].Breaches != 1 {
		t.Errorf("breaches = %d, want 1", st[0].Breaches)
	}

	// Window 2: empty → burn 0, not breached; breach count unchanged.
	st = w.Evaluate()
	if st[0].Breached || st[0].BurnRate != 0 || st[0].Breaches != 1 {
		t.Errorf("empty window: burn=%v breached=%v breaches=%d, want 0 false 1",
			st[0].BurnRate, st[0].Breached, st[0].Breaches)
	}

	// Window 3: all good traffic → burn 0.
	for i := 0; i < 10; i++ {
		w.OnFinish("n1", tracing.KindRequest, "local_hit", time.Millisecond)
	}
	if st = w.Evaluate(); st[0].BurnRate != 0 {
		t.Errorf("good window burn = %v, want 0", st[0].BurnRate)
	}
}

func TestRatioAndErrorRateObjectives(t *testing.T) {
	var num, den uint64
	w := New(Config{Objectives: []Objective{
		{
			Name:   "false_hit_ratio",
			Budget: 0.05,
			Num:    func() uint64 { return num },
			Den:    func() uint64 { return den },
		},
		{Name: "client_errors", Budget: 0.5},
	}})
	num, den = 2, 10 // ratio 0.2 over a 0.05 ceiling → burn 4
	w.OnFinish("n1", tracing.KindRequest, "error", time.Millisecond)
	w.OnFinish("n1", tracing.KindRequest, "local_hit", time.Millisecond)

	byName := map[string]SLOStatus{}
	for _, s := range w.Evaluate() {
		byName[s.Name] = s
	}
	if s := byName["false_hit_ratio"]; !s.Breached || s.BurnRate != 4 {
		t.Errorf("ratio objective burn=%v breached=%v, want 4 true", s.BurnRate, s.Breached)
	}
	if s := byName["client_errors"]; !s.Breached || s.BurnRate != 1 {
		t.Errorf("error-rate objective burn=%v breached=%v, want 1 true", s.BurnRate, s.Breached)
	}
}

func TestCaptureRingAndRateLimit(t *testing.T) {
	reg := obs.NewRegistry()
	w := New(Config{
		Registry: reg,
		Capture: CaptureConfig{
			Enabled:     true,
			Ring:        2,
			CPUDuration: 10 * time.Millisecond,
			MinInterval: time.Hour,
		},
	})
	c := w.Capturer()
	if c == nil {
		t.Fatal("Capturer() = nil with capture enabled")
	}
	if !c.Trigger("slo:test burn=9.99") {
		t.Fatal("first Trigger refused")
	}
	if c.Trigger("again") {
		t.Error("second Trigger admitted inside MinInterval")
	}
	c.Wait()
	caps := c.Captures()
	if len(caps) != 1 {
		t.Fatalf("got %d captures, want 1", len(caps))
	}
	cp := caps[0]
	if cp.Reason != "slo:test burn=9.99" || cp.Seq != 1 {
		t.Errorf("capture = seq %d reason %q", cp.Seq, cp.Reason)
	}
	// CPU can be unavailable if another profile is live, but the
	// snapshot profiles always succeed.
	for _, name := range []string{"heap", "mutex", "block"} {
		if len(cp.Profiles[name]) == 0 {
			t.Errorf("profile %q empty", name)
		}
	}
}

func TestSLOBreachTriggersCapture(t *testing.T) {
	w := New(Config{
		Objectives: []Objective{{
			Name:      "client_p99",
			Threshold: time.Millisecond,
			Budget:    0.01,
		}},
		Capture: CaptureConfig{
			Enabled:     true,
			CPUDuration: 10 * time.Millisecond,
			MinInterval: time.Hour,
		},
	})
	w.OnFinish("n1", tracing.KindRequest, "miss", 50*time.Millisecond)
	w.Evaluate()
	w.Capturer().Wait()
	caps := w.Capturer().Captures()
	if len(caps) != 1 || !strings.HasPrefix(caps[0].Reason, "slo:client_p99") {
		t.Fatalf("captures after breach = %+v, want one with slo:client_p99 reason", caps)
	}
}

// A scrape of /debug/slo before the first evaluation reports the
// objectives unevaluated; it must not close the window, count a breach or
// start a capture, so the next Evaluate still sees the slow request.
func TestSLOScrapeDoesNotEvaluate(t *testing.T) {
	w := New(Config{
		Objectives: []Objective{{Name: "client_p99", Threshold: time.Millisecond}},
		Capture:    CaptureConfig{Enabled: true, CPUDuration: time.Millisecond, MinInterval: time.Hour},
	})
	w.OnFinish("n1", tracing.KindRequest, "miss", 50*time.Millisecond)
	for i := 0; i < 2; i++ {
		rec := httptest.NewRecorder()
		w.SLOHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slo", nil))
		var v sloView
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			t.Fatalf("slo json: %v", err)
		}
		if !v.EvaluatedAt.IsZero() || len(v.Objectives) != 1 {
			t.Fatalf("scrape %d before evaluation = %+v, want one objective at the zero time", i, v)
		}
		if o := v.Objectives[0]; o.Name != "client_p99" || o.Kind != KindLatency ||
			o.WindowTotal != 0 || o.Breached || o.Breaches != 0 {
			t.Fatalf("scrape %d before evaluation: objective %+v, want an unevaluated row", i, o)
		}
	}
	if n := len(w.Capturer().Captures()); n != 0 {
		t.Fatalf("%d captures after scrapes alone, want 0", n)
	}
	st := w.Evaluate()
	w.Capturer().Wait()
	if st[0].WindowTotal != 1 || !st[0].Breached || st[0].Breaches != 1 {
		t.Errorf("first Evaluate = %+v, want the slow request's window, breached once", st[0])
	}
	if n := len(w.Capturer().Captures()); n != 1 {
		t.Errorf("%d captures after the breaching Evaluate, want 1", n)
	}
}

func TestHandlers(t *testing.T) {
	w := New(Config{
		Objectives: []Objective{{Name: "client_p99", Threshold: 10 * time.Millisecond}},
		Capture:    CaptureConfig{Enabled: true, CPUDuration: 5 * time.Millisecond, MinInterval: time.Hour},
	})
	w.OnFinish("n1", tracing.KindRequest, "miss", 50*time.Millisecond)
	w.Evaluate()
	w.Capturer().Wait()

	// /debug/slo JSON names the objective and carries the stage table.
	rec := httptest.NewRecorder()
	w.SLOHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slo", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("slo Content-Type = %q, want JSON", ct)
	}
	var v struct {
		Objectives []SLOStatus    `json:"objectives"`
		Stages     []StageSummary `json:"stages"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("slo json: %v", err)
	}
	if len(v.Objectives) != 1 || v.Objectives[0].Name != "client_p99" || len(v.Stages) == 0 {
		t.Errorf("slo view = %+v", v)
	}

	// /debug/perf lists the capture and serves raw profile bytes.
	rec = httptest.NewRecorder()
	w.PerfHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/perf", nil))
	var caps []struct {
		Seq      int            `json:"seq"`
		Profiles map[string]int `json:"profile_bytes"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &caps); err != nil {
		t.Fatalf("perf json: %v", err)
	}
	if len(caps) != 1 || caps[0].Profiles["heap"] == 0 {
		t.Fatalf("perf listing = %+v", caps)
	}
	rec = httptest.NewRecorder()
	w.PerfHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/perf?capture=1&profile=heap", nil))
	if rec.Code != 200 || rec.Body.Len() == 0 {
		t.Errorf("raw profile: code %d, %d bytes", rec.Code, rec.Body.Len())
	}
	rec = httptest.NewRecorder()
	w.PerfHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/perf?capture=9&profile=heap", nil))
	if rec.Code != 404 {
		t.Errorf("missing capture: code %d, want 404", rec.Code)
	}
}

func TestNilWatchIsNoOp(t *testing.T) {
	var w *Watch
	w.OnSpan("n", tracing.Span{Name: "x"})
	if r := w.OnFinish("n", tracing.KindRequest, "miss", time.Second); r != "" {
		t.Errorf("nil OnFinish = %q", r)
	}
	if w.Evaluate() != nil || w.Stages() != nil || w.Capturer() != nil {
		t.Error("nil Watch returned non-nil state")
	}
	w.Capturer().Trigger("x")
	w.Capturer().Wait()
}

// The hot-path hooks must not allocate: they run on every span (every LRU
// op of a traced proxy) and every request once a Watch is wired.
func TestHotPathAllocs(t *testing.T) {
	w := New(Config{Objectives: []Objective{{
		Name:      "client_p99",
		Threshold: 10 * time.Millisecond,
	}}})
	span := tracing.Span{Name: tracing.SpanLocalLookup, DurationUS: 42}
	if allocs := testing.AllocsPerRun(1000, func() {
		w.OnSpan("n1", span)
	}); allocs != 0 {
		t.Errorf("OnSpan allocates %v per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		w.OnFinish("n1", tracing.KindRequest, "local_hit", time.Millisecond)
	}); allocs != 0 {
		t.Errorf("OnFinish allocates %v per call, want 0", allocs)
	}
}
