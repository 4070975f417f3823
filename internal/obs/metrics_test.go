package obs

import (
	"encoding/json"
	"math"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	var g Gauge
	g.Set(10)
	g.Add(-3)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestDefaultLatencyBuckets(t *testing.T) {
	b := DefaultLatencyBuckets()
	if len(b) != 28 {
		t.Fatalf("bucket count = %d, want 28", len(b))
	}
	if b[0] != 1e-6 {
		t.Fatalf("first bound = %v, want 1µs", b[0])
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not increasing at %d: %v <= %v", i, b[i], b[i-1])
		}
		if got := b[i] / b[i-1]; math.Abs(got-2) > 1e-9 {
			t.Fatalf("bucket ratio at %d = %v, want 2", i, got)
		}
	}
	if b[len(b)-1] < 100 {
		t.Fatalf("top bound %vs does not cover slow origins", b[len(b)-1])
	}
}

func TestHistogramBucketMath(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.0, 1.5, 3.0, 8.0, 100.0} {
		h.Observe(v)
	}
	// Bucket upper bounds are inclusive (Prometheus le semantics):
	// 0.5 and 1.0 land in le=1; 1.5 in le=2; 3.0 in le=4; the rest +Inf.
	want := []uint64{2, 1, 1, 2}
	got := h.BucketCounts()
	if len(got) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket[%d] = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if want := 0.5 + 1 + 1.5 + 3 + 8 + 100; h.Sum() != want {
		t.Fatalf("sum = %v, want %v", h.Sum(), want)
	}
	if want := (0.5 + 1 + 1.5 + 3 + 8 + 100) / 6; h.Mean() != want {
		t.Fatalf("mean = %v, want %v", h.Mean(), want)
	}
}

func TestHistogramQuantileUniform(t *testing.T) {
	// One observation per unit bucket: the quantile estimate is exact at
	// bucket edges (linear interpolation, the histogram_quantile rule).
	bounds := make([]float64, 10)
	h := func() *Histogram {
		for i := range bounds {
			bounds[i] = float64(i + 1)
		}
		h := newHistogram(bounds)
		for i := 0; i < 10; i++ {
			h.Observe(float64(i) + 0.5)
		}
		return h
	}()
	cases := []struct{ q, want float64 }{
		{0.1, 1}, {0.5, 5}, {0.9, 9}, {1.0, 10},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	// Zero observations: every quantile is 0 — defined and
	// JSON-marshalable, unlike the NaN it used to return.
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty histogram Quantile(%v) = %v, want 0", q, got)
		}
	}
	if b, err := json.Marshal(h.Quantile(0.5)); err != nil || string(b) != "0" {
		t.Fatalf("empty quantile must marshal as 0: %s, %v", b, err)
	}
	h.Observe(1000) // +Inf bucket
	if got := h.Quantile(0.99); got != 2 {
		t.Fatalf("quantile in +Inf bucket = %v, want largest finite bound 2", got)
	}
	if got := h.Quantile(math.NaN()); !math.IsNaN(got) {
		t.Fatalf("Quantile(NaN) = %v, want NaN", got)
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	h := newHistogram(nil)
	h.ObserveDuration(250 * time.Millisecond)
	if h.Count() != 1 {
		t.Fatalf("count = %d, want 1", h.Count())
	}
	if got := h.Sum(); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("sum = %v, want 0.25", got)
	}
}
