package perfwatch

import (
	"math"
	"testing"
	"time"

	"summarycache/internal/obs"
	"summarycache/internal/tracing"
)

// stageHist reads one stage's histogram back from the registry, as
// /metrics and /debug/vars do.
func stageHist(reg *obs.Registry, stage string) *obs.Histogram {
	return reg.Histogram("summarycache_perf_stage_seconds", "", obs.L("stage", stage), nil)
}

func TestStageDecomposition(t *testing.T) {
	reg := obs.NewRegistry()
	w := New(Config{Registry: reg})

	w.OnSpan("n1", tracing.Span{Name: tracing.SpanLocalLookup, DurationUS: 100})
	w.OnSpan("n1", tracing.Span{Name: tracing.SpanOriginFetch, DurationUS: 5000})
	w.OnSpan("n1", tracing.Span{Name: "never_heard_of_it", DurationUS: 10})
	w.OnSpan("n1", tracing.Span{Name: StageLRUGet, DurationUS: 50})
	w.OnSpan("n1", tracing.Span{Name: StageDirUpdateApply, DurationUS: 20})
	w.OnFinish("n1", tracing.KindRequest, "miss", 6*time.Millisecond)

	for stage, wantCount := range map[string]uint64{
		tracing.SpanLocalLookup: 1,
		tracing.SpanOriginFetch: 1,
		StageOther:              1, // the unknown span name
		StageLRUGet:             1,
		StageDirUpdateApply:     1,
		StageRequest:            1,
		tracing.SpanPeerFetch:   0,
	} {
		if got := stageHist(reg, stage).Count(); got != wantCount {
			t.Errorf("stage %q count = %d, want %d", stage, got, wantCount)
		}
	}
	if got := stageHist(reg, StageRequest).Sum(); got != 0.006 {
		t.Errorf("request stage sum = %v, want 0.006", got)
	}
	// The sink must not feed icp_answer traces into the request stage.
	w.OnFinish("n1", tracing.KindICPAnswer, "icp_hit", time.Millisecond)
	if got := stageHist(reg, StageRequest).Count(); got != 1 {
		t.Errorf("request stage count after icp_answer finish = %d, want 1", got)
	}
}

// TestSubMicrosecondSpan: a span shorter than a microsecond keeps its
// nanoseconds all the way into the stage histogram.
func TestSubMicrosecondSpan(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := tracing.New(tracing.Config{Sink: New(Config{Registry: reg})})
	tracer.Record("n1", tracing.Span{Name: tracing.SpanLocalLookup, DurationUS: tracing.Micros(400 * time.Nanosecond)})
	sum := stageHist(reg, tracing.SpanLocalLookup).Sum()
	if got := time.Duration(math.Round(sum * 1e9)); got != 400*time.Nanosecond {
		t.Fatalf("local_lookup stage sum = %v, want 400ns", got)
	}
}

func TestNilWatchIsNoOp(t *testing.T) {
	var w *Watch
	w.OnSpan("n", tracing.Span{Name: "x"})
	w.OnFinish("n", tracing.KindRequest, "miss", time.Second)
}

// The hot-path hooks must not allocate: they run on every span (every LRU
// op of a traced proxy) and every request once a Watch is wired.
func TestHotPathAllocs(t *testing.T) {
	w := New(Config{})
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
