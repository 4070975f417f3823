package tracing

import (
	"testing"
	"time"
)

// recordingSink is a test SpanSink: it records every hook invocation and
// returns a fixed anomaly reason for request traces slower than threshold.
type recordingSink struct {
	spans     []Span
	finishes  int
	threshold time.Duration
	reason    string
}

func (s *recordingSink) OnSpan(node string, sp Span) { s.spans = append(s.spans, sp) }

func (s *recordingSink) OnFinish(node, kind, outcome string, d time.Duration) string {
	s.finishes++
	if kind == KindRequest && d > s.threshold {
		return s.reason
	}
	return ""
}

// TestSinkSeesAllTrafficAtHeadRateZero pins the decomposition contract:
// a sink observes every span and every finish even when head sampling
// would drop the trace, because metrics need the full population while
// retention only governs what /debug/traces keeps.
func TestSinkSeesAllTrafficAtHeadRateZero(t *testing.T) {
	sink := &recordingSink{threshold: time.Hour}
	tracer := New(Config{HeadRate: 0, Buffer: 8, Sink: sink})

	tr := tracer.StartRequest("n", "http://a/")
	tr.AddSpan(Span{Name: SpanLocalLookup, DurationUS: 10})
	tr.AddSpan(Span{Name: SpanOriginFetch, DurationUS: 900})
	tr.Finish("miss")

	if len(sink.spans) != 2 || sink.spans[0].Name != SpanLocalLookup || sink.spans[1].Name != SpanOriginFetch {
		t.Fatalf("sink saw spans %v, want local_lookup then origin_fetch", sink.spans)
	}
	if sink.finishes != 1 {
		t.Fatalf("sink saw %d finishes, want 1", sink.finishes)
	}
	if got := tr.Kept(); got != "" {
		t.Fatalf("fast trace kept = %q, want dropped — the sink must not affect retention when it returns no reason", got)
	}
}

// TestSinkAnomalyRetainsBreachingTrace is the SLO-breach retention
// regression test: a request trace whose OnFinish returns an anomaly
// reason (perfwatch returns "slo:<name>" past a latency threshold) must
// survive head sampling at rate zero via the tail-keep path, carrying
// that reason.
func TestSinkAnomalyRetainsBreachingTrace(t *testing.T) {
	sink := &recordingSink{threshold: 0, reason: "slo:client_p99"}
	tracer := New(Config{HeadRate: 0, Buffer: 8, Sink: sink})

	tr := tracer.StartRequest("n", "http://slow/")
	tr.Finish("miss")

	if got := tr.Kept(); got != "tail" {
		t.Fatalf("breaching trace kept = %q, want tail", got)
	}
	stored := tracer.Traces()
	if len(stored) != 1 {
		t.Fatalf("stored %d traces, want the breaching one", len(stored))
	}
	if got := stored[0].snapshotView().Anomaly; got != "slo:client_p99" {
		t.Fatalf("anomaly = %q, want slo:client_p99", got)
	}
}

// TestSinkDoesNotOverrideEarlierAnomaly: an explicit MarkAnomalous reason
// (e.g. false_hit) wins over the sink's SLO reason — first reason sticks.
func TestSinkDoesNotOverrideEarlierAnomaly(t *testing.T) {
	sink := &recordingSink{threshold: 0, reason: "slo:client_p99"}
	tracer := New(Config{HeadRate: 0, Buffer: 8, Sink: sink})

	tr := tracer.StartRequest("n", "http://a/")
	tr.MarkAnomalous("false_hit")
	tr.Finish("false_hit")

	if got := tr.Kept(); got != "tail" {
		t.Fatalf("kept = %q, want tail", got)
	}
	if got := tracer.Traces()[0].snapshotView().Anomaly; got != "false_hit" {
		t.Fatalf("anomaly = %q, want the earlier false_hit to win", got)
	}
}

// TestRecordIsTheOneDeliveryPath: Record hands a span to the sink without
// storing a trace, AddSpan delivers through it, and Record is a no-op on
// a nil tracer or one without a sink.
func TestRecordIsTheOneDeliveryPath(t *testing.T) {
	var nilTracer *Tracer
	nilTracer.Record("n", Span{Name: SpanDirUpdateApply})
	New(Config{}).Record("n", Span{Name: SpanDirUpdateApply})

	sink := &recordingSink{threshold: time.Hour}
	tracer := New(Config{HeadRate: 1, Buffer: 8, Sink: sink})
	tracer.Record("n", Span{Name: SpanDirUpdateEncode, DurationUS: Micros(1500 * time.Nanosecond)})
	tracer.StartRequest("n", "http://a/").AddSpan(Span{Name: SpanLRUGet})
	if len(sink.spans) != 2 || sink.spans[0].Name != SpanDirUpdateEncode || sink.spans[0].DurationUS != 1.5 ||
		sink.spans[1].Name != SpanLRUGet {
		t.Fatalf("sink saw %+v, want dirupdate_encode (1.5us) then lru_get", sink.spans)
	}
	if n := len(tracer.Traces()); n != 0 {
		t.Fatalf("Record stored %d traces, want none", n)
	}
}
