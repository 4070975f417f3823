package tracing

import (
	"testing"
	"time"
)

// recordingSink is a test SpanSink: it records every hook invocation.
type recordingSink struct {
	spans    []Span
	finishes int
}

func (s *recordingSink) OnSpan(node string, sp Span) { s.spans = append(s.spans, sp) }

func (s *recordingSink) OnFinish(node, kind, outcome string, d time.Duration) { s.finishes++ }

// TestSinkSeesAllTrafficAtHeadRateZero pins the decomposition contract:
// a sink observes every span and every finish even when head sampling
// would drop the trace, because metrics need the full population while
// retention only governs what /debug/traces keeps.
func TestSinkSeesAllTrafficAtHeadRateZero(t *testing.T) {
	sink := &recordingSink{}
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
		t.Fatalf("trace kept = %q, want dropped — a sink never affects retention", got)
	}
}

// TestRecordIsTheOneDeliveryPath: Record hands a span to the sink without
// storing a trace, AddSpan delivers through it, and Record is a no-op on
// a nil tracer or one without a sink.
func TestRecordIsTheOneDeliveryPath(t *testing.T) {
	var nilTracer *Tracer
	nilTracer.Record("n", Span{Name: SpanDirUpdateApply})
	New(Config{}).Record("n", Span{Name: SpanDirUpdateApply})

	sink := &recordingSink{}
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
