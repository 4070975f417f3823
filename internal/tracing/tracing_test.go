package tracing

import (
	"context"
	"testing"
	"time"

	"summarycache/internal/obs"
)

// TestNilTracerZeroAlloc is the acceptance check for the disabled path:
// the full hook sequence a local hit executes — start, span, context
// guard, finish — must not allocate when tracing is off. The proxy guards
// StartRequest and span construction behind a nil check, so the disabled
// hot path is exactly these nil-receiver calls.
func TestNilTracerZeroAlloc(t *testing.T) {
	var tracer *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		tr := tracer.StartRequest("node", "http://doc/")
		tr.AddSpan(Span{Name: SpanLocalLookup, Actual: "hit"})
		tr.SetICPExchange("node", 1)
		tr.MarkAnomalous("never")
		tr.Finish("local_hit")
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocates %v per request, want 0", allocs)
	}
	tracer.ICPAnswer("node", "peer", 1, "http://doc/", "hit", time.Time{}, false)
	if tracer.Traces() != nil {
		t.Fatal("nil tracer returned traces")
	}
}

func TestIDFromICP(t *testing.T) {
	a := IDFromICP("127.0.0.1:4000", 42)
	if b := IDFromICP("127.0.0.1:4000", 42); b != a {
		t.Fatalf("same exchange, different IDs: %v vs %v", a, b)
	}
	if b := IDFromICP("127.0.0.1:4001", 42); b == a {
		t.Fatal("different querier must yield a different ID")
	}
	if b := IDFromICP("127.0.0.1:4000", 43); b == a {
		t.Fatal("different reqNum must yield a different ID")
	}
	// Hex round-trip, the form /debug/traces?id= accepts.
	got, ok := ParseID(a.String())
	if !ok || got != a {
		t.Fatalf("ParseID(%q) = %v, %v", a.String(), got, ok)
	}
	for _, bad := range []string{"", "xyz", "00112233445566778899"} {
		if _, ok := ParseID(bad); ok {
			t.Errorf("ParseID(%q) accepted", bad)
		}
	}
}

func TestHeadSamplingKeepsEverythingAtRateOne(t *testing.T) {
	tracer := New(Config{HeadRate: 1, Buffer: 8})
	tr := tracer.StartRequest("n", "http://a/")
	tr.Finish("miss")
	if got := tr.Kept(); got != "head" {
		t.Fatalf("kept = %q, want head", got)
	}
	if n := len(tracer.Traces()); n != 1 {
		t.Fatalf("stored %d traces, want 1", n)
	}
	if tracer.sampled.Value() != 1 || tracer.dropped.Value() != 0 {
		t.Fatalf("counters: sampled=%d dropped=%d", tracer.sampled.Value(), tracer.dropped.Value())
	}
}

func TestTailSamplingKeepsAnomaliesAtRateZero(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := New(Config{HeadRate: 0, Buffer: 8, Registry: reg})

	normal := tracer.StartRequest("n", "http://a/")
	normal.Finish("miss")
	if got := normal.Kept(); got != "" {
		t.Fatalf("normal trace at head rate 0: kept = %q, want dropped", got)
	}

	anom := tracer.StartRequest("n", "http://b/")
	anom.MarkAnomalous("false_hit")
	anom.MarkAnomalous("second_reason_must_not_override")
	anom.Finish("false_hit")
	if got := anom.Kept(); got != "tail" {
		t.Fatalf("anomalous trace: kept = %q, want tail", got)
	}

	stored := tracer.Traces()
	if len(stored) != 1 || stored[0].Outcome() != "false_hit" {
		t.Fatalf("stored %v, want exactly the anomalous trace", stored)
	}
	if tracer.keptTail.Value() != 1 || tracer.dropped.Value() != 1 || tracer.sampled.Value() != 0 {
		t.Fatalf("counters: sampled=%d tail=%d dropped=%d, want 0/1/1",
			tracer.sampled.Value(), tracer.keptTail.Value(), tracer.dropped.Value())
	}
}

func TestFinishIdempotent(t *testing.T) {
	tracer := New(Config{HeadRate: 1, Buffer: 8})
	tr := tracer.StartRequest("n", "http://a/")
	tr.Finish("miss")
	tr.Finish("local_hit") // must not re-store or overwrite
	if got := tr.Outcome(); got != "miss" {
		t.Fatalf("outcome = %q, want first Finish to win", got)
	}
	if n := len(tracer.Traces()); n != 1 {
		t.Fatalf("double Finish stored %d traces, want 1", n)
	}
}

func TestRingOverwritesOldestNewestFirst(t *testing.T) {
	tracer := New(Config{HeadRate: 1, Buffer: 4})
	urls := []string{"u0", "u1", "u2", "u3", "u4", "u5"}
	for _, u := range urls {
		tracer.StartRequest("n", u).Finish("miss")
	}
	got := tracer.Traces()
	if len(got) != 4 {
		t.Fatalf("ring holds %d, want capacity 4", len(got))
	}
	for i, want := range []string{"u5", "u4", "u3", "u2"} {
		if got[i].snapshotView().URL != want {
			t.Fatalf("slot %d = %s, want %s (newest first)", i, got[i].snapshotView().URL, want)
		}
	}
}

// TestICPCorrelation is the wire-level correlation property: the querying
// side (SetICPExchange) and the answering side (ICPAnswer) derive the same
// trace ID from the same (querier address, RequestNumber) pair.
func TestICPCorrelation(t *testing.T) {
	tracer := New(Config{HeadRate: 1, Buffer: 8})
	const querier = "127.0.0.1:7001"
	const reqNum uint32 = 99

	req := tracer.StartRequest("127.0.0.1:7001", "http://doc/")
	req.SetICPExchange(querier, reqNum)
	req.Finish("false_hit")

	tracer.ICPAnswer("127.0.0.1:7002", querier, reqNum, "http://doc/", "miss", time.Now(), true)

	matches := tracer.Find(req.ID())
	if len(matches) != 2 {
		t.Fatalf("Find(%v) = %d traces, want the request and the answer", req.ID(), len(matches))
	}
	var kinds []string
	for _, m := range matches {
		kinds = append(kinds, m.snapshotView().Kind)
	}
	if !((kinds[0] == KindRequest && kinds[1] == KindICPAnswer) ||
		(kinds[0] == KindICPAnswer && kinds[1] == KindRequest)) {
		t.Fatalf("kinds = %v, want one request and one icp_answer", kinds)
	}
}

func TestICPAnswerAnomalySemantics(t *testing.T) {
	tracer := New(Config{HeadRate: 0, Buffer: 8})
	// SC-ICP: a MISS answer means the querier's replica lied — tail-keep.
	tracer.ICPAnswer("n", "q:1", 1, "http://a/", "miss", time.Now(), true)
	// Classic ICP: a MISS answer is ordinary — dropped at head rate 0.
	tracer.ICPAnswer("n", "q:1", 2, "http://b/", "miss", time.Now(), false)
	// A HIT answer is never anomalous.
	tracer.ICPAnswer("n", "q:1", 3, "http://c/", "hit", time.Now(), true)

	stored := tracer.Traces()
	if len(stored) != 1 {
		t.Fatalf("stored %d answer traces, want only the SC-ICP false hit", len(stored))
	}
	v := stored[0].snapshotView()
	if v.Anomaly != "false_hit_answered" || v.Outcome != "icp_miss" || v.Kept != "tail" {
		t.Fatalf("answer trace = %+v", v)
	}
	if len(v.Spans) != 1 || v.Spans[0].Name != SpanICPAnswer ||
		v.Spans[0].Predicted != "hit" || v.Spans[0].Actual != "miss" {
		t.Fatalf("answer span = %+v", v.Spans)
	}
}

// TestICPAnswerInline: an answer that carried the document in a HIT_OBJ
// reply is a hit, marked hit_obj on its span.
func TestICPAnswerInline(t *testing.T) {
	tracer := New(Config{HeadRate: 1, Buffer: 8})
	tracer.ICPAnswer("n", "q:1", 1, "http://a/", "hit_obj", time.Now(), true)
	stored := tracer.Traces()
	if len(stored) != 1 {
		t.Fatalf("stored %d answer traces, want 1", len(stored))
	}
	v := stored[0].snapshotView()
	if v.Outcome != "icp_hit" || v.Anomaly != "" || len(v.Spans) != 1 || v.Spans[0].Actual != "hit_obj" {
		t.Fatalf("inline answer trace = %+v", v)
	}
}

func TestContextRoundTrip(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context must carry no trace")
	}
	tracer := New(Config{HeadRate: 1, Buffer: 8})
	tr := tracer.StartRequest("n", "http://a/")
	ctx := NewContext(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("context did not round-trip the trace")
	}
}
