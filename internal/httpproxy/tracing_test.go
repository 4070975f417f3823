package httpproxy

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"summarycache/internal/core"
	"summarycache/internal/obs"
	"summarycache/internal/origin"
	"summarycache/internal/tracing"
)

// traceSummary / traceView mirror the /debug/traces JSON shapes.
type traceSummary struct {
	ID      string `json:"id"`
	Node    string `json:"node"`
	Kind    string `json:"kind"`
	URL     string `json:"url"`
	Outcome string `json:"outcome"`
	Anomaly string `json:"anomaly,omitempty"`
	Kept    string `json:"kept"`
	Spans   int    `json:"spans"`
}

type traceView struct {
	ID      string         `json:"id"`
	Node    string         `json:"node"`
	Kind    string         `json:"kind"`
	URL     string         `json:"url"`
	Outcome string         `json:"outcome"`
	Anomaly string         `json:"anomaly,omitempty"`
	Kept    string         `json:"kept"`
	Spans   []tracing.Span `json:"spans"`
}

func getTraceJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", url, err)
		}
	}
	return resp.StatusCode
}

func findSpan(spans []tracing.Span, name, peer string) *tracing.Span {
	for i := range spans {
		if spans[i].Name == name && (peer == "" || spans[i].Peer == peer) {
			return &spans[i]
		}
	}
	return nil
}

// TestFalseHitTraceAcrossMesh is the end-to-end acceptance test: a
// 3-proxy SC-ICP mesh where proxy B's summary replica at proxy A is
// deliberately stale (B purged the document but never published the
// deletion). A request through A then false-hits: A's summary probe
// predicts B has it, B answers MISS, and the origin serves the document.
// Fetching /debug/traces from A's and B's admin endpoints must show
//
//	(a) one false-hit trace whose querying-side and answering-side spans
//	    share a single trace ID, correlated via the ICP RequestNumber,
//	(b) a decision audit naming the probed Bloom bit indices and the
//	    stale replica generation, and
//	(c) tail-based sampling keeping it even though the head rate is 0.
func TestFalseHitTraceAcrossMesh(t *testing.T) {
	org, err := origin.Start(origin.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { org.Close() })

	// Per-proxy registries and tracers, head rate 0: only tail-kept
	// (anomalous) traces survive.
	var proxies []*Proxy
	var tracers []*tracing.Tracer
	var admins []*httptest.Server
	for i := 0; i < 3; i++ {
		reg := obs.NewRegistry()
		tracer := tracing.New(tracing.Config{HeadRate: 0, Buffer: 64, Registry: reg})
		p, err := Start(Config{
			Mode:       ModeSCICP,
			CacheBytes: 8 << 20,
			Summary: core.DirectoryConfig{
				ExpectedDocs: 2000, UpdateThreshold: 0.01,
			},
			// Deletions must stay unpublished so A's replica of B goes
			// stale: no threshold publication can ever trip.
			MinUpdateFlips: 1 << 20,
			QueryTimeout:   2 * time.Second,
			Metrics:        reg,
			Tracer:         tracer,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		admin := httptest.NewServer(obs.NewHandler(reg, p.Health,
			obs.Mount{Pattern: "/debug/traces", Handler: tracer.Handler()}))
		t.Cleanup(admin.Close)
		proxies = append(proxies, p)
		tracers = append(tracers, tracer)
		admins = append(admins, admin)
	}
	for i, p := range proxies {
		for j, q := range proxies {
			if i != j {
				if err := p.AddPeer(q.ICPAddr(), q.URL()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	a, b := proxies[0], proxies[1]
	m := &mesh{origin: org, proxies: proxies}

	// Seed B with the document and publish the insertion, so A's replica
	// of B's summary says "B has it".
	doc := m.docURL("traced/stale-doc", 2048)
	m.fetch(t, b, doc)
	b.FlushSummary()
	waitForCandidate(t, a, doc)

	// Now make that replica stale: B drops the document, and with the
	// publication threshold out of reach the deletion flip never ships.
	if !b.Purge(doc) {
		t.Fatal("purge: document was not cached at B")
	}
	if b.CacheLen() != 0 {
		t.Fatalf("B still caches %d documents after purge", b.CacheLen())
	}

	// The false hit: A misses locally, its replica nominates B, B answers
	// MISS, the origin serves it.
	m.fetch(t, a, doc)
	if st := a.Stats(); st.FalseHits != 1 {
		t.Fatalf("A stats = %+v, want exactly one false hit", st)
	}

	// A normal request through A (an ordinary miss) must NOT be retained
	// at head rate 0 — only the tail-kept false hit survives.
	m.fetch(t, a, m.docURL("traced/ordinary", 1024))

	// (c) The false-hit trace survived head rate 0, kept by tail sampling.
	var list struct {
		Count  int            `json:"count"`
		Traces []traceSummary `json:"traces"`
	}
	if code := getTraceJSON(t, admins[0].URL+"/debug/traces?outcome=false_hit", &list); code != http.StatusOK {
		t.Fatalf("/debug/traces status %d", code)
	}
	if list.Count != 1 {
		t.Fatalf("A retained %d false-hit traces, want 1: %+v", list.Count, list.Traces)
	}
	got := list.Traces[0]
	if got.Kept != "tail" {
		t.Errorf("kept = %q, want tail (head rate is 0)", got.Kept)
	}
	if got.Anomaly != "false_hit" || got.URL != doc {
		t.Errorf("trace summary = %+v", got)
	}
	var all struct {
		Count int `json:"count"`
	}
	getTraceJSON(t, admins[0].URL+"/debug/traces", &all)
	if all.Count != 1 {
		t.Errorf("A retained %d traces total, want only the false hit", all.Count)
	}

	// The querying side's full view: local lookup, audited summary probe,
	// ICP round-trip, origin fetch.
	var aViews []traceView
	if code := getTraceJSON(t, admins[0].URL+"/debug/traces?id="+got.ID, &aViews); code != http.StatusOK {
		t.Fatalf("id view status %d", code)
	}
	if len(aViews) != 1 || aViews[0].Kind != tracing.KindRequest {
		t.Fatalf("A id view = %+v, want one request trace", aViews)
	}
	spans := aViews[0].Spans
	if s := findSpan(spans, tracing.SpanLocalLookup, ""); s == nil || s.Actual != "miss" {
		t.Errorf("local_lookup span = %+v, want actual=miss", s)
	}
	bID := b.ICPAddr().String()
	probe := findSpan(spans, tracing.SpanSummaryProbe, bID)
	if probe == nil {
		t.Fatalf("no summary_probe span for B (%s) in %+v", bID, spans)
	}
	// (b) The decision audit: the lie is fully attributed — predicted hit
	// against a named replica generation, probed at named bit indices,
	// answered miss.
	if probe.Predicted != "hit" || probe.Actual != "miss" {
		t.Errorf("probe predicted=%q actual=%q, want hit/miss", probe.Predicted, probe.Actual)
	}
	if probe.Audit == nil {
		t.Fatal("summary_probe span carries no audit")
	}
	if len(probe.Audit.BitIndexes) == 0 {
		t.Error("audit names no probed bit indices")
	}
	for _, idx := range probe.Audit.BitIndexes {
		if idx >= probe.Audit.FilterBits {
			t.Errorf("bit index %d outside filter of %d bits", idx, probe.Audit.FilterBits)
		}
	}
	if probe.Audit.Generation == 0 {
		t.Error("audit names no replica generation (stale filter unattributable)")
	}
	q := findSpan(spans, tracing.SpanICPQuery, "")
	if q == nil {
		t.Fatalf("no icp_query span in %+v", spans)
	}
	if q.Actual != "all_miss" {
		t.Errorf("icp_query actual = %q, want all_miss", q.Actual)
	}
	if findSpan(spans, tracing.SpanOriginFetch, "") == nil {
		t.Errorf("no origin_fetch span in %+v", spans)
	}

	// (a) The answering side: B retained an icp_answer trace under the
	// SAME ID, derived independently from (querier addr, RequestNumber).
	// B finishes its trace just after sending the reply, so poll briefly.
	var bViews []traceView
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		bViews = nil
		if code := getTraceJSON(t, admins[1].URL+"/debug/traces?id="+got.ID, &bViews); code == http.StatusOK {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(bViews) != 1 || bViews[0].Kind != tracing.KindICPAnswer {
		t.Fatalf("B id view = %+v, want one icp_answer trace sharing ID %s", bViews, got.ID)
	}
	bv := bViews[0]
	if bv.Anomaly != "false_hit_answered" || bv.Kept != "tail" {
		t.Errorf("B answer trace = %+v, want tail-kept false_hit_answered", bv)
	}
	ans := findSpan(bv.Spans, tracing.SpanICPAnswer, "")
	if ans == nil {
		t.Fatalf("no icp_answer span in %+v", bv.Spans)
	}
	if ans.Predicted != "hit" || ans.Actual != "miss" {
		t.Errorf("answer span predicted=%q actual=%q, want hit/miss", ans.Predicted, ans.Actual)
	}
	// The correlation key itself: both sides recorded the same ICP
	// RequestNumber, and hashing it with the querier address reproduces
	// the shared trace ID.
	if ans.ReqNum != q.ReqNum {
		t.Errorf("answer reqNum %d != query reqNum %d", ans.ReqNum, q.ReqNum)
	}
	wantID, _ := tracing.ParseID(got.ID)
	if derived := tracing.IDFromICP(a.ICPAddr().String(), q.ReqNum); derived != wantID {
		t.Errorf("IDFromICP(%s, %d) = %v, want %s", a.ICPAddr(), q.ReqNum, derived, got.ID)
	}

	// Tracer counters registered in the obs registry agree with the store.
	if tracers[0].Traces()[0].ID() != wantID {
		t.Error("tracer store and handler disagree")
	}
	srv := admins[0]
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	series := parseProm(t, resp.Body)
	if v := series["summarycache_trace_kept_tail_total"]; v != 1 {
		t.Errorf("trace_kept_tail_total = %v, want 1", v)
	}
	if v := series["summarycache_trace_sampled_total"]; v != 0 {
		t.Errorf("trace_sampled_total = %v, want 0 at head rate 0", v)
	}
	if v := series["summarycache_trace_dropped_total"]; v < 1 {
		t.Errorf("trace_dropped_total = %v, want >=1 (the ordinary miss)", v)
	}
}

// TestDisabledTracingLocalHitNoExtraAllocs is the bounded-overhead
// acceptance check at the proxy layer: with tracing disabled (nil
// Tracer), the tracing hooks around the local-hit path add zero
// allocations over the bare cache lookup.
func TestDisabledTracingLocalHitNoExtraAllocs(t *testing.T) {
	m := newMesh(t, 1, ModeNone, 0)
	p := m.proxies[0]
	u := m.docURL("allocs/doc", 4096)
	m.fetch(t, p, u) // warm the cache
	if p.tracer != nil {
		t.Fatal("test needs a proxy with tracing disabled")
	}

	baseline := testing.AllocsPerRun(500, func() {
		if _, _, ok := p.cachedBody(u); !ok {
			t.Fatal("document fell out of cache")
		}
	})
	withHooks := testing.AllocsPerRun(500, func() {
		// The exact hook sequence serveProxy/serveProxyClassified run on
		// a local hit when p.tracer == nil.
		var tr *tracing.Trace
		if p.tracer != nil {
			tr = p.tracer.StartRequest("x", u)
		}
		if _, _, ok := p.cachedBody(u); !ok {
			t.Fatal("document fell out of cache")
		}
		if tr != nil {
			tr.AddSpan(tracing.Span{Name: tracing.SpanLocalLookup})
		}
		tr.Finish(outcomeLocalHit)
	})
	if withHooks != baseline {
		t.Fatalf("disabled tracing adds %v allocs per local hit (baseline %v)",
			withHooks-baseline, baseline)
	}
}

// tracedRemoteHit serves one remote hit on a document of size bytes
// through a traced 2-proxy SC-ICP mesh sharing one tracer, and returns the
// querying side's request trace, the answering side's trace, and the peer
// that answered.
func tracedRemoteHit(t *testing.T, size int64) (req, answer *tracing.Trace, peer string) {
	t.Helper()
	org, err := origin.Start(origin.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { org.Close() })
	tracer := tracing.New(tracing.Config{HeadRate: 1, Buffer: 64})
	var proxies []*Proxy
	for i := 0; i < 2; i++ {
		p, err := Start(Config{
			Mode:       ModeSCICP,
			CacheBytes: 8 << 20,
			Summary: core.DirectoryConfig{
				ExpectedDocs: 2000, UpdateThreshold: 0.01,
			},
			QueryTimeout: 2 * time.Second,
			Tracer:       tracer, // one shared tracer, as with a shared registry
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		proxies = append(proxies, p)
	}
	for i, p := range proxies {
		for j, q := range proxies {
			if i != j {
				if err := p.AddPeer(q.ICPAddr(), q.URL()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	a, b := proxies[0], proxies[1]
	m := &mesh{origin: org, proxies: proxies}

	doc := m.docURL("traced/shared-doc", size)
	m.fetch(t, b, doc)
	b.FlushSummary()
	waitForCandidate(t, a, doc)
	m.fetch(t, a, doc)
	if st := a.Stats(); st.RemoteHits != 1 {
		t.Fatalf("A stats = %+v, want one remote hit", st)
	}

	// With one shared tracer, Find on the request's ID yields the
	// querying-side request AND B's answering-side trace. Each side records
	// its trace only after replying, so the client can get here first.
	var matches []*tracing.Trace
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		for _, tr := range tracer.Traces() {
			if tr.Outcome() == outcomeRemoteHit {
				req = tr
			}
		}
		if req != nil {
			if matches = tracer.Find(req.ID()); len(matches) == 2 {
				break
			}
		}
	}
	if req == nil {
		t.Fatal("no remote_hit trace retained at head rate 1")
	}
	if req.Kept() != "head" {
		t.Errorf("remote-hit trace kept = %q, want head", req.Kept())
	}
	if len(matches) != 2 {
		t.Fatalf("Find(%v) = %d traces, want request + answer", req.ID(), len(matches))
	}
	for _, tr := range matches {
		if tr != req {
			answer = tr
		}
	}
	peer = b.ICPAddr().String()
	probe := findSpan(req.Spans(), tracing.SpanSummaryProbe, peer)
	if probe == nil || probe.Predicted != "hit" || probe.Actual != "hit" {
		t.Errorf("probe span = %+v, want a confirmed hit prediction", probe)
	}
	if findSpan(req.Spans(), tracing.SpanOriginFetch, "") != nil {
		t.Error("remote hit must not record an origin fetch")
	}
	return req, answer, peer
}

// TestTracedRemoteHit covers the happy cooperative path for a document too
// large to ride inline: the summary is fresh, the nominated peer confirms,
// and the sibling delivers over HTTP. At head rate 1 the trace is head-kept
// with peer_fetch recorded.
func TestTracedRemoteHit(t *testing.T) {
	req, _, peer := tracedRemoteHit(t, overInline)
	spans := req.Spans()
	if q := findSpan(spans, tracing.SpanICPQuery, ""); q == nil || q.Actual != "hit:"+peer {
		t.Errorf("icp_query span = %+v, want hit:%s", q, peer)
	}
	fetch := findSpan(spans, tracing.SpanPeerFetch, peer)
	if fetch == nil || fetch.Actual != "ok" {
		t.Errorf("peer_fetch span = %+v, want ok", fetch)
	}
}

// TestTracedInlineRemoteHit: a small document comes back inside the HIT_OBJ
// reply, so the icp_query span names the inline hit, both sides mark it
// hit_obj, and no peer_fetch span exists.
func TestTracedInlineRemoteHit(t *testing.T) {
	req, answer, peer := tracedRemoteHit(t, 2048)
	spans := req.Spans()
	if q := findSpan(spans, tracing.SpanICPQuery, ""); q == nil || q.Actual != "hit_obj:"+peer {
		t.Errorf("icp_query span = %+v, want hit_obj:%s", q, peer)
	}
	if s := findSpan(spans, tracing.SpanPeerFetch, ""); s != nil {
		t.Errorf("inline hit recorded a peer_fetch span: %+v", s)
	}
	if s := findSpan(answer.Spans(), tracing.SpanICPAnswer, ""); s == nil || s.Actual != "hit_obj" {
		t.Errorf("answer span = %+v, want actual hit_obj", s)
	}
}

// TestTracedClassicICP exercises the ModeICP instrumentation: the query
// fan-out span and the answering side under classic ICP semantics (a
// MISS answer is ordinary, not anomalous).
func TestTracedClassicICP(t *testing.T) {
	org, err := origin.Start(origin.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { org.Close() })
	tracer := tracing.New(tracing.Config{HeadRate: 1, Buffer: 64})
	var proxies []*Proxy
	for i := 0; i < 2; i++ {
		p, err := Start(Config{
			Mode:         ModeICP,
			CacheBytes:   8 << 20,
			QueryTimeout: 2 * time.Second,
			Tracer:       tracer,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		proxies = append(proxies, p)
	}
	for i, p := range proxies {
		for j, q := range proxies {
			if i != j {
				if err := p.AddPeer(q.ICPAddr(), q.URL()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	a := proxies[0]
	m := &mesh{origin: org, proxies: proxies}

	doc := m.docURL("traced/icp-doc", 1024)
	m.fetch(t, a, doc) // miss: queries B (which answers MISS), then origin

	var req *tracing.Trace
	for _, tr := range tracer.Traces() {
		if tr.Outcome() == outcomeMiss {
			req = tr
		}
	}
	if req == nil {
		t.Fatal("no miss trace retained")
	}
	q := findSpan(req.Spans(), tracing.SpanICPQuery, "")
	if q == nil || q.Actual != "all_miss" {
		t.Fatalf("icp_query span = %+v, want all_miss", q)
	}
	// B's answering-side trace shares the ID but is NOT anomalous: under
	// classic ICP everyone is queried, so a MISS answer is ordinary.
	matches := tracer.Find(req.ID())
	if len(matches) != 2 {
		t.Fatalf("Find = %d traces, want request + answer", len(matches))
	}
	for _, tr := range matches {
		if tr.Outcome() == "icp_miss" && tr.Kept() != "head" {
			t.Errorf("classic-ICP miss answer kept = %q, want head (not tail)", tr.Kept())
		}
	}
}
