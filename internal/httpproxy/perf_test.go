package httpproxy

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"summarycache/internal/bloom"
	"summarycache/internal/faultnet"
	"summarycache/internal/obs"
	"summarycache/internal/origin"
	"summarycache/internal/perfwatch"
	"summarycache/internal/tracing"
)

// spanStages are the stages derived from request-trace spans; their sum
// is the decomposed portion of end-to-end request latency.
var spanStages = []string{
	tracing.SpanLocalLookup,
	tracing.SpanSummaryProbe,
	tracing.SpanICPQuery,
	tracing.SpanPeerFetch,
	tracing.SpanOriginFetch,
}

// waitForRequestCount polls until the watch's "request" stage has
// absorbed n samples (trace Finish runs in the handler goroutine, so the
// client can observe the response a beat before the sink does).
func waitForRequestCount(t *testing.T, w *perfwatch.Watch, n uint64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		for _, s := range w.Stages() {
			if s.Stage == perfwatch.StageRequest && s.Count >= n {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("request stage never reached %d samples", n)
}

// TestPerfSLOBreachEndToEnd is the performance-observability acceptance
// test: a 2-proxy SC-ICP mesh whose origin path stalls (faultnet HTTP
// Stall on every fetch) must
//
//	(a) attribute each client request's latency to stages — the sum of
//	    the span-derived stages approximately equals the end-to-end
//	    "request" stage (the stall lives in origin_fetch, so nothing is
//	    lost to an unattributed gap),
//	(b) trip the latency SLO: every stalled request exceeds the
//	    threshold, the evaluated burn rate breaches, and
//	(c) on breach, capture a pprof profile ring entry and retain every
//	    breaching trace at head rate 0 with an "slo:" anomaly, visible
//	    at /debug/traces, /debug/slo and /debug/perf.
func TestPerfSLOBreachEndToEnd(t *testing.T) {
	org, err := origin.Start(origin.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { org.Close() })

	const (
		stallFor  = 300 * time.Millisecond
		threshold = 100 * time.Millisecond
		docs      = 5
	)
	reg := obs.NewRegistry()
	watch := perfwatch.New(perfwatch.Config{
		Registry: reg,
		Objectives: []perfwatch.Objective{{
			Name:      "client_p99",
			Threshold: threshold,
			Budget:    0.01,
		}},
		Capture: perfwatch.CaptureConfig{
			Enabled:     true,
			CPUDuration: 20 * time.Millisecond,
			MinInterval: time.Hour,
		},
	})
	tracer := tracing.New(tracing.Config{HeadRate: 0, Buffer: 64, Registry: reg, Sink: watch})

	var proxies []*Proxy
	for i := 0; i < 2; i++ {
		inj := faultnet.New(faultnet.Scenario{
			Seed: int64(i + 1),
			HTTP: faultnet.HTTPRates{Stall: 1, StallFor: stallFor},
		})
		p, err := Start(Config{
			Mode:       ModeSCICP,
			CacheBytes: 8 << 20,
			Summary: bloom.DirectoryConfig{
				ExpectedDocs: 2000, UpdateThreshold: 0.01,
			},
			QueryTimeout: 2 * time.Second,
			FetchTimeout: 5 * time.Second,
			Faults:       inj,
			Metrics:      reg,
			Tracer:       tracer,
			Perf:         watch,
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
	admin := httptest.NewServer(proxies[0].AdminHandler())
	t.Cleanup(admin.Close)

	m := &mesh{origin: org, proxies: proxies}
	a := proxies[0]
	for i := 0; i < docs; i++ {
		m.fetch(t, a, m.docURL("perf/doc"+string(rune('0'+i)), 2048))
	}
	// A repeat request is a local hit — fast, under the threshold; its
	// trace must NOT be retained below.
	m.fetch(t, a, m.docURL("perf/doc0", 2048))
	waitForRequestCount(t, watch, docs+1)

	// (a) Latency fully attributed: stage sum ≈ request sum. The stalled
	// origin fetch dominates, so the decomposed share must be high; it
	// can never meaningfully exceed the total (stages are sequential).
	var reqSum, stageSum float64
	byStage := map[string]perfwatch.StageSummary{}
	for _, s := range watch.Stages() {
		byStage[s.Stage] = s
	}
	reqSum = byStage[perfwatch.StageRequest].Sum
	for _, name := range spanStages {
		stageSum += byStage[name].Sum
	}
	if reqSum == 0 {
		t.Fatal("request stage absorbed no time")
	}
	if cov := stageSum / reqSum; cov < 0.75 || cov > 1.05 {
		t.Fatalf("stage sum %.4fs covers %.2f of request sum %.4fs, want ~1 (within [0.75, 1.05])",
			stageSum, cov, reqSum)
	}
	if byStage[tracing.SpanOriginFetch].Sum < float64(docs)*stallFor.Seconds() {
		t.Fatalf("origin_fetch sum %.3fs, want >= %d stalls of %v",
			byStage[tracing.SpanOriginFetch].Sum, docs, stallFor)
	}

	// (b) The SLO breaches: all stalled requests are bad events.
	var status *perfwatch.SLOStatus
	for _, s := range watch.Evaluate() {
		if s.Name == "client_p99" {
			s := s
			status = &s
		}
	}
	if status == nil {
		t.Fatal("client_p99 objective missing from Evaluate")
	}
	if !status.Breached || status.WindowBad != docs || status.WindowTotal != docs+1 {
		t.Fatalf("slo status = %+v, want breached with %d/%d bad", status, docs, docs+1)
	}

	// (c1) The breach captured a profile ring entry.
	watch.Capturer().Wait()
	caps := watch.Capturer().Captures()
	if len(caps) != 1 || !strings.HasPrefix(caps[0].Reason, "slo:client_p99") {
		t.Fatalf("captures = %+v, want one with reason slo:client_p99", caps)
	}
	if len(caps[0].Profiles["heap"]) == 0 {
		t.Fatal("capture has no heap profile")
	}

	// (c2) Every breaching trace survived head rate 0 via tail keep,
	// carrying the slo anomaly; the fast local hit did not.
	var list struct {
		Count  int            `json:"count"`
		Traces []traceSummary `json:"traces"`
	}
	if code := getTraceJSON(t, admin.URL+"/debug/traces", &list); code != http.StatusOK {
		t.Fatalf("/debug/traces status %d", code)
	}
	if list.Count != docs {
		t.Fatalf("retained %d traces, want the %d breaching ones only", list.Count, docs)
	}
	for _, tr := range list.Traces {
		if tr.Kept != "tail" || !strings.HasPrefix(tr.Anomaly, "slo:client_p99") {
			t.Fatalf("trace %+v, want kept=tail with slo:client_p99 anomaly", tr)
		}
	}

	// (c3) The debug endpoints agree.
	var slo struct {
		Objectives []perfwatch.SLOStatus `json:"objectives"`
	}
	if code := getTraceJSON(t, admin.URL+"/debug/slo", &slo); code != http.StatusOK {
		t.Fatalf("/debug/slo status %d", code)
	}
	if len(slo.Objectives) != 1 || !slo.Objectives[0].Breached {
		t.Fatalf("/debug/slo = %+v, want the breached objective", slo.Objectives)
	}
	var perfList []struct {
		Reason   string         `json:"reason"`
		Profiles map[string]int `json:"profile_bytes"`
	}
	if code := getTraceJSON(t, admin.URL+"/debug/perf", &perfList); code != http.StatusOK {
		t.Fatalf("/debug/perf status %d", code)
	}
	if len(perfList) != 1 || perfList[0].Profiles["heap"] == 0 {
		t.Fatalf("/debug/perf = %+v, want the capture with its heap profile", perfList)
	}

	// The document-cache stages saw traffic too: every request ran at
	// least one cache lookup.
	if byStage[perfwatch.StageLRUGet].Count < docs {
		t.Fatalf("lru_get count = %d, want >= %d", byStage[perfwatch.StageLRUGet].Count, docs)
	}
	if byStage[perfwatch.StageLRUInsert].Count < docs {
		t.Fatalf("lru_insert count = %d, want >= %d", byStage[perfwatch.StageLRUInsert].Count, docs)
	}
}

// countingSink counts what reaches a Watch through the tracer: every span
// and every finished request trace.
type countingSink struct {
	w               *perfwatch.Watch
	spans, requests atomic.Uint64
}

func (s *countingSink) OnSpan(node string, sp tracing.Span) {
	s.spans.Add(1)
	s.w.OnSpan(node, sp)
}

func (s *countingSink) OnFinish(node, kind, outcome string, d time.Duration) string {
	if kind == tracing.KindRequest {
		s.requests.Add(1)
	}
	return s.w.OnFinish(node, kind, outcome, d)
}

// TestPerfStageCoverage drives every kind of work through a traced
// two-proxy mesh — misses, an inline HIT_OBJ hit, an HTTP sibling fetch and
// a summary publication each way — and checks that every stage the Watch
// registers, but "other", gets samples, and that the Watch counts exactly
// the spans and request traces its tracer delivered: spans are its only
// input.
func TestPerfStageCoverage(t *testing.T) {
	wreg := obs.NewRegistry()
	sink := &countingSink{w: perfwatch.New(perfwatch.Config{Registry: wreg})}
	tracer := tracing.New(tracing.Config{HeadRate: 0, Buffer: 64, Sink: sink})
	m := pair(t, func(int) Config {
		return Config{
			Mode:         ModeSCICP,
			CacheBytes:   8 << 20,
			Summary:      bloom.DirectoryConfig{ExpectedDocs: 2000, UpdateThreshold: 0.01},
			QueryTimeout: 2 * time.Second,
			Tracer:       tracer,
			Perf:         sink.w,
		}
	})
	a, b := m.proxies[0], m.proxies[1]
	small, large := m.docURL("cover/inline", 2048), m.docURL("cover/http", overInline)
	m.fetch(t, b, small) // misses at B
	m.fetch(t, b, large)
	b.FlushSummary() // B → A
	waitForCandidate(t, a, small)
	waitForCandidate(t, a, large)
	m.fetch(t, a, small) // the HIT_OBJ hit
	m.fetch(t, a, large) // the sibling fetch
	if st := a.Stats(); st.RemoteHits != 2 {
		t.Fatalf("A stats = %+v, want two remote hits", st)
	}
	a.FlushSummary() // A → B
	waitForCandidate(t, b, small)

	counts := func() (map[string]float64, float64) {
		var buf bytes.Buffer
		wreg.WritePrometheus(&buf)
		byStage, total := map[string]float64{}, 0.0
		for series, v := range parseProm(t, &buf) {
			if stage, ok := strings.CutPrefix(series, `summarycache_perf_stage_seconds_count{stage="`); ok {
				byStage[strings.TrimSuffix(stage, `"}`)] = v
				total += v
			}
		}
		return byStage, total
	}
	byStage, total := counts()
	// Spans recorded after a reply (the answering side's trace, the
	// request's Finish) may still be on their way; poll for quiescence.
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if byStage, total = counts(); total == float64(sink.spans.Load()+sink.requests.Load()) {
			break
		}
	}
	if delivered := sink.spans.Load() + sink.requests.Load(); total != float64(delivered) {
		t.Errorf("Watch counted %v samples, the tracer delivered %d spans and request traces", total, delivered)
	}
	if len(byStage) != 13 { // request, other and the eleven span names
		t.Fatalf("Watch registered %d stages: %v", len(byStage), byStage)
	}
	for stage, n := range byStage {
		if (n == 0) != (stage == perfwatch.StageOther) {
			t.Errorf("stage %q has %v samples", stage, n)
		}
	}
}
