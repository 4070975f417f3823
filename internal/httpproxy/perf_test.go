package httpproxy

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"summarycache/internal/bloom"
	"summarycache/internal/faultnet"
	"summarycache/internal/obs"
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

func (s *countingSink) OnFinish(node, kind, outcome string, d time.Duration) {
	if kind == tracing.KindRequest {
		s.requests.Add(1)
	}
	s.w.OnFinish(node, kind, outcome, d)
}

// stageSeries returns one value per stage of the
// summarycache_perf_stage_seconds<suffix> series ("_count" or "_sum") in a
// parsed scrape.
func stageSeries(scrape map[string]float64, suffix string) map[string]float64 {
	byStage := map[string]float64{}
	for series, v := range scrape {
		if stage, ok := strings.CutPrefix(series, "summarycache_perf_stage_seconds"+suffix+`{stage="`); ok {
			byStage[strings.TrimSuffix(stage, `"}`)] = v
		}
	}
	return byStage
}

// scrapeRegistry renders reg and parses the exposition.
func scrapeRegistry(t *testing.T, reg *obs.Registry) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	return parseProm(t, &buf)
}

// scrapeURL GETs a /metrics endpoint and parses the exposition.
func scrapeURL(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return parseProm(t, resp.Body)
}

// TestPerfSLOBreachEndToEnd: a 2-proxy SC-ICP mesh whose origin path
// stalls (faultnet HTTP Stall on every fetch) breaches a latency objective
// of 100ms, and proxy A's /metrics alone must show a scraper both the
// breach and where it lives:
//
//	(a) each client request's latency is attributed to stages — the sum
//	    of the span-derived stages approximately equals the end-to-end
//	    "request" stage (the stall lives in origin_fetch, so nothing is
//	    lost to an unattributed gap), and origin_fetch holds every stall;
//	(b) the breach is countable from the "request" histogram: the stalled
//	    requests lie above the first bucket bound at or over the objective,
//	    the fast local hit below it, which is all a burn rate needs;
//	(c) a breach retains no trace: the objective is evaluated by whoever
//	    scrapes, not by the tracer, so at head rate 0 /debug/traces holds
//	    none of these ordinary, if slow, requests.
func TestPerfSLOBreachEndToEnd(t *testing.T) {
	const (
		stallFor  = 300 * time.Millisecond
		objective = 100 * time.Millisecond
		docs      = 5
	)
	reg := obs.NewRegistry()
	watch := perfwatch.New(perfwatch.Config{Registry: reg})
	tracer := tracing.New(tracing.Config{HeadRate: 0, Buffer: 64, Registry: reg, Sink: watch})
	m := pair(t, func(i int) Config {
		return Config{
			Mode:         ModeSCICP,
			CacheBytes:   8 << 20,
			Summary:      bloom.DirectoryConfig{ExpectedDocs: 2000, UpdateThreshold: 0.01},
			QueryTimeout: 2 * time.Second,
			FetchTimeout: 5 * time.Second,
			Faults: faultnet.New(faultnet.Scenario{
				Seed: int64(i + 1),
				HTTP: faultnet.HTTPRates{Stall: 1, StallFor: stallFor},
			}),
			Metrics: reg,
			Tracer:  tracer,
		}
	})
	a := m.proxies[0]
	admin := httptest.NewServer(a.AdminHandler())
	t.Cleanup(admin.Close)

	for i := 0; i < docs; i++ {
		m.fetch(t, a, m.docURL("perf/doc"+string(rune('0'+i)), 2048))
	}
	// A repeat request is a local hit — fast, under the objective.
	m.fetch(t, a, m.docURL("perf/doc0", 2048))

	// Trace Finish runs in the handler goroutine, so the client can see
	// the response a beat before the "request" stage does; poll for it.
	scrape := scrapeURL(t, admin.URL+"/metrics")
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if stageSeries(scrape, "_count")[perfwatch.StageRequest] >= docs+1 {
			break
		}
		scrape = scrapeURL(t, admin.URL+"/metrics")
	}
	counts, sums := stageSeries(scrape, "_count"), stageSeries(scrape, "_sum")
	if counts[perfwatch.StageRequest] != docs+1 {
		t.Fatalf("request count = %v, want %d", counts[perfwatch.StageRequest], docs+1)
	}

	// (a) Latency fully attributed: stage sum ≈ request sum. The stalled
	// origin fetch dominates, so the decomposed share must be high; it
	// can never meaningfully exceed the total (stages are sequential).
	reqSum, stageSum := sums[perfwatch.StageRequest], 0.0
	for _, name := range spanStages {
		stageSum += sums[name]
	}
	if reqSum == 0 {
		t.Fatal("request stage absorbed no time")
	}
	if cov := stageSum / reqSum; cov < 0.75 || cov > 1.05 {
		t.Errorf("stage sum %.4fs covers %.2f of request sum %.4fs, want ~1 (within [0.75, 1.05])",
			stageSum, cov, reqSum)
	}
	if got := sums[tracing.SpanOriginFetch]; got < docs*stallFor.Seconds() {
		t.Errorf("origin_fetch sum %.3fs, want >= %d stalls of %v", got, docs, stallFor)
	}
	// The document-cache stages saw traffic too: every request ran at
	// least one cache lookup, every miss an insert.
	for _, stage := range []string{perfwatch.StageLRUGet, perfwatch.StageLRUInsert} {
		if counts[stage] < docs {
			t.Errorf("%s count = %v, want >= %d", stage, counts[stage], docs)
		}
	}

	// (b) The breach, as a scraper computes it: good events are the
	// requests at or under the first bucket bound >= the objective.
	bound := 0.0
	for _, b := range obs.DefaultLatencyBuckets() {
		if b >= objective.Seconds() {
			bound = b
			break
		}
	}
	if bound == 0 || bound >= stallFor.Seconds() {
		t.Fatalf("no bucket bound separates %v from the %v stall", objective, stallFor)
	}
	good, ok := scrape[`summarycache_perf_stage_seconds_bucket{stage="request",le="`+strconv.FormatFloat(bound, 'g', -1, 64)+`"}`]
	if !ok {
		t.Fatalf("no request bucket at le=%v", bound)
	}
	if bad := counts[perfwatch.StageRequest] - good; good != 1 || bad != docs {
		t.Errorf("request histogram: %v good and %v bad, want 1 and %d", good, bad, docs)
	}

	// (c) Nothing anomalous happened, so nothing was kept.
	var list struct {
		Count  int            `json:"count"`
		Traces []traceSummary `json:"traces"`
	}
	if code := getTraceJSON(t, admin.URL+"/debug/traces", &list); code != http.StatusOK {
		t.Fatalf("/debug/traces status %d", code)
	}
	if list.Count != 0 {
		t.Errorf("retained %d traces at head rate 0, want none: %+v", list.Count, list.Traces)
	}
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

	total := func(byStage map[string]float64) (n float64) {
		for _, v := range byStage {
			n += v
		}
		return n
	}
	// Spans recorded after a reply (the answering side's trace, the
	// request's Finish) may still be on their way; poll for quiescence.
	counts := stageSeries(scrapeRegistry(t, wreg), "_count")
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if counts = stageSeries(scrapeRegistry(t, wreg), "_count"); total(counts) == float64(sink.spans.Load()+sink.requests.Load()) {
			break
		}
	}
	if delivered := sink.spans.Load() + sink.requests.Load(); total(counts) != float64(delivered) {
		t.Errorf("Watch counted %v samples, the tracer delivered %d spans and request traces", total(counts), delivered)
	}
	if len(counts) != 13 { // request, other and the eleven span names
		t.Fatalf("Watch registered %d stages: %v", len(counts), counts)
	}
	for stage, n := range counts {
		if (n == 0) != (stage == perfwatch.StageOther) {
			t.Errorf("stage %q has %v samples", stage, n)
		}
	}
}
