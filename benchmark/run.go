package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"

	"summarycache/internal/obs"
	"summarycache/internal/perfwatch"
	"summarycache/internal/tracing"
)

// rounds is how many times a run sets a mesh up and measures on it. Each
// round gets a third of the run's seconds; every end-to-end metric is the
// median of its three values, and setup_s the median of the three set-ups.
const rounds = 3

// outDir receives span files and the persist temp dirs, relative to the
// benchmark's directory (where `go -C benchmark run .` runs the program).
const outDir = "out"

// cheTolerance is how far the measured local hit ratio may sit from the Che
// model's before the run is invalid.
const cheTolerance = 0.05

// metric is one reported number. Spread is (max − min) / median over the
// run's rounds, for the metrics that have one value per round.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread float64 `json:"spread,omitempty"`
}

type metrics map[string]metric

func (m metrics) put(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is one pass of one workload, in the shape the driver reads.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
	problems  []string
}

func (r *result) invalid(format string, args ...any) {
	r.Correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// window is everything measured around one timed window.
type window struct {
	setup     time.Duration
	load      windowLoad
	d         counts
	cpu       time.Duration
	mallocs   uint64
	heapInuse uint64
	outcomes  map[string]histDelta // the program's per-outcome latency histograms
	stages    map[string]histDelta // perfwatch stages; traced windows only
}

var outcomeNames = []string{"local_hit", "remote_hit", "miss", "false_hit"}

// stageNames are the perfwatch stages reported from a traced window.
var stageNames = []string{
	perfwatch.StageRequest, tracing.SpanLocalLookup, tracing.SpanSummaryProbe,
	tracing.SpanICPQuery, perfwatch.StageICPReply, tracing.SpanPeerFetch, tracing.SpanOriginFetch,
	perfwatch.StageLRUGet, perfwatch.StageLRUInsert,
	perfwatch.StageDirUpdateEncode, perfwatch.StageDirUpdateApply,
}

// leafStages are the request-path spans that do not overlap one another;
// request minus their sum is the proxy's unattributed time. summary_probe
// is left out: the node records one such span per peer, all starting
// together and, when a query follows, extending over icp_query.
var leafStages = []string{
	tracing.SpanLocalLookup, tracing.SpanICPQuery, tracing.SpanPeerFetch,
	tracing.SpanOriginFetch, perfwatch.StageLRUInsert,
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure sets a fresh mesh up for w, runs one timed window on it and
// checks the window's class.
func measure(w *workload, round int, d time.Duration, traced bool) (window, error) {
	var win window
	cfg := w.mesh
	cfg.traced = traced
	start := time.Now()
	m, err := startMesh(cfg)
	if err != nil {
		return win, err
	}
	defer m.close()
	srcs, err := w.setup(m, round)
	if err != nil {
		return win, fmt.Errorf("set-up: %w", err)
	}
	win.setup = time.Since(start)

	runtime.GC() // every window starts from a collected heap
	outcomes := make(map[string]histSnap)
	for _, o := range outcomeNames {
		var sets []obs.Labels
		for _, p := range m.proxies {
			sets = append(sets, obs.L("proxy", proxyLabel(p), "outcome", o))
		}
		outcomes[o] = m.openHists("summarycache_proxy_request_seconds", sets...)
	}
	stages := make(map[string]histSnap)
	if traced {
		for _, s := range stageNames {
			stages[s] = m.openHists("summarycache_perf_stage_seconds", obs.L("stage", s))
		}
	}
	before, err := m.snapshot()
	if err != nil {
		return win, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs, cpu := ms.Mallocs, cpuTime()

	win.load = drive(m, srcs, d, traced)

	win.cpu = cpuTime() - cpu
	runtime.ReadMemStats(&ms)
	win.mallocs = ms.Mallocs - mallocs
	after, err := m.snapshot()
	if err != nil {
		return win, err
	}
	win.d = after.sub(before)
	win.outcomes = make(map[string]histDelta)
	for o, s := range outcomes {
		win.outcomes[o] = s.close()
	}
	win.stages = make(map[string]histDelta)
	for name, s := range stages {
		win.stages[name] = s.close()
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	win.heapInuse = ms.HeapInuse

	if win.load.firstErr != nil {
		return win, fmt.Errorf("%d of %d requests failed, first: %w", win.load.failed, win.load.attempted, win.load.firstErr)
	}
	if int(win.d[cRequests]) != win.load.attempted {
		return win, fmt.Errorf("proxies served %d requests, workers sent %d", win.d[cRequests], win.load.attempted)
	}
	return win, w.check(m, win.d)
}

// reqPerSec is the median rate over the window's full slices, which a
// stall in one slice does not move; a window shorter than a slice falls
// back to requests over wall time.
func (l windowLoad) reqPerSec() float64 {
	if len(l.perSlice) == 0 {
		return float64(l.attempted) / l.wall.Seconds()
	}
	rates := make([]float64, len(l.perSlice))
	for i, n := range l.perSlice {
		rates[i] = float64(n) / sliceDur.Seconds()
	}
	return median(rates)
}

func (l windowLoad) sortedLatNS() []int64 {
	sort.Slice(l.latNS, func(i, j int) bool { return l.latNS[i] < l.latNS[j] })
	return l.latNS
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentileUS reads the p-th percentile of sorted latencies, in µs.
func percentileUS(sorted []int64, p float64) float64 {
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i]) / 1e3
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// runEndToEnd is the untraced pass: the metrics a user of the mesh sees.
func runEndToEnd(w *workload, seconds float64) result {
	res := result{Correct: true, Metrics: metrics{}}
	per := map[string][]float64{}
	var total counts
	for round := 0; round < rounds; round++ {
		win, err := measure(w, round, time.Duration(seconds/rounds*float64(time.Second)), false)
		res.Attempted += win.load.attempted
		res.Failed += win.load.failed
		if err != nil {
			res.invalid("%s round %d: %v", w.name, round, err)
			if win.load.attempted == 0 {
				continue
			}
		}
		for i := range total {
			total[i] += win.d[i]
		}
		n := float64(win.load.attempted)
		lat := win.load.sortedLatNS()
		per["req_per_s"] = append(per["req_per_s"], win.load.reqPerSec())
		per["lat_p50_us"] = append(per["lat_p50_us"], percentileUS(lat, 50))
		per["lat_p95_us"] = append(per["lat_p95_us"], percentileUS(lat, 95))
		per["cpu_us_per_req"] = append(per["cpu_us_per_req"], float64(win.cpu.Microseconds())/n)
		per["allocs_per_req"] = append(per["allocs_per_req"], float64(win.mallocs)/n)
		per["heap_inuse_mb"] = append(per["heap_inuse_mb"], float64(win.heapInuse)/(1<<20))
		per["setup_s"] = append(per["setup_s"], win.setup.Seconds())
	}
	for _, spec := range endToEnd {
		vals := per[spec.name]
		if len(vals) == 0 {
			res.invalid("%s: no round produced %s", w.name, spec.name)
			continue
		}
		mid := median(vals)
		res.Metrics[spec.name] = metric{Value: mid, Unit: spec.unit, Spread: (slices.Max(vals) - slices.Min(vals)) / mid}
	}
	if res.Attempted == 0 {
		res.Attempted = 1 // the driver's floor; Correct is already false
	}
	checkChe(w, total, &res)
	return res
}

// endToEnd names the gated metrics in report order; BENCHMARK.json holds
// their directions and bounds.
var endToEnd = []struct{ name, unit string }{
	{"req_per_s", "1/s"}, {"lat_p50_us", "us"}, {"lat_p95_us", "us"},
	{"cpu_us_per_req", "us"}, {"allocs_per_req", "count"}, {"heap_inuse_mb", "MB"},
	{"setup_s", "s"},
}

// checkChe holds the measured local hit ratio against the model's.
func checkChe(w *workload, d counts, res *result) float64 {
	err := math.Abs(ratio(d[cLocalHits], d[cRequests]) - w.cheLocal)
	if err > cheTolerance {
		res.invalid("%s: local hit ratio %.4f is %.4f from the Che model's %.4f (tolerance %.2f)",
			w.name, ratio(d[cLocalHits], d[cRequests]), err, w.cheLocal, cheTolerance)
	}
	return err
}

// runLayers is the per-layer pass: an untraced window for the boundary
// counts, then a traced one for the program's own stage timings.
func runLayers(w *workload, seconds float64) result {
	res := result{Correct: true, Metrics: metrics{}}
	half := time.Duration(seconds / 2 * float64(time.Second))
	plain, err := measure(w, 0, half, false)
	if err != nil {
		res.invalid("%s untraced window: %v", w.name, err)
	}
	traced, err := measure(w, 1, half, true)
	if err != nil {
		res.invalid("%s traced window: %v", w.name, err)
	}
	res.Attempted = plain.load.attempted + traced.load.attempted
	res.Failed = plain.load.failed + traced.load.failed
	if plain.load.attempted == 0 || traced.load.attempted == 0 {
		res.invalid("%s: a window made no requests", w.name)
		res.Attempted = 1
		return res
	}
	boundary(plain, res.Metrics)
	res.Metrics.put("model.che_local_hit_ratio", w.cheLocal, "ratio")
	res.Metrics.put("model.che_abs_err", checkChe(w, plain.d, &res), "ratio")
	stageRows(traced, res.Metrics)
	res.Metrics.put("tracing.overhead_ratio", traced.load.reqPerSec()/plain.load.reqPerSec(), "ratio")
	if err := writeSpans(w.name, traced.load.spans); err != nil {
		res.invalid("%s: %v", w.name, err)
	}
	return res
}

// boundary turns a window's counter deltas into per-request rates at each
// layer's boundary.
func boundary(win window, out metrics) {
	d := win.d
	reqs := d[cRequests]
	perReq := func(name string, c counter) { out.put(name, ratio(d[c], reqs), "1/req") }

	// User-visible, but not gated: the 99th percentile sits on the knee
	// where garbage collection and kernel time slices begin to show, and
	// repeats no better than to a fifth; the three ratios are exactly 0 on
	// some workload, where a relative bound means nothing.
	out.put("lat_p99_us", percentileUS(win.load.sortedLatNS(), 99), "us")
	out.put("udp_msgs_per_req", ratio(d[cUDPSent], reqs), "1/req")
	out.put("hit_ratio", ratio(d[cLocalHits]+d[cRemoteHits], reqs), "ratio")
	out.put("error_ratio", ratio(uint64(win.load.failed), uint64(win.load.attempted)), "ratio")

	out.put("httpproxy.local_hit_ratio", ratio(d[cLocalHits], reqs), "ratio")
	out.put("httpproxy.remote_hit_ratio", ratio(d[cRemoteHits], reqs), "ratio")
	out.put("httpproxy.miss_ratio", ratio(d[cMisses], reqs), "ratio")
	out.put("httpproxy.false_hit_ratio", ratio(d[cFalseHits], reqs), "ratio")
	perReq("httpproxy.peer_fetch_per_req", cPeerFetches)
	perReq("httpproxy.origin_fetch_per_req", cOriginFetches)
	perReq("httpproxy.retries_per_req", cRetries)
	for _, o := range outcomeNames {
		out.put("httpproxy.outcome_p50_us."+o, win.outcomes[o].quantile(0.5)*1e6, "us")
	}

	out.put("core.nomination_precision", ratio(d[cNodeRemoteHits], d[cNodeRemoteHits]+d[cNodeFalseHits]), "ratio")
	perReq("core.updates_sent_per_req", cUpdatesSent)
	perReq("core.flips_per_req", cFlipsPublished)
	out.put("core.flips_coalesced_ratio", ratio(d[cFlipsCoalesced], d[cFlipsCoalesced]+d[cFlipsPublished]), "ratio")
	out.put("core.filter_rebuilds", float64(d[cFilterRebuilds]), "count")

	perReq("icp.queries_per_req", cQueriesSent)
	out.put("icp.bytes_per_req", ratio(d[cUDPSentBytes], reqs), "B/req")
	out.put("icp.dropped", float64(d[cUDPDropped]), "count")
	out.put("icp.send_errors", float64(d[cUDPSendErrors]), "count")

	perReq("lru.evictions_per_req", cEvictions)
	perReq("lru.lock_contentions_per_req", cLockContentions)

	perReq("persist.journal_records_per_req", cJournalRecords)
	perReq("persist.fsyncs_per_req", cJournalFsyncs)
	out.put("persist.journal_errors", float64(d[cJournalErrors]), "count")
}

// stageRows reports the program's stage histograms over a traced window,
// and the two rows that close the ledger: what the proxy's request span
// does not attribute to a leaf stage, and what the client sees beyond the
// proxy's request span.
func stageRows(win window, out metrics) {
	reqs := float64(win.load.attempted)
	usPerReq := func(stage string) float64 { return win.stages[stage].sum * 1e6 / reqs }
	for _, s := range stageNames {
		out.put("perfwatch."+s+"_us_per_req", usPerReq(s), "us")
		out.put("perfwatch."+s+"_p50_us", win.stages[s].quantile(0.5)*1e6, "us")
	}
	residual := usPerReq(perfwatch.StageRequest)
	for _, s := range leafStages {
		residual -= usPerReq(s)
	}
	out.put("perfwatch.proxy_residual_us", residual, "us")
	var clientNS int64
	for _, ns := range win.load.latNS {
		clientNS += ns
	}
	out.put("harness.client_residual_us", float64(clientNS)/1e3/reqs-usPerReq(perfwatch.StageRequest), "us")
}

// writeSpans writes the harness's client.request spans of a traced window,
// one JSON object per line.
func writeSpans(workload string, spans []clientSpan) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(outDir, "spans-"+workload+".jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(struct {
			Name string `json:"name"`
			clientSpan
		}{"client.request", s}); err != nil {
			_ = f.Close() // the encode error is the one to report
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}
