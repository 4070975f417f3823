// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each BenchmarkTableX/BenchmarkFigX runs the corresponding
// experiment and reports its headline quantities via b.ReportMetric, so
// `go test -bench=. -benchmem` reproduces the whole evaluation;
// EXPERIMENTS.md records one full run against the paper's published
// values. Workload scale is set by the SUMMARYCACHE_SCALE environment
// variable (default 0.25; 1.0 ≈ 200k requests for the largest trace).
package paperbench

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"summarycache/internal/bench"
	"summarycache/internal/bloom"
	"summarycache/internal/experiments"
	"summarycache/internal/httpproxy"
	"summarycache/internal/sim"
	"summarycache/internal/tracegen"
)

func benchScale() float64 {
	if v := os.Getenv("SUMMARYCACHE_SCALE"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
			return f
		}
	}
	return 0.25
}

var (
	traceOnce sync.Once
	traceSets []experiments.TraceSet
	traceErr  error
)

func loadTraces(b *testing.B) []experiments.TraceSet {
	b.Helper()
	traceOnce.Do(func() {
		traceSets, traceErr = experiments.LoadAll(benchScale())
	})
	if traceErr != nil {
		b.Fatal(traceErr)
	}
	return traceSets
}

func traceByName(b *testing.B, name string) experiments.TraceSet {
	b.Helper()
	for _, ts := range loadTraces(b) {
		if ts.Name == name {
			return ts
		}
	}
	b.Fatalf("trace %s not loaded", name)
	return experiments.TraceSet{}
}

// BenchmarkTableI regenerates Table I: per-trace statistics (requests,
// clients, infinite cache size, maximum hit ratios under infinite cache).
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sets := loadTraces(b)
		for _, ts := range sets {
			s := experiments.TableI(ts)
			if s.Requests == 0 {
				b.Fatal("empty trace")
			}
		}
	}
	for _, ts := range loadTraces(b) {
		s := experiments.TableI(ts)
		b.ReportMetric(100*s.MaxHitRatio, "maxHit%_"+ts.Name)
	}
}

// BenchmarkFig1 regenerates Figure 1: hit ratios of no-sharing / simple /
// single-copy / global(-10%) cooperative caching at cache sizes 0.5–20% of
// infinite, for every trace.
func BenchmarkFig1(b *testing.B) {
	sets := loadTraces(b)
	var rows []experiments.Fig1Row
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, ts := range sets {
			r, err := experiments.Fig1(ts, nil)
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, r...)
		}
	}
	// Headline metrics: the 10%-cache comparison on DEC.
	for _, r := range rows {
		if r.Trace == "DEC" && r.CacheFrac == 0.10 {
			b.ReportMetric(100*r.HitRatio, "hit%_"+r.Scheme.String())
		}
	}
}

// BenchmarkFig2 regenerates Figure 2: total hit ratio and error ratios
// versus the summary update threshold (0–10%), exact-directory summaries.
func BenchmarkFig2(b *testing.B) {
	sets := loadTraces(b)
	var last []experiments.Fig2Row
	for i := 0; i < b.N; i++ {
		for _, ts := range sets {
			rows, err := experiments.Fig2(ts, nil)
			if err != nil {
				b.Fatal(err)
			}
			if ts.Name == "DEC" {
				last = rows
			}
		}
	}
	for _, r := range last {
		b.ReportMetric(100*r.HitRatio, fmt.Sprintf("hit%%_th%g", 100*r.Threshold))
	}
}

// BenchmarkFig4 regenerates Figure 4: the Bloom filter false-positive
// probability versus bits per entry, at k=4 and at the optimal k,
// validated against the closed-form (0.6185)^(m/n) bound.
func BenchmarkFig4(b *testing.B) {
	const n = 1 << 20
	var p4, popt float64
	for i := 0; i < b.N; i++ {
		for _, lf := range []float64{2, 4, 6, 8, 10, 12, 16, 20, 24, 28, 32} {
			m := uint64(lf * n)
			p4 = bloom.FalsePositiveRate(m, n, 4)
			popt = bloom.MinFalsePositiveRate(m, n)
			if popt > p4+1e-15 {
				b.Fatal("optimal k beaten by k=4")
			}
		}
	}
	b.ReportMetric(100*bloom.FalsePositiveRateApprox(10*n, n, 4), "fp%_lf10_k4")
	b.ReportMetric(100*bloom.FalsePositiveRateApprox(10*n, n, 5), "fp%_lf10_k5")
	_ = p4
}

// summaryRowsFor runs the Figs. 5–8 / Table III comparison once per trace
// and caches it for the per-figure benchmarks.
var (
	sumOnce sync.Once
	sumRows map[string][]experiments.SummaryRow
	sumErr  error
)

func summaryRows(b *testing.B) map[string][]experiments.SummaryRow {
	b.Helper()
	sets := loadTraces(b)
	sumOnce.Do(func() {
		sumRows = make(map[string][]experiments.SummaryRow)
		for _, ts := range sets {
			rows, err := experiments.SummaryComparison(ts, nil)
			if err != nil {
				sumErr = err
				return
			}
			sumRows[ts.Name] = rows
		}
	})
	if sumErr != nil {
		b.Fatal(sumErr)
	}
	return sumRows
}

func reportSummaryMetric(b *testing.B, trace string, metric func(experiments.SummaryRow) float64) {
	for _, r := range summaryRows(b)[trace] {
		b.ReportMetric(metric(r), r.Label())
	}
}

// BenchmarkFig5 regenerates Figure 5: total hit ratio under each summary
// representation (ICP, exact-directory, server-name, Bloom 8/16/32).
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		summaryRows(b)
	}
	reportSummaryMetric(b, "DEC", func(r experiments.SummaryRow) float64 { return 100 * r.HitRatio })
}

// BenchmarkFig6 regenerates Figure 6: false-hit ratio (per request, across
// all peers) under each summary representation.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		summaryRows(b)
	}
	reportSummaryMetric(b, "DEC", func(r experiments.SummaryRow) float64 { return 100 * r.FalseHit })
}

// BenchmarkFig7 regenerates Figure 7: inter-proxy protocol messages per
// user request under each summary representation versus ICP.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		summaryRows(b)
	}
	reportSummaryMetric(b, "DEC", func(r experiments.SummaryRow) float64 { return r.MsgsPerReq })
}

// BenchmarkFig8 regenerates Figure 8: inter-proxy protocol bytes per user
// request under the paper's message-size model.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		summaryRows(b)
	}
	reportSummaryMetric(b, "DEC", func(r experiments.SummaryRow) float64 { return r.BytesPerReq })
}

// BenchmarkTableIII regenerates Table III: summary memory as a percentage
// of the proxy cache size for each representation.
func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		summaryRows(b)
	}
	reportSummaryMetric(b, "DEC", func(r experiments.SummaryRow) float64 { return r.MemoryPct })
}

// BenchmarkAmortization is the update-batching ablation behind the Fig. 7
// discussion: the total message factor versus ICP as update batches grow
// from per-document (tiny-cache regime) to the prototype's packet-fill
// rule and beyond, toward the paper's big-cache regime.
func BenchmarkAmortization(b *testing.B) {
	ts := traceByName(b, "DEC")
	var rows []experiments.AmortRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.UpdateAmortization(ts, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.ICPFactor, fmt.Sprintf("xICP_batch%d", r.MinUpdateDocs))
	}
}

// BenchmarkScalability regenerates the §V-F extrapolation: protocol
// messages per request and summary-table memory as the mesh grows, Bloom
// summary cache versus quadratic ICP.
func BenchmarkScalability(b *testing.B) {
	var rows []experiments.ScaleRow
	var err error
	counts := []int{4, 8, 16}
	reqs := 3000
	if benchScale() >= 1 {
		counts = []int{4, 8, 16, 32, 64}
		reqs = 4000
	}
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Scalability(counts, reqs)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.MsgsPerReq, fmt.Sprintf("sc_msgs/req_n%d", r.Proxies))
		b.ReportMetric(r.ICPMsgsPerReq, fmt.Sprintf("icp_msgs/req_n%d", r.Proxies))
	}
}

// --- networked prototype benchmarks (Tables II, IV, V) ---

// benchLatency is the origin delay for networked benchmarks (the paper
// uses 1 s; loopback runs scale it down and compare ratios).
const benchLatency = 5 * time.Millisecond

func syntheticConfig(mode httpproxy.Mode, hitRatio float64) bench.SyntheticConfig {
	return bench.SyntheticConfig{
		Mode:              mode,
		Proxies:           4,
		ClientsPerProxy:   8,
		RequestsPerClient: 50,
		InherentHitRatio:  hitRatio,
		OriginLatency:     benchLatency,
		CacheBytes:        32 << 20,
		Seed:              42,
	}
}

// BenchmarkTableII regenerates Table II: the no-ICP / ICP / SC-ICP
// comparison on the synthetic benchmark with no inter-proxy hits (ICP's
// worst case), at a 25% inherent hit ratio. Metrics: hit ratio, mean
// client latency (ms), and total UDP datagrams per mode.
func BenchmarkTableII(b *testing.B) {
	modes := []httpproxy.Mode{httpproxy.ModeNone, httpproxy.ModeICP, httpproxy.ModeSCICP}
	results := map[httpproxy.Mode]bench.Result{}
	for i := 0; i < b.N; i++ {
		for _, m := range modes {
			r, err := bench.RunSynthetic(syntheticConfig(m, 0.25))
			if err != nil {
				b.Fatal(err)
			}
			results[m] = r
		}
	}
	for _, m := range modes {
		r := results[m]
		b.ReportMetric(100*r.HitRatio, "hit%_"+m.String())
		b.ReportMetric(float64(r.MeanLatency.Microseconds())/1000, "lat_ms_"+m.String())
		b.ReportMetric(float64(r.UDPSent+r.UDPReceived), "udp_"+m.String())
	}
}

func replayBench(b *testing.B, a bench.Assignment) {
	reqs, _, err := tracegen.GeneratePreset(tracegen.UPisa, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	if len(reqs) > 3000 {
		reqs = reqs[:3000]
	}
	modes := []httpproxy.Mode{httpproxy.ModeNone, httpproxy.ModeICP, httpproxy.ModeSCICP}
	results := map[httpproxy.Mode]bench.Result{}
	for i := 0; i < b.N; i++ {
		for _, m := range modes {
			r, err := bench.RunReplay(bench.ReplayConfig{
				Mode: m, Proxies: 4, Workers: 20, Assignment: a,
				Trace: reqs, OriginLatency: benchLatency,
				CacheBytes: 16 << 20, MinUpdateFlips: 40,
			})
			if err != nil {
				b.Fatal(err)
			}
			results[m] = r
		}
	}
	for _, m := range modes {
		r := results[m]
		b.ReportMetric(100*r.HitRatio, "hit%_"+m.String())
		b.ReportMetric(float64(r.MeanLatency.Microseconds())/1000, "lat_ms_"+m.String())
		b.ReportMetric(float64(r.UDPSent+r.UDPReceived), "udp_"+m.String())
	}
}

// BenchmarkTableIV regenerates Table IV: the UPisa trace replay in the
// paper's experiment 3 (client-bound assignment), no-ICP vs ICP vs SC-ICP.
func BenchmarkTableIV(b *testing.B) { replayBench(b, bench.ClientBound) }

// BenchmarkTableV regenerates Table V: the UPisa trace replay in the
// paper's experiment 4 (round-robin assignment).
func BenchmarkTableV(b *testing.B) { replayBench(b, bench.RoundRobin) }

// BenchmarkSimThroughput measures raw simulator speed (requests simulated
// per second), the practical limit on experiment scale.
func BenchmarkSimThroughput(b *testing.B) {
	ts := traceByName(b, "UPisa")
	cfg := sim.Config{
		NumProxies: ts.Groups,
		CacheBytes: ts.CacheBytesPerProxy(0.10),
		Scheme:     sim.SimpleSharing,
		Summary: sim.SummaryConfig{
			Kind: sim.Bloom, UpdateThreshold: 0.01, LoadFactor: 16,
			AvgDocBytes: ts.AvgDocBytes,
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(cfg, ts.Requests); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(ts.Requests)*b.N)/b.Elapsed().Seconds(), "reqs/s")
}

// BenchmarkHierarchy runs the parent/child extension (§VIII) on DEC:
// sibling mesh alone versus mesh + parent, reporting the origin-traffic
// reduction the extra tier buys.
func BenchmarkHierarchy(b *testing.B) {
	ts := traceByName(b, "DEC")
	var rows []experiments.HierarchyRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Hierarchy(ts)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		label := "flat"
		if r.WithParent {
			label = "parent"
		}
		b.ReportMetric(100*(r.HitRatio+r.ParentHitRatio), "served%_"+label)
	}
}

// BenchmarkDigestVsDelta runs the §VI transfer-strategy ablation on DEC,
// reporting update bytes per request for bit-flip deltas versus whole
// arrays at the threshold extremes.
func BenchmarkDigestVsDelta(b *testing.B) {
	ts := traceByName(b, "DEC")
	var rows []experiments.DigestRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.DigestVsDelta(ts, []float64{0.01, 0.10, 0.50})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.DeltaBytesReq, fmt.Sprintf("delta_B/req_th%g", 100*r.Threshold))
		b.ReportMetric(r.DigestBytesReq, fmt.Sprintf("digest_B/req_th%g", 100*r.Threshold))
	}
}

// BenchmarkLoadFactorSweep traces the memory↔false-hit knee on DEC.
func BenchmarkLoadFactorSweep(b *testing.B) {
	ts := traceByName(b, "DEC")
	var rows []experiments.LoadFactorRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.LoadFactorSweep(ts, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(100*r.FalseHit, fmt.Sprintf("falseHit%%_lf%g", r.LoadFactor))
	}
}
