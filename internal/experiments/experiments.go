// Package experiments reproduces the paper's trace-driven evaluation: each
// exported function regenerates the data behind one figure or table
// (Fig. 1, Fig. 2, Figs. 5–8, Tables I and III, and the §V-F scalability
// extrapolation), returning structured rows that cmd/simulate renders and
// internal/paperbench replays as benchmarks. EXPERIMENTS.md records the measured
// outputs next to the paper's published values.
package experiments

import (
	"fmt"

	"summarycache/internal/sim"
	"summarycache/internal/trace"
	"summarycache/internal/tracegen"
)

// TraceSet is a loaded workload plus the derived parameters the paper's
// simulations use (group count, per-proxy cache size base, average document
// size for Bloom sizing).
type TraceSet struct {
	Name        string
	Requests    []trace.Request
	Stats       trace.Stats
	Groups      int
	AvgDocBytes int64
}

// CacheBytesPerProxy returns the per-proxy cache size for a fraction of the
// trace's infinite cache size (the paper simulates 0.5%–20%; headline
// results use 10%).
func (ts TraceSet) CacheBytesPerProxy(frac float64) int64 {
	per := int64(float64(ts.Stats.InfiniteCacheSize) * frac / float64(ts.Groups))
	if per < 1 {
		per = 1
	}
	return per
}

// Load synthesizes one preset trace at the given scale and derives its
// parameters.
func Load(p tracegen.Preset, scale float64) (TraceSet, error) {
	reqs, cfg, err := tracegen.GeneratePreset(p, scale)
	if err != nil {
		return TraceSet{}, err
	}
	st := trace.ComputeStats(string(p), reqs)
	// Size Bloom filters by the average *cacheable* document: the cache —
	// and hence the summary — never holds the >250 KB tail, so including
	// it would undersize the filter and inflate false hits.
	avg := st.AvgCacheableDocBytes()
	return TraceSet{
		Name:        string(p),
		Requests:    reqs,
		Stats:       st,
		Groups:      cfg.Groups,
		AvgDocBytes: avg,
	}, nil
}

// LoadAll synthesizes the five paper traces at the given scale.
func LoadAll(scale float64) ([]TraceSet, error) {
	var out []TraceSet
	for _, p := range tracegen.Presets() {
		ts, err := Load(p, scale)
		if err != nil {
			return nil, err
		}
		out = append(out, ts)
	}
	return out, nil
}

// TableI returns the Table I statistics row for a trace.
func TableI(ts TraceSet) trace.Stats { return ts.Stats }

// Fig1Row is one point of Figure 1: a scheme's total hit ratio at a cache
// size fraction.
type Fig1Row struct {
	Trace     string
	CacheFrac float64
	Scheme    sim.Scheme
	HitRatio  float64
	ByteHit   float64 // not plotted in Fig. 1 but reported as "similar"
}

// Fig1Schemes is the scheme set of Figure 1.
var Fig1Schemes = []sim.Scheme{
	sim.NoSharing, sim.SimpleSharing, sim.SingleCopySharing,
	sim.GlobalCache, sim.GlobalCacheShrunk,
}

// Fig1CacheFracs is the cache-size sweep of Figure 1.
var Fig1CacheFracs = []float64{0.005, 0.05, 0.10, 0.20}

// Fig1 reproduces Figure 1 for one trace: hit ratios under the five
// cooperation schemes across cache-size fractions, with oracle discovery
// (the figure isolates scheme benefit, not protocol overhead).
func Fig1(ts TraceSet, fracs []float64) ([]Fig1Row, error) {
	if fracs == nil {
		fracs = Fig1CacheFracs
	}
	var rows []Fig1Row
	for _, frac := range fracs {
		for _, sch := range Fig1Schemes {
			r, err := sim.Run(sim.Config{
				NumProxies: ts.Groups,
				CacheBytes: ts.CacheBytesPerProxy(frac),
				Scheme:     sch,
				Summary:    sim.SummaryConfig{Kind: sim.Oracle, AvgDocBytes: ts.AvgDocBytes},
			}, ts.Requests)
			if err != nil {
				return nil, fmt.Errorf("fig1 %s %v: %w", ts.Name, sch, err)
			}
			rows = append(rows, Fig1Row{
				Trace: ts.Name, CacheFrac: frac, Scheme: sch,
				HitRatio: r.HitRatio(),
				ByteHit:  r.ByteHitRatio(),
			})
		}
	}
	return rows, nil
}

// Fig2Row is one point of Figure 2: the effect of delaying summary updates.
type Fig2Row struct {
	Trace         string
	Threshold     float64
	HitRatio      float64
	FalseMissRate float64 // per request: fresh remote copies the stale summary hid
	FalseHitRate  float64
	StaleHitRate  float64
}

// Fig2Thresholds is the update-delay sweep of Figure 2.
var Fig2Thresholds = []float64{0, 0.001, 0.01, 0.02, 0.05, 0.10}

// Fig2 reproduces Figure 2 for one trace: total hit ratio, false-hit and
// remote-stale-hit ratios versus the update threshold, using the
// exact-directory summary (the figure isolates delay, not representation).
func Fig2(ts TraceSet, thresholds []float64) ([]Fig2Row, error) {
	if thresholds == nil {
		thresholds = Fig2Thresholds
	}
	var rows []Fig2Row
	for _, th := range thresholds {
		r, err := sim.Run(sim.Config{
			NumProxies: ts.Groups,
			CacheBytes: ts.CacheBytesPerProxy(0.10),
			Scheme:     sim.SimpleSharing,
			Summary: sim.SummaryConfig{
				Kind: sim.ExactDirectory, UpdateThreshold: th,
				AvgDocBytes: ts.AvgDocBytes,
			},
		}, ts.Requests)
		if err != nil {
			return nil, fmt.Errorf("fig2 %s th=%v: %w", ts.Name, th, err)
		}
		rows = append(rows, Fig2Row{
			Trace: ts.Name, Threshold: th,
			HitRatio:      r.HitRatio(),
			FalseMissRate: float64(r.FalseMisses) / float64(r.Requests),
			FalseHitRate:  r.FalseHitRatio(),
			StaleHitRate:  r.StaleHitRatio(),
		})
	}
	return rows, nil
}

// SummaryRow is one row of the summary-representation comparison that
// underlies Figures 5–8 and Table III.
type SummaryRow struct {
	Trace       string
	Kind        sim.SummaryKind
	LoadFactor  float64 // Bloom only
	HitRatio    float64 // Fig. 5
	FalseHit    float64 // Fig. 6
	MsgsPerReq  float64 // Fig. 7
	BytesPerReq float64 // Fig. 8
	MemoryPct   float64 // Table III: summary table as % of cache size
	Result      sim.Result
}

// Label renders the representation name as the paper's figures do.
func (r SummaryRow) Label() string {
	if r.Kind == sim.Bloom {
		return fmt.Sprintf("bloom_%g", r.LoadFactor)
	}
	return r.Kind.String()
}

// SummaryVariant names one summary configuration to compare.
type SummaryVariant struct {
	Kind       sim.SummaryKind
	LoadFactor float64
}

// PaperSummaryVariants is the comparison set of Figures 5–8: ICP,
// exact-directory, server-name, and Bloom filters at load factors 8/16/32.
var PaperSummaryVariants = []SummaryVariant{
	{Kind: sim.ICP},
	{Kind: sim.ExactDirectory},
	{Kind: sim.ServerName},
	{Kind: sim.Bloom, LoadFactor: 8},
	{Kind: sim.Bloom, LoadFactor: 16},
	{Kind: sim.Bloom, LoadFactor: 32},
}

// SummaryComparison reproduces Figures 5–8 and Table III for one trace:
// each summary representation at a 1% update threshold, cache = 10% of
// infinite, reporting hit ratio, false hits, messages, bytes, and memory.
func SummaryComparison(ts TraceSet, variants []SummaryVariant) ([]SummaryRow, error) {
	if variants == nil {
		variants = PaperSummaryVariants
	}
	var rows []SummaryRow
	for _, v := range variants {
		r, err := sim.Run(sim.Config{
			NumProxies: ts.Groups,
			CacheBytes: ts.CacheBytesPerProxy(0.10),
			Scheme:     sim.SimpleSharing,
			Summary: sim.SummaryConfig{
				Kind:            v.Kind,
				UpdateThreshold: 0.01,
				LoadFactor:      v.LoadFactor,
				AvgDocBytes:     ts.AvgDocBytes,
			},
		}, ts.Requests)
		if err != nil {
			return nil, fmt.Errorf("summary %s %v: %w", ts.Name, v.Kind, err)
		}
		rows = append(rows, SummaryRow{
			Trace: ts.Name, Kind: v.Kind, LoadFactor: v.LoadFactor,
			HitRatio:    r.HitRatio(),
			FalseHit:    r.FalseHitRatio(),
			MsgsPerReq:  r.MessagesPerRequest(),
			BytesPerReq: r.BytesPerRequest(),
			MemoryPct:   100 * r.SummaryMemoryRatio(),
			Result:      r,
		})
	}
	return rows, nil
}

// ScaleRow is one point of the §V-F scalability study: protocol overhead
// versus mesh size under Bloom summaries.
type ScaleRow struct {
	Proxies        int
	HitRatio       float64
	MsgsPerReq     float64
	BytesPerReq    float64
	SummaryTableMB float64 // memory to hold all peers' summaries
	ICPMsgsPerReq  float64 // the quadratic baseline at the same size
}

// Scalability sweeps the proxy count on a synthetic shared workload,
// reporting the per-request message overhead of Bloom summary cache versus
// ICP — the back-of-the-envelope the paper validates "with larger number
// of proxies".
func Scalability(proxyCounts []int, requestsPerProxy int) ([]ScaleRow, error) {
	if proxyCounts == nil {
		proxyCounts = []int{4, 8, 16, 32, 64}
	}
	var rows []ScaleRow
	for _, n := range proxyCounts {
		cfg := tracegen.Config{
			Name: fmt.Sprintf("scale-%d", n), Seed: 500 + int64(n),
			Requests: requestsPerProxy * n, Clients: 32 * n, Groups: n,
			Docs: 4000 * n, ZipfAlpha: 0.8,
			SharedFraction: 0.7, LocalityProb: 0.4, ModifyRate: 0.005,
		}
		reqs, err := tracegen.Generate(cfg)
		if err != nil {
			return nil, err
		}
		st := trace.ComputeStats(cfg.Name, reqs)
		per := int64(float64(st.InfiniteCacheSize) * 0.10 / float64(n))
		avg := st.AvgCacheableDocBytes()
		run := func(kind sim.SummaryKind) (sim.Result, error) {
			return sim.Run(sim.Config{
				NumProxies: n, CacheBytes: per, Scheme: sim.SimpleSharing,
				Summary: sim.SummaryConfig{
					Kind: kind, UpdateThreshold: 0.01, LoadFactor: 16,
					AvgDocBytes: avg,
					// The prototype's fill-an-IP-packet batching; without
					// it, scaled-down caches make the (N−1)-fan-out update
					// traffic grow linearly and mask the flat-vs-linear
					// contrast §V-F predicts.
					MinUpdateDocs: 90,
				},
			}, reqs)
		}
		b, err := run(sim.Bloom)
		if err != nil {
			return nil, err
		}
		i, err := run(sim.ICP)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ScaleRow{
			Proxies:        n,
			HitRatio:       b.HitRatio(),
			MsgsPerReq:     b.MessagesPerRequest(),
			BytesPerReq:    b.BytesPerRequest(),
			SummaryTableMB: float64(b.SummaryMemoryBytes*uint64(n-1)) / (1 << 20),
			ICPMsgsPerReq:  i.MessagesPerRequest(),
		})
	}
	return rows, nil
}

// AmortRow is one point of the update-amortization ablation: how the
// total message overhead falls as update batches grow toward the paper's
// regime (million-entry caches where a 1% threshold batches thousands of
// documents per update).
type AmortRow struct {
	Trace         string
	MinUpdateDocs int
	HitRatio      float64
	MsgsPerReq    float64
	BytesPerReq   float64
	ICPFactor     float64 // ICP messages per request / this row's
}

// UpdateAmortization sweeps the update batch size for Bloom summaries
// (load factor 16, 1% threshold) on one trace, against the ICP baseline.
// MinUpdateDocs = 1 is the pure threshold rule at simulation scale; ≈90 is
// the prototype's fill-an-IP-packet rule; larger batches approximate the
// paper's big-cache regime. The paper's 25–60× total message reduction
// (Fig. 7) emerges as batches amortize the N−1 update fan-out.
func UpdateAmortization(ts TraceSet, batches []int) ([]AmortRow, error) {
	if batches == nil {
		batches = []int{1, 10, 30, 90, 300}
	}
	base := sim.Config{
		NumProxies: ts.Groups,
		CacheBytes: ts.CacheBytesPerProxy(0.10),
		Scheme:     sim.SimpleSharing,
	}
	icpCfg := base
	icpCfg.Summary = sim.SummaryConfig{Kind: sim.ICP, AvgDocBytes: ts.AvgDocBytes}
	icp, err := sim.Run(icpCfg, ts.Requests)
	if err != nil {
		return nil, err
	}
	var rows []AmortRow
	for _, b := range batches {
		cfg := base
		cfg.Summary = sim.SummaryConfig{
			Kind: sim.Bloom, UpdateThreshold: 0.01, LoadFactor: 16,
			AvgDocBytes: ts.AvgDocBytes, MinUpdateDocs: b,
		}
		r, err := sim.Run(cfg, ts.Requests)
		if err != nil {
			return nil, err
		}
		row := AmortRow{
			Trace: ts.Name, MinUpdateDocs: b,
			HitRatio:    r.HitRatio(),
			MsgsPerReq:  r.MessagesPerRequest(),
			BytesPerReq: r.BytesPerRequest(),
		}
		if row.MsgsPerReq > 0 {
			row.ICPFactor = icp.MessagesPerRequest() / row.MsgsPerReq
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// HierarchyRow compares a flat sibling mesh against the same mesh with a
// parent proxy above it (§VIII's hierarchical caching, which the paper
// names but does not simulate).
type HierarchyRow struct {
	Trace          string
	WithParent     bool
	HitRatio       float64 // local + sibling hits
	ParentHitRatio float64
	OriginMissRate float64 // requests that reached the origin
}

// Hierarchy runs the Bloom summary mesh with and without a parent whose
// cache equals the combined child capacity, reporting how much origin
// traffic the extra tier removes.
func Hierarchy(ts TraceSet) ([]HierarchyRow, error) {
	var rows []HierarchyRow
	for _, withParent := range []bool{false, true} {
		cfg := sim.Config{
			NumProxies: ts.Groups,
			CacheBytes: ts.CacheBytesPerProxy(0.10),
			Scheme:     sim.SimpleSharing,
			Summary: sim.SummaryConfig{
				Kind: sim.Bloom, UpdateThreshold: 0.01, LoadFactor: 16,
				AvgDocBytes: ts.AvgDocBytes,
			},
		}
		if withParent {
			cfg.ParentCacheBytes = cfg.CacheBytes * int64(ts.Groups)
		}
		r, err := sim.Run(cfg, ts.Requests)
		if err != nil {
			return nil, err
		}
		rows = append(rows, HierarchyRow{
			Trace: ts.Name, WithParent: withParent,
			HitRatio:       r.HitRatio(),
			ParentHitRatio: r.ParentHitRatio(),
			OriginMissRate: 1 - r.HitRatio() - r.ParentHitRatio(),
		})
	}
	return rows, nil
}

// LoadFromRequests builds a TraceSet from externally supplied requests
// (e.g. a real proxy log converted to the trace text format), deriving the
// same parameters Load does for synthetic presets.
func LoadFromRequests(name string, reqs []trace.Request, groups int) TraceSet {
	if groups <= 0 {
		groups = 1
	}
	st := trace.ComputeStats(name, reqs)
	return TraceSet{
		Name:        name,
		Requests:    reqs,
		Stats:       st,
		Groups:      groups,
		AvgDocBytes: st.AvgCacheableDocBytes(),
	}
}
