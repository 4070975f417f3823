package experiments

import (
	"summarycache/internal/bloom"
	"summarycache/internal/hashing"
	"summarycache/internal/sim"
)

// This file holds the ablation studies behind the paper's design choices
// (DESIGN.md §3's ablation list): delta vs whole-array updates (§VI), the
// number of hash functions (§V-C/V-D), counting-filter counter width
// (§V-C), and the Bloom load factor beyond the paper's {8,16,32}.

// DigestRow compares delta updates against whole-bit-array updates (the
// Squid "cache digest" variant) at one update threshold.
type DigestRow struct {
	Trace          string
	Threshold      float64
	DeltaBytesReq  float64 // bytes/request, bit-flip deltas
	DigestBytesReq float64 // bytes/request, whole array per update
	HitRatio       float64 // identical filters → identical hit ratios
}

// DigestVsDelta sweeps the update threshold and reports the per-request
// update bytes under each transfer strategy. The paper: "The design of our
// protocol is geared toward small delay thresholds... If the delay
// threshold is large, then it is more economical to send the entire bit
// array." The crossover appears where the accumulated flips exceed
// m/8 bytes ÷ 4 bytes-per-flip.
func DigestVsDelta(ts TraceSet, thresholds []float64) ([]DigestRow, error) {
	if thresholds == nil {
		thresholds = []float64{0.01, 0.05, 0.10, 0.25, 0.50}
	}
	var rows []DigestRow
	for _, th := range thresholds {
		base := sim.Config{
			NumProxies: ts.Groups,
			CacheBytes: ts.CacheBytesPerProxy(0.10),
			Scheme:     sim.SimpleSharing,
		}
		run := func(kind sim.SummaryKind) (sim.Result, error) {
			cfg := base
			cfg.Summary = sim.SummaryConfig{
				Kind: kind, AvgDocBytes: ts.AvgDocBytes,
				Directory: bloom.DirectoryConfig{UpdateThreshold: th},
			}
			return sim.Run(cfg, ts.Requests)
		}
		delta, err := run(sim.Bloom)
		if err != nil {
			return nil, err
		}
		digest, err := run(sim.BloomDigest)
		if err != nil {
			return nil, err
		}
		rows = append(rows, DigestRow{
			Trace: ts.Name, Threshold: th,
			DeltaBytesReq:  float64(delta.UpdateBytes) / float64(delta.Requests),
			DigestBytesReq: float64(digest.UpdateBytes) / float64(digest.Requests),
			HitRatio:       delta.HitRatio(),
		})
	}
	return rows, nil
}

// HashKRow is one point of the hash-function-count ablation.
type HashKRow struct {
	Trace      string
	K          int
	Optimal    bool // K equals the analytic optimum for this load factor
	FalseHit   float64
	HitRatio   float64
	AnalyticFP float64 // per-filter false-positive prediction
}

// HashKSweep varies the number of hash functions at load factor 16. The
// paper uses 4 everywhere ("not the optimal choice for each configuration,
// but suffices") and notes the optimum is ln2·(m/n) ≈ 11 at lf 16; more
// functions cost more hashing per probe, fewer raise false hits.
func HashKSweep(ts TraceSet, ks []int) ([]HashKRow, error) {
	const lf = 16
	entries := uint64(ts.CacheBytesPerProxy(0.10) / ts.AvgDocBytes)
	if entries == 0 {
		entries = 1
	}
	mBits := bloom.SizeForLoadFactor(entries, lf)
	kOpt := bloom.OptimalK(mBits, entries)
	if ks == nil {
		ks = []int{2, 4, 6, 8, kOpt}
	}
	var rows []HashKRow
	for _, k := range ks {
		r, err := sim.Run(sim.Config{
			NumProxies: ts.Groups,
			CacheBytes: ts.CacheBytesPerProxy(0.10),
			Scheme:     sim.SimpleSharing,
			Summary: sim.SummaryConfig{
				Kind: sim.Bloom, AvgDocBytes: ts.AvgDocBytes,
				Directory: bloom.DirectoryConfig{
					UpdateThreshold: 0.01, LoadFactor: lf,
					HashSpec: hashing.Spec{FunctionNum: k, FunctionBits: 32},
				},
			},
		}, ts.Requests)
		if err != nil {
			return nil, err
		}
		rows = append(rows, HashKRow{
			Trace: ts.Name, K: k, Optimal: k == kOpt,
			FalseHit:   r.FalseHitRatio(),
			HitRatio:   r.HitRatio(),
			AnalyticFP: bloom.FalsePositiveRate(mBits, entries, k),
		})
	}
	return rows, nil
}

// CounterRow is one point of the counter-width ablation.
type CounterRow struct {
	Trace       string
	CounterBits uint
	Saturations uint64 // increments that found a saturated counter
	FalseHit    float64
	HitRatio    float64
	MemoryBytes uint64 // counter array per proxy
}

// CounterWidthSweep varies the counting-filter width. §V-C argues 4 bits
// suffice (overflow probability ~1e-11); narrower counters saturate, and
// because saturated counters are never decremented, stuck-at-one bits
// accumulate and inflate false hits — never false negatives.
func CounterWidthSweep(ts TraceSet, widths []uint) ([]CounterRow, error) {
	if widths == nil {
		widths = []uint{1, 2, 3, 4, 8}
	}
	var rows []CounterRow
	for _, w := range widths {
		r, err := sim.Run(sim.Config{
			NumProxies: ts.Groups,
			CacheBytes: ts.CacheBytesPerProxy(0.10),
			Scheme:     sim.SimpleSharing,
			Summary: sim.SummaryConfig{
				Kind: sim.Bloom, AvgDocBytes: ts.AvgDocBytes,
				Directory: bloom.DirectoryConfig{UpdateThreshold: 0.01, CounterBits: w},
			},
		}, ts.Requests)
		if err != nil {
			return nil, err
		}
		rows = append(rows, CounterRow{
			Trace: ts.Name, CounterBits: w,
			Saturations: r.CounterSaturations,
			FalseHit:    r.FalseHitRatio(),
			HitRatio:    r.HitRatio(),
			MemoryBytes: r.CounterMemoryBytes,
		})
	}
	return rows, nil
}

// LoadFactorRow is one point of the load-factor ablation.
type LoadFactorRow struct {
	Trace      string
	LoadFactor float64
	FalseHit   float64
	MsgsPerReq float64
	MemoryPct  float64
	HitRatio   float64
}

// LoadFactorSweep extends the paper's {8, 16, 32} comparison across a
// wider range, tracing the memory↔false-hit tradeoff curve of Figure 4 in
// the full system.
func LoadFactorSweep(ts TraceSet, lfs []float64) ([]LoadFactorRow, error) {
	if lfs == nil {
		lfs = []float64{2, 4, 8, 16, 32, 64}
	}
	var rows []LoadFactorRow
	for _, lf := range lfs {
		r, err := sim.Run(sim.Config{
			NumProxies: ts.Groups,
			CacheBytes: ts.CacheBytesPerProxy(0.10),
			Scheme:     sim.SimpleSharing,
			Summary: sim.SummaryConfig{
				Kind: sim.Bloom, AvgDocBytes: ts.AvgDocBytes,
				Directory: bloom.DirectoryConfig{UpdateThreshold: 0.01, LoadFactor: lf},
			},
		}, ts.Requests)
		if err != nil {
			return nil, err
		}
		rows = append(rows, LoadFactorRow{
			Trace: ts.Name, LoadFactor: lf,
			FalseHit:   r.FalseHitRatio(),
			MsgsPerReq: r.MessagesPerRequest(),
			MemoryPct:  100 * r.SummaryMemoryRatio(),
			HitRatio:   r.HitRatio(),
		})
	}
	return rows, nil
}
