package bench

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"summarycache/internal/bloom"
	"summarycache/internal/hashing"
	"summarycache/internal/httpproxy"
	"summarycache/internal/lru"
)

// This file holds the hot-path microbenchmarks behind BENCH_PR3.json: the
// LRU and lock-free Bloom probes measured under concurrent load
// against the frozen single-lock baselines in baseline.go, plus an
// end-to-end SC-ICP mesh throughput figure. proxybench -experiment=micro
// runs them and emits the JSON.

// MicroConfig parameterizes RunMicro.
type MicroConfig struct {
	// Goroutines is the parallel worker count (0: GOMAXPROCS).
	Goroutines int
	// Duration bounds each timed scenario (0: 500ms).
	Duration time.Duration
	// Keys is the cache/filter working-set size (0: 8192).
	Keys int
	// MeshClients and MeshRequests size the end-to-end SC-ICP throughput
	// run (0: 8 clients per proxy × 400 timed requests each on a 4-proxy
	// mesh, after MeshWarmup requests per client off the clock).
	MeshClients, MeshRequests int
	// MeshWarmup is the per-client warmup request count for the mesh
	// scenario (0: 30; negative: no warmup). Warmup fills the caches,
	// establishes connections and completes the full-state summary pushes
	// before the measurement window opens, so the scenario reports
	// steady-state throughput rather than mesh cold-start amortization.
	MeshWarmup int
	// Sweeps overrides the full-sweep count (0: microSweeps). CI smoke
	// runs use 1 to halve wall time; committed BENCH files keep the
	// default for its decorrelation value.
	Sweeps int
	Seed   int64
}

func (c *MicroConfig) applyDefaults() {
	if c.Goroutines <= 0 {
		c.Goroutines = runtime.GOMAXPROCS(0)
	}
	if c.Duration <= 0 {
		c.Duration = 500 * time.Millisecond
	}
	if c.Keys <= 0 {
		c.Keys = 8192
	}
	if c.MeshClients <= 0 {
		c.MeshClients = 8
	}
	if c.MeshRequests <= 0 {
		c.MeshRequests = 400
	}
	if c.MeshWarmup == 0 {
		c.MeshWarmup = 30
	}
	if c.MeshWarmup < 0 {
		c.MeshWarmup = 0
	}
	if c.Sweeps <= 0 {
		c.Sweeps = microSweeps
	}
}

// MicroMeasurement is one implementation's numbers for one scenario.
type MicroMeasurement struct {
	Ops       uint64  `json:"ops"`
	OpsPerSec float64 `json:"ops_per_sec"`
	P99Micros float64 `json:"p99_us"`
}

// MicroScenario compares the PR's implementation against the frozen
// single-lock baseline for one workload. Baseline is nil for end-to-end
// scenarios that have no in-binary pre-PR counterpart.
type MicroScenario struct {
	Name       string            `json:"name"`
	Goroutines int               `json:"goroutines"`
	Current    MicroMeasurement  `json:"current"`
	Baseline   *MicroMeasurement `json:"baseline,omitempty"`
	// Speedup is Current.OpsPerSec / Baseline.OpsPerSec (0 when no
	// baseline exists).
	Speedup float64 `json:"speedup,omitempty"`
}

// MicroResult is the full BENCH_PR3.json payload.
type MicroResult struct {
	GOMAXPROCS int `json:"gomaxprocs"`
	// NumCPU is the hardware parallelism actually available; when it is
	// below GOMAXPROCS the parallel scenarios timeslice on shared cores
	// and understate the lock-free speedups (lock contention
	// largely vanishes on one core).
	NumCPU     int             `json:"num_cpu"`
	DurationMS int64           `json:"scenario_duration_ms"`
	Scenarios  []MicroScenario `json:"scenarios"`
}

// Scenario returns the named scenario, or nil.
func (r *MicroResult) Scenario(name string) *MicroScenario {
	for i := range r.Scenarios {
		if r.Scenarios[i].Name == name {
			return &r.Scenarios[i]
		}
	}
	return nil
}

// latSampleEvery controls how often an op's latency is individually timed;
// timing every ~100ns operation would measure the clock, not the cache.
const latSampleEvery = 64

// microTrials is the best-of-N trial count. A single timed draw of a
// ~100ns loop swings ±15% with scheduler and frequency noise, all of it
// downward-biased; taking the fastest of N runs is the standard defence
// and is what makes the benchdiff floor meaningful run to run.
const microTrials = 3

// microSweeps repeats the whole scenario list and keeps each scenario's
// best measurement across sweeps. Back-to-back trials share whatever
// multi-second throttling window the host is in; a second full sweep
// minutes later samples a different window, which is the only defence
// against noise that is correlated across one sweep.
const microSweeps = 2

// measure drives op from workers goroutines for d and aggregates
// throughput plus sampled p99 latency, keeping the fastest of
// microTrials runs. op receives the worker index and a per-worker op
// counter; it must be safe for concurrent use.
func measure(workers int, d time.Duration, op func(worker, i int)) MicroMeasurement {
	// Discarded warmup: the first pass over a fresh cache faults the maps
	// and lists into cache, trains branch predictors and lets the CPU
	// governor ramp, all of which otherwise land in trial 1 and make
	// best-of-N a race against the warmup tax instead of a noise filter.
	measureOnce(workers, d/4, op)
	best := measureOnce(workers, d, op)
	for t := 1; t < microTrials; t++ {
		if m := measureOnce(workers, d, op); m.OpsPerSec > best.OpsPerSec {
			best = m
		}
	}
	return best
}

func measureOnce(workers int, d time.Duration, op func(worker, i int)) MicroMeasurement {
	var stop atomic.Bool
	counts := make([]uint64, workers)
	samples := make([][]time.Duration, workers)
	var wg sync.WaitGroup
	//lint:ignore sclint/determinism wall-clock timing is what measure() exists to produce
	start := time.Now()
	timer := time.AfterFunc(d, func() { stop.Store(true) })
	defer timer.Stop()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var n uint64
			for i := 0; !stop.Load(); i++ {
				if i%latSampleEvery == 0 {
					//lint:ignore sclint/determinism sampled op latency is the measurement itself
					t0 := time.Now()
					op(w, i)
					//lint:ignore sclint/determinism sampled op latency is the measurement itself
					samples[w] = append(samples[w], time.Since(t0))
				} else {
					op(w, i)
				}
				n++
			}
			counts[w] = n
		}(w)
	}
	wg.Wait()
	//lint:ignore sclint/determinism wall-clock throughput is the benchmark's measured output
	wall := time.Since(start)

	var m MicroMeasurement
	var all []time.Duration
	for w := 0; w < workers; w++ {
		m.Ops += counts[w]
		all = append(all, samples[w]...)
	}
	m.OpsPerSec = float64(m.Ops) / wall.Seconds()
	if len(all) > 0 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		p := (len(all) * 99) / 100
		if p >= len(all) {
			p = len(all) - 1
		}
		m.P99Micros = float64(all[p]) / float64(time.Microsecond)
	}
	return m
}

func compare(name string, workers int, cur, base MicroMeasurement) MicroScenario {
	s := MicroScenario{Name: name, Goroutines: workers, Current: cur, Baseline: &base}
	if base.OpsPerSec > 0 {
		s.Speedup = cur.OpsPerSec / base.OpsPerSec
	}
	return s
}

// RunMicro executes the concurrent-load microbenchmarks and the mesh
// throughput run, merging each scenario's best measurement across
// microSweeps full sweeps (see the constant's comment for why best-of-N
// within a sweep is not enough).
func RunMicro(cfg MicroConfig) (MicroResult, error) {
	cfg.applyDefaults()
	res, err := runMicroSweep(cfg)
	if err != nil {
		return res, err
	}
	for s := 1; s < cfg.Sweeps; s++ {
		again, err := runMicroSweep(cfg)
		if err != nil {
			return res, err
		}
		mergeBestSweep(&res, again)
	}
	return res, nil
}

// mergeBestSweep keeps, per scenario, the fastest current and baseline
// measurements seen in either sweep — each draw of a bit-identical loop
// estimates the same true rate, and the fastest draw is the one least
// disturbed by the host.
func mergeBestSweep(dst *MicroResult, src MicroResult) {
	for i := range dst.Scenarios {
		d := &dst.Scenarios[i]
		s := src.Scenario(d.Name)
		if s == nil {
			continue
		}
		if s.Current.OpsPerSec > d.Current.OpsPerSec {
			d.Current = s.Current
		}
		if d.Baseline != nil && s.Baseline != nil && s.Baseline.OpsPerSec > d.Baseline.OpsPerSec {
			d.Baseline = s.Baseline
		}
		if d.Baseline != nil && d.Baseline.OpsPerSec > 0 {
			d.Speedup = d.Current.OpsPerSec / d.Baseline.OpsPerSec
		}
	}
}

func runMicroSweep(cfg MicroConfig) (MicroResult, error) {
	cfg.applyDefaults()
	res := MicroResult{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), DurationMS: cfg.Duration.Milliseconds()}

	keys := make([]string, cfg.Keys)
	for i := range keys {
		keys[i] = fmt.Sprintf("http://server%d.example/doc%d", i%64, i)
	}
	const objSize = 1024

	// --- Cache reads: the LRU vs the frozen one-big-mutex baseline.
	// Capacity holds the whole working set, so this isolates lock
	// contention on the hit path (Get moves the entry to the MRU position
	// either way).
	capacity := int64(cfg.Keys) * objSize * 2
	cache := lru.MustNewCache(lru.Config{Capacity: capacity, MaxObjectSize: objSize})
	mtx := newMutexCache(capacity)
	for i, k := range keys {
		cache.Put(lru.Entry{Key: k, Size: objSize, Version: int64(i)})
		mtx.Put(k, objSize)
	}
	getOp := func(w, i int) { cache.Get(keys[(w*2053+i)%len(keys)]) }
	baseGetOp := func(w, i int) { mtx.Get(keys[(w*2053+i)%len(keys)]) }
	// single_get_1shard keeps its name so committed BENCH files still
	// diff; since the cache lost its shards it measures what single_get
	// does.
	res.Scenarios = append(res.Scenarios,
		compare("parallel_get", cfg.Goroutines,
			measure(cfg.Goroutines, cfg.Duration, getOp),
			measure(cfg.Goroutines, cfg.Duration, baseGetOp)),
		compare("single_get", 1,
			measure(1, cfg.Duration, getOp),
			measure(1, cfg.Duration, baseGetOp)),
		compare("single_get_1shard", 1,
			measure(1, cfg.Duration, getOp),
			measure(1, cfg.Duration, baseGetOp)))

	// --- Summary probes: lock-free atomic word loads vs RWMutex RLock.
	// Index sets are precomputed once per URL, as in PeerTable.ProbeAll
	// where one URL is probed against every peer replica; each op probes
	// all four replicas.
	const peerReplicas = 4
	bits := uint64(1) << 20
	lockFree := make([]*bloom.Filter, peerReplicas)
	locked := make([]*rwmutexFilter, peerReplicas)
	for p := range lockFree {
		lockFree[p] = bloom.MustNewFilter(bits, hashing.DefaultSpec)
		locked[p] = newRWMutexFilter(bits, hashing.DefaultSpec)
	}
	idx := make([][]uint64, len(keys))
	for i, k := range keys {
		idx[i] = lockFree[0].Indexes(nil, k)
		if i%3 == 0 { // a realistic mix of hits and misses
			for p := range lockFree {
				lockFree[p].Add(k)
				locked[p].Add(k)
			}
		}
	}
	probeOp := func(w, i int) {
		ix := idx[(w*2053+i)%len(idx)]
		for _, f := range lockFree {
			f.TestIndexes(ix)
		}
	}
	baseProbeOp := func(w, i int) {
		ix := idx[(w*2053+i)%len(idx)]
		for _, f := range locked {
			f.TestIndexes(ix)
		}
	}
	res.Scenarios = append(res.Scenarios,
		compare("parallel_probe_all", cfg.Goroutines,
			measure(cfg.Goroutines, cfg.Duration, probeOp),
			measure(cfg.Goroutines, cfg.Duration, baseProbeOp)),
		compare("single_probe_all", 1,
			measure(1, cfg.Duration, probeOp),
			measure(1, cfg.Duration, baseProbeOp)))

	// --- Mixed insert/probe: 1 insert per 8 reads with eviction churn
	// (capacity holds half the working set), the proxy's steady state.
	mixCap := int64(cfg.Keys) * objSize / 2
	mixCache := lru.MustNewCache(lru.Config{Capacity: mixCap, MaxObjectSize: objSize})
	mixMtx := newMutexCache(mixCap)
	mixOp := func(w, i int) {
		k := keys[(w*2053+i)%len(keys)]
		if i%8 == 0 {
			mixCache.Put(lru.Entry{Key: k, Size: objSize})
		} else {
			mixCache.Get(k)
		}
	}
	baseMixOp := func(w, i int) {
		k := keys[(w*2053+i)%len(keys)]
		if i%8 == 0 {
			mixMtx.Put(k, objSize)
		} else {
			mixMtx.Get(k)
		}
	}
	res.Scenarios = append(res.Scenarios,
		compare("mixed_insert_probe", cfg.Goroutines,
			measure(cfg.Goroutines, cfg.Duration, mixOp),
			measure(cfg.Goroutines, cfg.Duration, baseMixOp)))

	// --- End-to-end: requests/sec through a live 4-proxy SC-ICP mesh on
	// loopback (shared URL universe, zero origin latency, so protocol and
	// cache work dominate). MeshWarmup requests per client run off the
	// clock first, so the figure is steady-state throughput rather than
	// one amortization of mesh cold start (connection establishment,
	// cold caches, full-state pushes). No in-binary baseline — compare
	// across commits via the committed JSON.
	//
	// The micro scenarios above leave megabytes of dead cache entries
	// behind; collect them now so the mesh pays for its own garbage, not
	// for sweeping its predecessors' (the same leveling testing.B does
	// between benchmarks).
	runtime.GC()
	mesh, err := RunSynthetic(SyntheticConfig{
		Mode:              httpproxy.ModeSCICP,
		Proxies:           4,
		ClientsPerProxy:   cfg.MeshClients,
		RequestsPerClient: cfg.MeshRequests,
		WarmupRequests:    cfg.MeshWarmup,
		InherentHitRatio:  0.45,
		Disjoint:          false,
		OriginLatency:     0,
		CacheBytes:        64 << 20,
		Seed:              cfg.Seed + 42,
	})
	if err != nil {
		return res, err
	}
	res.Scenarios = append(res.Scenarios, MicroScenario{
		Name:       "mesh_scicp_throughput",
		Goroutines: 4 * cfg.MeshClients,
		Current: MicroMeasurement{
			Ops:       mesh.Requests,
			OpsPerSec: float64(mesh.Requests) / mesh.Wall.Seconds(),
			P99Micros: float64(mesh.P90Latency) / float64(time.Microsecond), // recorder exposes p90
		},
	})
	return res, nil
}
