package obs

import (
	rm "runtime/metrics"
)

// runtimeSamples are the runtime/metrics samples re-exported at /metrics.
// The mutex-wait total, together with the LRU's lock-contention counter,
// tells an operator whether probe/insert latency is lock time or work.
var runtimeSamples = []struct {
	name string // our family name
	help string
	src  string // runtime/metrics key
}{
	{
		name: "summarycache_runtime_mutex_wait_seconds",
		help: "Cumulative time goroutines have spent blocked on mutexes (runtime /sync/mutex/wait/total:seconds).",
		src:  "/sync/mutex/wait/total:seconds",
	},
	{
		name: "summarycache_runtime_goroutines",
		help: "Current live goroutine count (runtime /sched/goroutines:goroutines).",
		src:  "/sched/goroutines:goroutines",
	},
	{
		name: "summarycache_runtime_gc_cycles",
		help: "Completed GC cycles (runtime /gc/cycles/total:gc-cycles).",
		src:  "/gc/cycles/total:gc-cycles",
	},
}

// RegisterRuntimeMetrics exposes a small set of runtime/metrics samples as
// gauges on r, read at scrape time. Registration is idempotent — shared
// registries and repeated admin-handler construction are safe.
func RegisterRuntimeMetrics(r *Registry) {
	for _, s := range runtimeSamples {
		src := s.src
		r.GaugeFunc(s.name, s.help, nil, func() float64 { return readRuntimeSample(src) })
	}
}

func readRuntimeSample(name string) float64 {
	sample := []rm.Sample{{Name: name}}
	rm.Read(sample)
	switch sample[0].Value.Kind() {
	case rm.KindFloat64:
		return sample[0].Value.Float64()
	case rm.KindUint64:
		return float64(sample[0].Value.Uint64())
	default:
		return 0
	}
}
