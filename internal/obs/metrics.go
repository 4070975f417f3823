// Package obs is the repository's unified observability layer: atomic
// counters, gauges and log-bucketed latency histograms collected in a
// concurrency-safe labeled Registry, exposed over an admin http.Handler
// (Prometheus text exposition at /metrics, expvar-style JSON at
// /debug/vars, net/http/pprof at /debug/pprof/, and /healthz backed by
// peer up/down state), plus structured-event helpers over log/slog.
//
// The paper's entire evaluation is message, byte, hit-class and latency
// accounting (Tables II/IV/V, Figs. 5-8); obs turns those same signals
// into live, scrapeable instrumentation so a deployed mesh can be
// monitored and profiled, not only benchmarked offline. Everything is
// stdlib-only.
package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is unusable;
// obtain counters from a Registry so they appear in the exposition.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increments by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down (in-flight requests, peers
// up, cached bytes).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add increments by n (negative to decrement).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefaultLatencyBuckets are the histogram bounds used when none are given:
// log-scaled (factor 2) from 1µs to ~134s, in seconds. The microsecond
// floor resolves the per-stage timings of a loopback request (a Bloom
// probe, an LRU get, one ICP round trip); the top covers the paper's
// 1s-latency origins with room for retries.
func DefaultLatencyBuckets() []float64 {
	out := make([]float64, 28)
	b := 1e-6
	for i := range out {
		out[i] = b
		b *= 2
	}
	return out
}

// Histogram counts observations into fixed upper-bound buckets and keeps
// the running sum, Prometheus-style (cumulative on exposition, per-bucket
// internally). Bounds are in seconds for latency histograms but any unit
// works. Safe for concurrent use.
type Histogram struct {
	bounds []float64       // sorted upper bounds; implicit +Inf after
	counts []atomic.Uint64 // len(bounds)+1, last is the +Inf bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets()
	}
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records a latency sample in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Bounds returns the bucket upper bounds (excluding +Inf).
func (h *Histogram) Bounds() []float64 { return append([]float64(nil), h.bounds...) }

// BucketCounts returns per-bucket (non-cumulative) counts; the final
// element is the +Inf bucket.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// HistogramSnapshot is the scalar summary of a Histogram — the form a
// Stats struct can carry so snapshot and scrape read the same instrument
// (full bucket vectors stay exposition-only).
type HistogramSnapshot struct {
	// Count is the number of observations.
	Count uint64
	// Sum is the sum of all observed values.
	Sum float64
}

// Snapshot returns the histogram's scalar summary.
func (h *Histogram) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{Count: h.Count(), Sum: h.Sum()}
}

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// within the bucket containing it, the same estimate Prometheus's
// histogram_quantile computes. With zero observations every quantile is 0:
// a defined, JSON-marshalable value (NaN breaks encoding/json and reads as
// "missing" on dashboards, where 0 reads correctly as "no data yet"). A
// NaN q is a caller error and returns NaN; a quantile landing in the +Inf
// bucket reports the largest finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			cum += c
			continue
		}
		if float64(cum+c) >= rank {
			if i == len(h.bounds) { // +Inf bucket
				if len(h.bounds) == 0 {
					return math.NaN()
				}
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - float64(cum)) / float64(c)
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

// Mean returns the average observed value (NaN with no observations).
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return math.NaN()
	}
	return h.Sum() / float64(n)
}
