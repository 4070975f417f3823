// Package perfwatch is the performance-observability subsystem: it turns
// the tracing spans the mesh already records into an always-on per-stage
// latency decomposition, evaluates named service-level objectives (SLOs)
// with error-budget burn rates over them, and — when an objective's burn
// trips — captures a bounded ring of pprof profiles so the regression can
// be diagnosed after the fact.
//
// The paper's argument is quantitative (latency and message savings under
// load, Figs. 5-8), so the repository needs to know not just *that* p99
// moved but *which stage* of the request path owns the movement. A Watch
// implements tracing.SpanSink: every span of every trace — sampled or not,
// retention is orthogonal — feeds one histogram per stage in the family
// summarycache_perf_stage_seconds{stage=...}, and every completed request
// trace feeds the end-to-end "request" stage plus the SLO windows. Layers
// below tracing (the LRU cache, DIRUPDATE codec paths) report through the
// StageTiming func instead, since they have no span of their own.
//
// Everything is stdlib-only and a nil *Watch is a valid disabled watch:
// every method is a no-op, so wiring can thread one unconditionally.
package perfwatch

import (
	"log/slog"
	"sort"
	"sync"
	"time"

	"summarycache/internal/obs"
	"summarycache/internal/tracing"
)

// Stage names beyond the tracing span names (which are stages too: a span
// named local_lookup lands in stage "local_lookup"). These cover the
// sub-span timings reported through StageTiming.
const (
	// StageRequest is the end-to-end client request, observed at trace
	// Finish — the total the other stages decompose.
	StageRequest = "request"
	// StageLRUGet / StageLRUInsert are document-cache operations.
	StageLRUGet    = "lru_get"
	StageLRUInsert = "lru_insert"
	// StageDirUpdateEncode / StageDirUpdateApply are the DIRUPDATE codec
	// halves: building outgoing summary deltas and applying received ones.
	StageDirUpdateEncode = "dirupdate_encode"
	StageDirUpdateApply  = "dirupdate_apply"
	// StageICPReply is one peer's ICP answer round-trip as seen by the
	// querier (per-reply RTT, finer than the whole icp_query fan-out).
	StageICPReply = "icp_reply"
	// StageOther absorbs stage names the watch was not built with, so a
	// renamed span never silently drops samples.
	StageOther = "other"
)

// knownStages is every stage the watch pre-registers: the tracing span
// names plus the StageTiming-only stages above.
func knownStages() []string {
	return []string{
		StageRequest,
		tracing.SpanLocalLookup,
		tracing.SpanSummaryProbe,
		tracing.SpanICPQuery,
		tracing.SpanICPAnswer,
		tracing.SpanPeerFetch,
		tracing.SpanOriginFetch,
		StageICPReply,
		StageLRUGet,
		StageLRUInsert,
		StageDirUpdateEncode,
		StageDirUpdateApply,
		StageOther,
	}
}

// Config parameterizes a Watch.
type Config struct {
	// Registry receives the stage histograms, SLO series and capture
	// counters. Nil: a private registry.
	Registry *obs.Registry
	// Labels are attached to every series (e.g. the node address when
	// several watches share a registry).
	Labels obs.Labels
	// Logger receives one structured event per SLO breach and per profile
	// capture. Nil: discarded.
	Logger *slog.Logger
	// Objectives are the SLOs to evaluate; see Objective.
	Objectives []Objective
	// Capture configures anomaly-triggered profile capture; the zero
	// value disables it.
	Capture CaptureConfig
}

// Watch is the performance watcher: a tracing.SpanSink decomposing
// request latency into per-stage histograms, an SLO burn-rate engine over
// the same stream, and an optional profile capturer the SLO engine
// triggers on breach. A nil *Watch is a valid disabled watch.
type Watch struct {
	log    *slog.Logger
	stages map[string]*obs.Histogram // immutable after New — lock-free reads
	other  *obs.Histogram
	reqH   *obs.Histogram

	slos     []*sloState
	capturer *Capturer

	evalMu   sync.Mutex
	lastEval time.Time   // zero until the first Evaluate
	last     []SLOStatus // the first Evaluate replaces the unevaluated rows
}

// New builds a Watch from cfg.
func New(cfg Config) *Watch {
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	w := &Watch{
		log:    obs.OrNop(cfg.Logger),
		stages: make(map[string]*obs.Histogram),
	}
	for _, stage := range knownStages() {
		w.stages[stage] = reg.Histogram("summarycache_perf_stage_seconds",
			"request latency decomposed by pipeline stage",
			cfg.Labels.With("stage", stage), nil)
	}
	w.other = w.stages[StageOther]
	w.reqH = w.stages[StageRequest]
	w.capturer = newCapturer(cfg.Capture, reg, cfg.Labels, w.log)
	w.last = make([]SLOStatus, 0, len(cfg.Objectives))
	for _, o := range cfg.Objectives {
		s := newSLOState(o, reg, cfg.Labels)
		w.slos = append(w.slos, s)
		w.last = append(w.last, s.status())
	}
	return w
}

// hist maps a stage name to its histogram (StageOther for unknown names).
func (w *Watch) hist(stage string) *obs.Histogram {
	if h, ok := w.stages[stage]; ok {
		return h
	}
	return w.other
}

// StageTiming records one sub-span stage sample (LRU ops, DIRUPDATE codec
// halves, per-reply ICP RTT). Safe on a nil Watch and safe for concurrent
// use; it allocates nothing, so hot paths may call it unconditionally.
func (w *Watch) StageTiming(stage string, d time.Duration) {
	if w == nil {
		return
	}
	w.hist(stage).ObserveDuration(d)
}

// OnSpan implements tracing.SpanSink: every recorded span lands in its
// stage histogram, regardless of the trace's sampling fate.
func (w *Watch) OnSpan(node string, s tracing.Span) {
	if w == nil {
		return
	}
	w.hist(s.Name).Observe(float64(s.DurationUS) / 1e6)
}

// OnFinish implements tracing.SpanSink: completed request traces feed the
// end-to-end "request" stage and every SLO window. A request that exceeds
// a latency objective's threshold returns an "slo:<name>" anomaly reason,
// which the tracer turns into tail-based always-keep — the breaching
// trace survives any head-sampling rate, including zero.
func (w *Watch) OnFinish(node, kind, outcome string, d time.Duration) string {
	if w == nil || kind != tracing.KindRequest {
		return ""
	}
	w.reqH.ObserveDuration(d)
	reason := ""
	for _, s := range w.slos {
		if r := s.onRequest(outcome, d); r != "" && reason == "" {
			reason = r
		}
	}
	return reason
}

// Capturer returns the profile capturer (nil on a nil or capture-disabled
// Watch).
func (w *Watch) Capturer() *Capturer {
	if w == nil {
		return nil
	}
	return w.capturer
}

// StageSummary is one row of the per-stage breakdown: how many samples a
// stage absorbed and where its latency distribution sits.
type StageSummary struct {
	Stage string  `json:"stage"`
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum_seconds"`
	P50   float64 `json:"p50_seconds"`
	P99   float64 `json:"p99_seconds"`
}

// Stages returns the non-empty stages ordered by total time descending
// (the order a latency investigation wants), "request" first as the total
// being decomposed.
func (w *Watch) Stages() []StageSummary {
	if w == nil {
		return nil
	}
	var out []StageSummary
	for stage, h := range w.stages {
		n := h.Count()
		if n == 0 {
			continue
		}
		out = append(out, StageSummary{
			Stage: stage,
			Count: n,
			Sum:   h.Sum(),
			P50:   h.Quantile(0.50),
			P99:   h.Quantile(0.99),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if (a.Stage == StageRequest) != (b.Stage == StageRequest) {
			return a.Stage == StageRequest
		}
		if a.Sum != b.Sum {
			return a.Sum > b.Sum
		}
		return a.Stage < b.Stage
	})
	return out
}
