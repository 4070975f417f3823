// Package perfwatch turns the tracing spans the mesh already records into
// an always-on per-stage latency decomposition.
//
// The paper's argument is quantitative (latency and message savings under
// load, Figs. 5-8), so the repository needs to know not just *that* p99
// moved but *which stage* of the request path owns the movement. A Watch
// implements tracing.SpanSink: every span of every trace — sampled or not,
// retention is orthogonal — feeds one histogram per stage in the family
// summarycache_perf_stage_seconds{stage=...}, and every completed request
// trace feeds the end-to-end "request" stage. The span stream is the
// Watch's only input: work outside a request (a DIRUPDATE encoded or
// applied, a peer's cache read) reaches it through tracing.Tracer.Record,
// so a Watch sees nothing unless it is some tracer's Config.Sink. The
// histograms are read where every other series is: /metrics and
// /debug/vars.
//
// Everything is stdlib-only and a nil *Watch is a valid disabled watch:
// every method is a no-op, so wiring can thread one unconditionally.
package perfwatch

import (
	"time"

	"summarycache/internal/obs"
	"summarycache/internal/tracing"
)

// Stage names. Every stage but StageRequest and StageOther is the name of
// the tracing span that feeds it; the aliases below keep the names the
// benchmark reads.
const (
	// StageRequest is the end-to-end client request, observed at trace
	// Finish — the total the other stages decompose.
	StageRequest         = "request"
	StageLRUGet          = tracing.SpanLRUGet
	StageLRUInsert       = tracing.SpanLRUInsert
	StageDirUpdateEncode = tracing.SpanDirUpdateEncode
	StageDirUpdateApply  = tracing.SpanDirUpdateApply
	StageICPReply        = tracing.SpanICPReply
	// StageOther absorbs stage names the watch was not built with, so a
	// renamed span never silently drops samples.
	StageOther = "other"
)

// knownStages is every stage the watch pre-registers.
func knownStages() []string {
	return []string{
		StageRequest,
		tracing.SpanLocalLookup,
		tracing.SpanSummaryProbe,
		tracing.SpanICPQuery,
		tracing.SpanICPReply,
		tracing.SpanICPAnswer,
		tracing.SpanPeerFetch,
		tracing.SpanOriginFetch,
		tracing.SpanLRUGet,
		tracing.SpanLRUInsert,
		tracing.SpanDirUpdateEncode,
		tracing.SpanDirUpdateApply,
		StageOther,
	}
}

// Config parameterizes a Watch.
type Config struct {
	// Registry receives the stage histograms. Nil: a private registry.
	Registry *obs.Registry
}

// Watch is the performance watcher: a tracing.SpanSink decomposing
// request latency into per-stage histograms. A nil *Watch is a valid
// disabled watch.
type Watch struct {
	stages map[string]*obs.Histogram // immutable after New — lock-free reads
	other  *obs.Histogram
	reqH   *obs.Histogram
}

// New builds a Watch from cfg.
func New(cfg Config) *Watch {
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	w := &Watch{stages: make(map[string]*obs.Histogram)}
	for _, stage := range knownStages() {
		w.stages[stage] = reg.Histogram("summarycache_perf_stage_seconds",
			"request latency decomposed by pipeline stage",
			obs.L("stage", stage), nil)
	}
	w.other = w.stages[StageOther]
	w.reqH = w.stages[StageRequest]
	return w
}

// OnSpan implements tracing.SpanSink: every recorded span lands in its
// stage histogram (StageOther for unknown names), regardless of the
// trace's sampling fate.
func (w *Watch) OnSpan(node string, s tracing.Span) {
	if w == nil {
		return
	}
	h, ok := w.stages[s.Name]
	if !ok {
		h = w.other
	}
	h.Observe(s.DurationUS / 1e6)
}

// OnFinish implements tracing.SpanSink: completed request traces feed the
// end-to-end "request" stage.
func (w *Watch) OnFinish(node, kind, outcome string, d time.Duration) {
	if w == nil || kind != tracing.KindRequest {
		return
	}
	w.reqH.ObserveDuration(d)
}
