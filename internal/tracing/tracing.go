// Package tracing is a request-scoped distributed-tracing subsystem for
// the SC-ICP mesh (stdlib-only). Every proxy request can carry a Trace
// whose spans cover the local cache lookup, the per-peer summary probes,
// the ICP query round-trip, the sibling fetch, and the origin fetch. The
// summary-probe spans carry a decision audit — the exact Bloom bit
// indices probed, the peer replica's generation and age at probe time,
// the predicted verdict, and the actual outcome once the ICP reply
// resolves — so every false hit and false miss in the mesh is
// self-explaining rather than an anonymous tick of a counter.
//
// Trace context crosses the wire without any protocol change: an ICP
// query fan-out uses a single RequestNumber (see icp.Conn.QueryAllFunc),
// and both the querying and the answering proxy derive the same trace ID
// from the pair (querier UDP address, RequestNumber) via IDFromICP. Fetching
// /debug/traces from two mesh members therefore yields spans that join on
// one ID with zero extra bytes on the wire.
//
// Completed traces land in a bounded lock-free ring buffer. Retention is
// head-based probabilistic sampling (Config.HeadRate) combined with
// tail-based always-keep for anomalous outcomes — false hits, query
// timeouts, peer-down fallbacks — so the interesting traces survive even
// at a head rate of zero. Sampled/dropped/kept-by-tail counters register
// in the obs registry so a scrape can be cross-checked against the store.
package tracing

import (
	"context"
	"hash/fnv"
	"log/slog"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"summarycache/internal/obs"
)

// ctxKey keys the trace in a context.
type ctxKey struct{}

// NewContext returns ctx carrying tr, so layers below the HTTP handler
// (the SC-ICP node's Lookup) can attach spans to the request's trace.
// Callers attach a context only for traced requests; the untraced hot
// path never pays the context allocation.
func NewContext(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, tr)
}

// FromContext returns the trace carried by ctx, or nil.
func FromContext(ctx context.Context) *Trace {
	tr, _ := ctx.Value(ctxKey{}).(*Trace)
	return tr
}

// ID identifies a trace. IDs of traces that performed an ICP exchange are
// derived from the exchange (IDFromICP); purely local traces get a
// process-local ID.
type ID uint64

// String renders the ID as fixed-width hex, the form /debug/traces uses.
func (id ID) String() string {
	const hexdigits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexdigits[id&0xf]
		id >>= 4
	}
	return string(b[:])
}

// ParseID parses the hex form produced by String.
func ParseID(s string) (ID, bool) {
	if s == "" || len(s) > 16 {
		return 0, false
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			v = v<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			v = v<<4 | uint64(c-'a'+10)
		case c >= 'A' && c <= 'F':
			v = v<<4 | uint64(c-'A'+10)
		default:
			return 0, false
		}
	}
	return ID(v), true
}

// IDFromICP derives the shared trace ID of one ICP query exchange from
// what both ends can see on the wire: the querier's UDP source address
// (its bound ICP endpoint) and the query's RequestNumber. No wire change
// is needed; correlation requires the querier to bind a concrete address
// (as the mesh does), since the answering side sees the datagram's
// source, not the unspecified wildcard.
func IDFromICP(querier string, reqNum uint32) ID {
	h := fnv.New64a()
	h.Write([]byte(querier))
	var b [4]byte
	b[0] = byte(reqNum >> 24)
	b[1] = byte(reqNum >> 16)
	b[2] = byte(reqNum >> 8)
	b[3] = byte(reqNum)
	h.Write(b[:])
	return ID(h.Sum64())
}

// Span names used across the mesh.
const (
	SpanLocalLookup  = "local_lookup"  // document cache probe
	SpanSummaryProbe = "summary_probe" // one peer summary consulted
	SpanICPQuery     = "icp_query"     // the ICP fan-out round-trip
	SpanICPAnswer    = "icp_answer"    // answering side of a peer query
	SpanPeerFetch    = "peer_fetch"    // sibling cache-only HTTP fetch
	SpanOriginFetch  = "origin_fetch"  // origin (or parent) HTTP fetch
)

// QueryActual is an icp_query span's Actual for a fan-out that winner
// confirmed with answer (icp.Opcode.Verdict: "hit", or "hit_obj" when the
// document came back inline): "<answer>:<peer>", or "all_miss" when nobody
// confirmed (winner nil).
func QueryActual(winner *net.UDPAddr, answer string) string {
	if winner == nil {
		return "all_miss"
	}
	return answer + ":" + winner.String()
}

// Trace kinds.
const (
	KindRequest   = "request"    // a client request through a proxy
	KindICPAnswer = "icp_answer" // the answering side of a peer's query
)

// Audit is the decision audit attached to a summary-probe span: why this
// peer was (or was not) nominated, against which replica state.
type Audit struct {
	// BitIndexes are the k Bloom bit positions probed in the peer replica.
	BitIndexes []uint64 `json:"bit_indexes"`
	// Generation is the number of DIRUPDATE messages applied to the
	// replica when it was probed — the "filter generation" a stale
	// prediction can be blamed on.
	Generation uint64 `json:"generation"`
	// AgeMS is how long ago the replica last changed, in milliseconds.
	AgeMS float64 `json:"age_ms"`
	// FilterBits is the replica's bit-array size (the modulus of the
	// probed indices).
	FilterBits uint64 `json:"filter_bits,omitempty"`
}

// Span is one step of a trace.
type Span struct {
	Name string `json:"name"`
	// Peer is the remote party for per-peer spans (summary probes, ICP
	// answers, sibling fetches).
	Peer  string    `json:"peer,omitempty"`
	Start time.Time `json:"start"`
	// DurationUS is the span length in microseconds.
	DurationUS int64 `json:"duration_us"`
	// ReqNum is the ICP RequestNumber for query/answer spans — the
	// correlation key IDFromICP hashes.
	ReqNum uint32 `json:"icp_reqnum,omitempty"`
	// Predicted is the verdict the summary gave ("hit"/"miss") before the
	// network was consulted.
	Predicted string `json:"predicted,omitempty"`
	// Actual is what really happened once the ICP reply or fetch resolved
	// ("hit", "hit_obj", "miss", "no_reply", "not_queried", "ok", "failed",
	// "breaker_open").
	Actual string `json:"actual,omitempty"`
	// Retries is how many extra attempts an origin-fetch span needed after
	// retryable failures (0 means it succeeded or died on the first try).
	Retries int    `json:"retries,omitempty"`
	Err     string `json:"error,omitempty"`
	Audit   *Audit `json:"audit,omitempty"`
}

// Trace is one request's (or one answered query's) span collection. All
// methods are safe on a nil receiver and do nothing, which is how the
// disabled-tracing hot path stays allocation-free.
type Trace struct {
	tracer *Tracer

	mu        sync.Mutex
	id        ID
	node      string
	kind      string
	url       string
	start     time.Time
	outcome   string
	anomaly   string // non-empty: tail-based always-keep fires
	headKeep  bool
	spans     []Span
	finished  bool
	dur       time.Duration // start-to-Finish, set by Finish
	keptLabel string        // "head", "tail", or "" (dropped); set by Finish
}

// view is the JSON shape of a stored trace.
type view struct {
	ID      string    `json:"id"`
	Node    string    `json:"node"`
	Kind    string    `json:"kind"`
	URL     string    `json:"url"`
	Start   time.Time `json:"start"`
	Outcome string    `json:"outcome"`
	Anomaly string    `json:"anomaly,omitempty"`
	Kept    string    `json:"kept"`
	// DurationUS is start-to-Finish in microseconds.
	DurationUS int64  `json:"duration_us"`
	Spans      []Span `json:"spans"`
}

// SpanSink observes every span and every completed trace as they happen,
// regardless of the retention (sampling) decision — spans are recorded on
// all traces, sampled or not, so a sink sees the full population. It is
// the hook the perfwatch subsystem uses to decompose end-to-end latency
// into per-stage histograms and to evaluate latency SLOs.
//
// OnFinish runs before the retention decision and may return a non-empty
// anomaly reason (e.g. "slo:client_p99") to force tail-based keep of the
// trace, so requests that breach an objective always survive the head
// sampler. Implementations must be concurrency-safe and must not call
// back into the Trace or Tracer (OnFinish is invoked under the trace's
// lock).
type SpanSink interface {
	// OnSpan is called once per recorded span.
	OnSpan(node string, s Span)
	// OnFinish is called once per completed trace with its kind (request
	// or icp_answer), final outcome and end-to-end duration. A non-empty
	// return marks the trace anomalous (first reason sticks).
	OnFinish(node, kind, outcome string, d time.Duration) (anomaly string)
}

// Config parameterizes a Tracer.
type Config struct {
	// HeadRate is the head-sampling probability in [0,1]: the chance a
	// trace with an ordinary outcome is kept. Anomalous traces are always
	// kept (tail-based sampling), regardless of HeadRate.
	HeadRate float64
	// Buffer is the ring-buffer capacity in traces (default 2048). The
	// ring overwrites oldest-first; it never blocks and never grows.
	Buffer int
	// Registry, when set, receives the tracer's sampled/dropped/kept-
	// by-tail counters so the scrape and the trace store can be
	// cross-checked. Nil: a private registry.
	Registry *obs.Registry
	// Labels are attached to the tracer's metric series (e.g. the node
	// address when several tracers share a registry).
	Labels obs.Labels
	// Logger, when set, receives one structured event per kept trace at
	// completion (anomalous traces at Info, head-sampled ones at Debug).
	Logger *slog.Logger
	// Sink, when set, observes every span and completed trace (sampled or
	// not) and may flag traces anomalous at Finish time — see SpanSink.
	// Nil keeps the hot path exactly as before (zero extra work).
	Sink SpanSink
}

// DefaultBuffer is the ring capacity used when Config.Buffer is zero.
const DefaultBuffer = 2048

// Tracer owns the trace store and the sampling policy. A single Tracer
// may be shared by every proxy in a mesh (like a shared obs.Registry) or
// be private to one node; traces carry their node identity either way.
// A nil *Tracer is a valid disabled tracer: StartRequest returns nil and
// every downstream call is a no-op.
type Tracer struct {
	headRate float64
	ring     ring
	log      *slog.Logger
	sink     SpanSink

	localSeq atomic.Uint64 // provisional IDs for traces with no ICP exchange

	sampled  *obs.Counter // kept by head sampling
	keptTail *obs.Counter // kept only because the outcome was anomalous
	dropped  *obs.Counter // completed but not retained
}

// New builds a Tracer.
func New(cfg Config) *Tracer {
	if cfg.Buffer <= 0 {
		cfg.Buffer = DefaultBuffer
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	t := &Tracer{
		headRate: cfg.HeadRate,
		log:      obs.OrNop(cfg.Logger),
		sink:     cfg.Sink,
		sampled: reg.Counter("summarycache_trace_sampled_total",
			"traces kept by head-based probabilistic sampling", cfg.Labels),
		keptTail: reg.Counter("summarycache_trace_kept_tail_total",
			"anomalous traces kept by tail-based sampling despite the head decision", cfg.Labels),
		dropped: reg.Counter("summarycache_trace_dropped_total",
			"completed traces not retained in the ring buffer", cfg.Labels),
	}
	t.ring.init(cfg.Buffer)
	return t
}

// StartRequest begins a client-request trace on node for url. On a nil
// (disabled) Tracer it returns nil, and every method of the nil *Trace is
// a no-op — the local-hit hot path pays no allocation.
func (t *Tracer) StartRequest(node, url string) *Trace {
	if t == nil {
		return nil
	}
	return t.start(node, url, KindRequest)
}

func (t *Tracer) start(node, url, kind string) *Trace {
	tr := &Trace{
		tracer:   t,
		node:     node,
		kind:     kind,
		url:      url,
		start:    time.Now(),
		headKeep: t.headRate >= 1 || (t.headRate > 0 && rand.Float64() < t.headRate),
	}
	// Provisional ID; an ICP exchange re-keys it to the shared derived ID.
	tr.id = ID(t.localSeq.Add(1))<<32 | ID(uint32(time.Now().UnixNano()))
	return tr
}

// ICPAnswer records the answering side of one peer query as a complete
// single-span trace whose ID is derived from (querier, reqNum) — the same
// ID the querying proxy's request trace adopts. missAnomalous marks a
// MISS answer as a tail-keep anomaly: under SC-ICP a query only arrives
// because the querier's replica of this node's summary predicted a hit,
// so answering MISS is a false hit observed from the answering side.
// Under classic ICP queries go to everyone and a MISS answer is ordinary.
// answer is the reply given (icp.Opcode.Verdict): "hit", "hit_obj" — the
// document rode inline in the reply — or "miss".
func (t *Tracer) ICPAnswer(node, querier string, reqNum uint32, url string, answer string, start time.Time, missAnomalous bool) {
	if t == nil {
		return
	}
	tr := t.start(node, url, KindICPAnswer)
	tr.id = IDFromICP(querier, reqNum)
	outcome := "icp_hit"
	if answer == "miss" {
		outcome = "icp_miss"
		if missAnomalous {
			tr.MarkAnomalous("false_hit_answered")
		}
	}
	tr.AddSpan(Span{
		Name:       SpanICPAnswer,
		Peer:       querier,
		Start:      start,
		DurationUS: time.Since(start).Microseconds(),
		ReqNum:     reqNum,
		Predicted:  "hit", // the querier's replica nominated us
		Actual:     answer,
	})
	tr.Finish(outcome)
}

// Traces returns the retained traces, newest first.
func (t *Tracer) Traces() []*Trace {
	if t == nil {
		return nil
	}
	return t.ring.snapshot()
}

// Find returns the retained traces with the given ID (a request trace and
// any answer traces sharing its ICP exchange, when one store serves a
// whole mesh), newest first.
func (t *Tracer) Find(id ID) []*Trace {
	var out []*Trace
	for _, tr := range t.Traces() {
		if tr.ID() == id {
			out = append(out, tr)
		}
	}
	return out
}

// --- Trace methods (all nil-safe) ---

// AddSpan appends a span. When the tracer has a SpanSink, the span is
// also delivered to it (outside the trace lock).
func (tr *Trace) AddSpan(s Span) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	node := tr.node
	tr.mu.Unlock()
	if sink := tr.tracer.sink; sink != nil {
		sink.OnSpan(node, s)
	}
}

// SetICPExchange re-keys the trace to the shared ID of the ICP exchange
// it performed, so the answering proxies' traces join it.
func (tr *Trace) SetICPExchange(querier string, reqNum uint32) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.id = IDFromICP(querier, reqNum)
	tr.mu.Unlock()
}

// MarkAnomalous flags the trace for tail-based always-keep (false hit,
// query timeout, peer-down fallback, ...). The first reason sticks.
func (tr *Trace) MarkAnomalous(reason string) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	if tr.anomaly == "" {
		tr.anomaly = reason
	}
	tr.mu.Unlock()
}

// ID returns the trace's current ID.
func (tr *Trace) ID() ID {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.id
}

// Outcome returns the outcome set by Finish ("" before completion).
func (tr *Trace) Outcome() string {
	if tr == nil {
		return ""
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.outcome
}

// Kept reports how the retention decision went: "head", "tail", or ""
// (dropped or unfinished).
func (tr *Trace) Kept() string {
	if tr == nil {
		return ""
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.keptLabel
}

// Spans returns a copy of the spans recorded so far.
func (tr *Trace) Spans() []Span {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]Span(nil), tr.spans...)
}

// Finish completes the trace with its outcome and applies the retention
// policy: keep when head sampling said so or the trace was marked
// anomalous (tail-based), drop otherwise. Kept traces are stored in the
// ring and emitted as one structured log event; dropped ones only tick
// the dropped counter. Finish is idempotent.
func (tr *Trace) Finish(outcome string) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	if tr.finished {
		tr.mu.Unlock()
		return
	}
	tr.finished = true
	tr.outcome = outcome
	tr.dur = time.Since(tr.start)
	// The sink sees every completed trace before the retention decision,
	// so it can both account the full population (per-stage histograms,
	// SLO windows) and flag SLO-breaching traces for tail-based keep.
	if sink := tr.tracer.sink; sink != nil {
		if reason := sink.OnFinish(tr.node, tr.kind, outcome, tr.dur); reason != "" && tr.anomaly == "" {
			tr.anomaly = reason
		}
	}
	keep := tr.headKeep || tr.anomaly != ""
	switch {
	case !keep:
		tr.keptLabel = ""
	case tr.headKeep:
		tr.keptLabel = "head"
	default:
		tr.keptLabel = "tail"
	}
	t := tr.tracer
	id, anomaly, kept := tr.id, tr.anomaly, tr.keptLabel
	node, url, kind, nspans := tr.node, tr.url, tr.kind, len(tr.spans)
	dur := tr.dur
	tr.mu.Unlock()

	if !keep {
		t.dropped.Inc()
		return
	}
	if kept == "head" {
		t.sampled.Inc()
	} else {
		t.keptTail.Inc()
	}
	t.ring.put(tr)
	lvl := t.log.Debug
	if anomaly != "" {
		lvl = t.log.Info
	}
	lvl("trace completed",
		"trace_id", id.String(), "node", node, "kind", kind, "url", url,
		"outcome", outcome, "anomaly", anomaly, "kept", kept,
		"spans", nspans, "duration", dur)
}

// snapshotView renders the trace for JSON exposition.
func (tr *Trace) snapshotView() view {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	v := view{
		ID:      tr.id.String(),
		Node:    tr.node,
		Kind:    tr.kind,
		URL:     tr.url,
		Start:   tr.start,
		Outcome: tr.outcome,
		Anomaly: tr.anomaly,
		Kept:    tr.keptLabel,
		Spans:   append([]Span(nil), tr.spans...),
	}
	v.DurationUS = tr.dur.Microseconds()
	return v
}
