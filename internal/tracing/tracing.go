// Package tracing is a request-scoped distributed-tracing subsystem for
// the SC-ICP mesh (stdlib-only). Every proxy request can carry a Trace
// whose spans cover the local cache lookup and its cache reads and
// writes, the summary probe, the ICP query round-trip and each peer's
// reply, the sibling fetch, and the origin fetch. The summary-probe span
// carries a decision audit per consulted peer — the exact Bloom bit
// indices probed, the peer replica's generation and age at probe time,
// the predicted verdict, and the actual outcome once the ICP reply
// resolves — so every false hit and false miss in the mesh is
// self-explaining rather than an anonymous tick of a counter.
//
// Spans are also the mesh's one stage-timing mechanism: every span, and
// every span of work outside a request (Tracer.Record), reaches the
// tracer's SpanSink, which perfwatch turns into per-stage histograms.
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
	"encoding/binary"
	"hash/fnv"
	"log/slog"
	"math/rand/v2"
	"net"
	"strconv"
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
	v, err := strconv.ParseUint(s, 16, 64)
	return ID(v), err == nil && len(s) <= 16
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
	binary.BigEndian.PutUint32(b[:], reqNum)
	h.Write(b[:])
	return ID(h.Sum64())
}

// Span names used across the mesh. Each is also a perfwatch stage: a
// span's duration lands in the stage histogram of its name.
const (
	SpanLocalLookup     = "local_lookup"     // document cache probe
	SpanSummaryProbe    = "summary_probe"    // the pass over the peer summaries
	SpanICPQuery        = "icp_query"        // the ICP fan-out round-trip
	SpanICPReply        = "icp_reply"        // one peer's answer, timed from the send
	SpanICPAnswer       = "icp_answer"       // answering side of a peer query
	SpanPeerFetch       = "peer_fetch"       // sibling cache-only HTTP fetch
	SpanOriginFetch     = "origin_fetch"     // origin (or parent) HTTP fetch
	SpanLRUGet          = "lru_get"          // one document-cache read
	SpanLRUInsert       = "lru_insert"       // one stored document-cache write
	SpanDirUpdateEncode = "dirupdate_encode" // building outgoing DIRUPDATE datagrams
	SpanDirUpdateApply  = "dirupdate_apply"  // folding a received DIRUPDATE into a replica
)

// Micros converts d to a Span's DurationUS, keeping its nanoseconds.
func Micros(d time.Duration) float64 { return float64(d) / 1e3 }

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

// Audit is one consulted peer summary in a summary_probe span: why the
// peer was (or was not) nominated, against which replica state, and what
// the peer then answered.
type Audit struct {
	Peer      string `json:"peer"`
	Predicted string `json:"predicted"` // the summary's verdict: "hit" or "miss"
	Actual    string `json:"actual"`    // the answer: "hit", "miss", "no_reply" or "not_queried"
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

// Span is one timed step of a trace, or of a node's work outside any
// request (Tracer.Record).
type Span struct {
	Name string `json:"name"`
	// Peer is the remote party for per-peer spans (ICP replies and
	// answers, sibling fetches, applied DIRUPDATEs).
	Peer  string    `json:"peer,omitempty"`
	Start time.Time `json:"start"`
	// DurationUS is the span length in microseconds, to the nanosecond.
	DurationUS float64 `json:"duration_us"`
	// ReqNum is the ICP RequestNumber for query/answer spans — the
	// correlation key IDFromICP hashes.
	ReqNum uint32 `json:"icp_reqnum,omitempty"`
	// Predicted is the verdict an answering peer was nominated with.
	Predicted string `json:"predicted,omitempty"`
	// Actual is what really happened once the ICP reply or fetch resolved
	// ("hit", "hit_obj", "miss", "all_miss", "ok", "failed",
	// "breaker_open").
	Actual string `json:"actual,omitempty"`
	// Retries is how many extra attempts an origin-fetch span needed after
	// retryable failures (0 means it succeeded or died on the first try).
	Retries int    `json:"retries,omitempty"`
	Err     string `json:"error,omitempty"`
	// Audits are a summary_probe span's consulted summaries, one per peer
	// replica, in registration order.
	Audits []Audit `json:"audits,omitempty"`
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
	// DurationUS is start-to-Finish in microseconds, to the nanosecond.
	DurationUS float64 `json:"duration_us"`
	Spans      []Span  `json:"spans"`
}

// SpanSink observes every span and every completed trace as they happen,
// regardless of the retention (sampling) decision — spans are recorded on
// all traces, sampled or not, so a sink sees the full population. It is
// the only way the perfwatch subsystem is fed: it decomposes end-to-end
// latency into per-stage histograms.
//
// A sink only observes: retention is decided by head sampling and the
// trace's own anomaly marks. Implementations must be concurrency-safe and
// must not call back into the Trace or Tracer (OnFinish is invoked under
// the trace's lock).
type SpanSink interface {
	// OnSpan is called once per span added to a trace or passed to
	// Tracer.Record.
	OnSpan(node string, s Span)
	// OnFinish is called once per completed trace with its kind (request
	// or icp_answer), final outcome and end-to-end duration.
	OnFinish(node, kind, outcome string, d time.Duration)
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
	// not) — see SpanSink.
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
		DurationUS: Micros(time.Since(start)),
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

// Record delivers a span of node's work that belongs to no request trace
// (a DIRUPDATE encoded or applied, a peer's cache read) to the tracer's
// SpanSink. It does nothing on a nil Tracer or one without a sink.
func (t *Tracer) Record(node string, s Span) {
	if t == nil || t.sink == nil {
		return
	}
	t.sink.OnSpan(node, s)
}

// --- Trace methods (all nil-safe) ---

// AddSpan appends a span and delivers it through the tracer's Record
// (outside the trace lock).
func (tr *Trace) AddSpan(s Span) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	node := tr.node
	tr.mu.Unlock()
	tr.tracer.Record(node, s)
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
	// The sink sees every completed trace, kept or not, so the per-stage
	// histograms account the full population.
	if sink := tr.tracer.sink; sink != nil {
		sink.OnFinish(tr.node, tr.kind, outcome, tr.dur)
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
	v.DurationUS = Micros(tr.dur)
	return v
}
