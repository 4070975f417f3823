package core

import (
	"context"
	"net"
	"sync/atomic"
	"time"

	"summarycache/internal/tracing"
)

// Decision accounting. The paper's evaluation (Figs. 4–8) rests on four
// quantities — false hits, false misses, stale hits, and inter-proxy
// message/byte overhead. The node counts them globally, and charges each
// decision to the registered peer whose summary caused it, on that peer's
// record, which is what an operator needs to see *which* replica has
// drifted and what its update stream costs (the /debug/mesh view).
//
// Taxonomy (per lookup, as observed live):
//
//   - local hit: the local cache held a fresh copy.
//   - remote hit: a peer's summary nominated it, the peer confirmed over
//     ICP, and delivery succeeded with a fresh copy.
//   - false hit: a peer's summary nominated it but the peer answered MISS
//     (or could not deliver) — the summary lied; attributed to that peer.
//   - false miss: a peer's summary said no, but an audit ICP query
//     contradicted the negative probe with a HIT — the replica was stale
//     the other way; attributed to that peer.
//   - stale hit: the peer delivered a copy whose version did not match
//     the request — counted, then treated as a miss.
//
// The node charges what a lookup decides — nominations, candidates that
// all answered MISS, audit contradictions — and the caller that fetched a
// claimed hit reports how it was delivered (Delivered). A peer that is not
// registered is charged nothing.

// recentCap bounds the ring of recent false decisions.
const recentCap = 64

// PeerStats is the snapshot of the decisions charged to one peer — the
// Stats() side of the Stats()==scrape parity contract for the
// summarycache_peer_* decision families.
type PeerStats struct {
	// Nominations counts lookups in which this peer's summary matched.
	Nominations uint64 `json:"nominations"`
	// RemoteHits counts fresh copies this peer delivered.
	RemoteHits uint64 `json:"remote_hits"`
	// FalseHits counts nominations this peer's summary got wrong.
	FalseHits uint64 `json:"false_hits"`
	// FalseMisses counts audit contradictions of this peer's negative
	// probes.
	FalseMisses uint64 `json:"false_misses"`
	// StaleHits counts stale-version deliveries by this peer.
	StaleHits uint64 `json:"stale_hits"`
}

// Divergence is the observed per-peer summary divergence: the fraction of
// this peer's nominations that turned out to be lies. It is the live
// counterpart of the replica's estimated false-positive probability.
func (s PeerStats) Divergence() float64 {
	if s.Nominations == 0 {
		return 0
	}
	return float64(s.FalseHits) / float64(s.Nominations)
}

// FalseDecision is one recent false decision kept for the /debug/mesh
// evidence trail; TraceID names the request's trace at /debug/traces?id=
// when it was traced.
type FalseDecision struct {
	Kind    string    `json:"kind"` // false_hit | false_miss | stale_hit
	Peer    string    `json:"peer"`
	URL     string    `json:"url"`
	TraceID string    `json:"trace_id,omitempty"`
	Time    time.Time `json:"time"`
}

// PeerReport is one peer row of the mesh table: replica health, liveness,
// wire accounting, and attributed decisions.
type PeerReport struct {
	Peer string `json:"peer"`
	// Up reports the peer's liveness state is up; Breaker names that state
	// ("up", "down", "probing"; empty when the proxy's fetches never
	// consult it).
	Up      bool   `json:"up"`
	Breaker string `json:"breaker,omitempty"`

	// Replica health (zeroed when no replica is initialized yet).
	HasReplica       bool    `json:"has_replica"`
	Generation       uint64  `json:"generation"`
	UpdateAgeMS      float64 `json:"update_age_ms"`
	FillRatio        float64 `json:"fill_ratio"`
	EstFalsePositive float64 `json:"est_false_positive"`
	FilterBits       uint64  `json:"filter_bits"`

	// Wire accounting: updates and bytes received from the peer, and
	// updates and bytes sent to it.
	FullUpdates  uint64 `json:"full_updates"`
	DeltaUpdates uint64 `json:"delta_updates"`
	BytesIn      uint64 `json:"bytes_in"`
	UpdatesSent  uint64 `json:"updates_sent"`
	BytesOut     uint64 `json:"bytes_out"`

	// Decisions are the attributed lookup outcomes; Divergence is
	// FalseHits/Nominations.
	Decisions  PeerStats `json:"decisions"`
	Divergence float64   `json:"divergence"`
}

// Delivery is how the peer a lookup resolved to delivered the document.
type Delivery int

// The deliveries.
const (
	DeliveredFresh Delivery = iota // the wanted version: a remote hit
	NotDelivered                   // no copy arrived: a false hit
	DeliveredStale                 // another version arrived: a stale hit
)

// Delivered charges how the peer at addr delivered the copy of url its HIT
// claimed. Only a fresh copy counts as the peer's remote hit, which makes
// no string of url; a false decision's record keeps one. The trace in ctx,
// if any, is linked from that record.
func (n *Node) Delivered(ctx context.Context, addr *net.UDPAddr, url []byte, d Delivery) {
	p := n.member(addr)
	if p == nil {
		return
	}
	switch d {
	case DeliveredFresh:
		p.remoteHits.Add(1)
	case NotDelivered:
		n.noteFalse(p, &p.falseHits, "false_hit", string(url), tracing.FromContext(ctx))
	case DeliveredStale:
		n.noteFalse(p, &p.staleHits, "stale_hit", string(url), tracing.FromContext(ctx))
	}
}

// noteFalse charges one false decision of the given kind to p's counter c
// and keeps it in the recent ring.
func (n *Node) noteFalse(p *peer, c *atomic.Uint64, kind, url string, tr *tracing.Trace) {
	c.Add(1)
	d := FalseDecision{Kind: kind, Peer: p.id, URL: url, TraceID: traceID(tr), Time: time.Now()}
	n.recentMu.Lock()
	n.recent[n.falseSeen%recentCap] = d
	n.falseSeen++
	n.recentMu.Unlock()
}

// RecentFalse returns the retained false decisions, newest first.
func (n *Node) RecentFalse() []FalseDecision {
	n.recentMu.Lock()
	defer n.recentMu.Unlock()
	out := make([]FalseDecision, min(n.falseSeen, recentCap))
	for i := range out {
		out[i] = n.recent[(n.falseSeen-1-i)%recentCap]
	}
	return out
}

// decisions snapshots the counts charged to p.
func (p *peer) decisions() PeerStats {
	return PeerStats{
		Nominations: p.nominations.Load(),
		RemoteHits:  p.remoteHits.Load(),
		FalseHits:   p.falseHits.Load(),
		FalseMisses: p.falseMisses.Load(),
		StaleHits:   p.staleHits.Load(),
	}
}

// PeerReports snapshots one mesh-health row per registered peer, in
// registration order: its liveness, its replica's health, the updates sent
// to it and the decisions charged to it. Breaker is left empty when the
// fetch path never consults the liveness (a negative BreakerThreshold).
func (n *Node) PeerReports() []PeerReport {
	n.mu.RLock()
	rows := make([]PeerReport, len(n.members))
	for i, p := range n.members {
		rows[i] = PeerReport{
			Peer:        p.id,
			Up:          p.state == PeerUp,
			UpdatesSent: p.updates.Load(),
			BytesOut:    p.bytes.Load(),
			Decisions:   p.decisions(),
		}
		rows[i].Divergence = rows[i].Decisions.Divergence()
		if n.cfg.BreakerThreshold >= 0 {
			rows[i].Breaker = p.state.String()
		}
		p.rep.health(&rows[i])
	}
	n.mu.RUnlock()
	return rows
}
