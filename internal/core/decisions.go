package core

import (
	"context"
	"net"
	"sync/atomic"
	"time"

	"summarycache/internal/meshhealth"
	"summarycache/internal/tracing"
)

// Decision accounting: the paper's taxonomy (meshhealth's package doc)
// charged to the registered peer whose summary caused each outcome, on
// that peer's record. The node charges what a lookup decides — nominations,
// candidates that all answered MISS, audit contradictions — and the caller
// that fetched a claimed hit reports how it was delivered (Delivered). A
// peer that is not registered is charged nothing.

// recentCap bounds the ring of recent false decisions.
const recentCap = 64

// Delivery is how the peer a lookup resolved to delivered the document.
type Delivery int

// The deliveries.
const (
	DeliveredFresh Delivery = iota // the wanted version: a remote hit
	NotDelivered                   // no copy arrived: a false hit
	DeliveredStale                 // another version arrived: a stale hit
)

// Delivered charges how the peer at addr delivered the copy of url its HIT
// claimed. Only a fresh copy counts as the peer's remote hit. The trace in
// ctx, if any, is linked from the false-decision record.
func (n *Node) Delivered(ctx context.Context, addr *net.UDPAddr, url string, d Delivery) {
	p := n.member(addr)
	if p == nil {
		return
	}
	switch d {
	case DeliveredFresh:
		p.remoteHits.Add(1)
	case NotDelivered:
		n.noteFalse(p, &p.falseHits, "false_hit", url, tracing.FromContext(ctx))
	case DeliveredStale:
		n.noteFalse(p, &p.staleHits, "stale_hit", url, tracing.FromContext(ctx))
	}
}

// noteFalse charges one false decision of the given kind to p's counter c
// and keeps it in the recent ring.
func (n *Node) noteFalse(p *peer, c *atomic.Uint64, kind, url string, tr *tracing.Trace) {
	c.Add(1)
	d := meshhealth.FalseDecision{Kind: kind, Peer: p.id, URL: url, TraceID: traceID(tr), Time: time.Now()}
	n.recentMu.Lock()
	n.recent[n.falseSeen%recentCap] = d
	n.falseSeen++
	n.recentMu.Unlock()
}

// RecentFalse returns the retained false decisions, newest first.
func (n *Node) RecentFalse() []meshhealth.FalseDecision {
	n.recentMu.Lock()
	defer n.recentMu.Unlock()
	out := make([]meshhealth.FalseDecision, min(n.falseSeen, recentCap))
	for i := range out {
		out[i] = n.recent[(n.falseSeen-1-i)%recentCap]
	}
	return out
}

// decisions snapshots the counts charged to p.
func (p *peer) decisions() meshhealth.PeerStats {
	return meshhealth.PeerStats{
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
func (n *Node) PeerReports() []meshhealth.PeerReport {
	n.mu.RLock()
	rows := make([]meshhealth.PeerReport, len(n.members))
	for i, p := range n.members {
		rows[i] = meshhealth.PeerReport{
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
