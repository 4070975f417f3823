// Package meshhealth is the live mesh-health view served at /debug/mesh:
// the report types one proxy's peer table is rendered from, and the handler
// that renders them as HTML or JSON.
//
// The paper's evaluation (Figs. 4–8) rests on four quantities — false
// hits, false misses, stale hits, and inter-proxy message/byte overhead.
// The node layer counts them globally, and charges each event to the
// registered peer whose summary caused it (core's peer record), which is
// what an operator needs to see *which* replica has drifted and what its
// update stream costs.
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
package meshhealth

import "time"

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
// evidence trail; TraceID links into /debug/traces?id= when the request
// was traced.
type FalseDecision struct {
	Kind    string    `json:"kind"` // false_hit | false_miss | stale_hit
	Peer    string    `json:"peer"`
	URL     string    `json:"url"`
	TraceID string    `json:"trace_id,omitempty"`
	Time    time.Time `json:"time"`
}
