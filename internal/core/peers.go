package core

import (
	"crypto/md5"
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
	"strings"
	"sync"
	"time"

	"summarycache/internal/bloom"
	"summarycache/internal/hashing"
	"summarycache/internal/icp"
	"summarycache/internal/tracing"
)

// Bounds on the geometry a peer's summary may announce (see checkGeometry).
// Every lookup probes every replica, deriving one index per function from
// the URL's signature (and hashing the URL again for every 128 bits past
// the first), and one datagram sizes the replica's bit array, so an
// unbounded announcement lets one peer slow every lookup or make this node
// allocate up to bloom.MaxBits/8 bytes.
const (
	maxReplicaK  = 16 // hash functions: the lookup's stack index buffer; §V-E recommends 4
	maxBitsRatio = 16 // a member's bit array against the local directory's, both ways
)

// errNotMember rejects a DIRUPDATE from an address that is not registered.
var errNotMember = errors.New("core: update from an unregistered peer")

// replica is this node's copy of one neighbor's summary: "an additional bit
// array is added to the data structure for each neighbor. The structure is
// initialized when the first summary update message is received from the
// neighbor" (§VI). A registered peer's replica lives on its record, under
// Node.mu; the zero value is no replica.
type replica struct {
	filter *bloom.Filter // nil until the first update
	// gen counts the updates applied to this filter; it is the replica's
	// generation in decision audits (a stale prediction names the
	// generation it was made against).
	gen     uint64
	changed time.Time // when the last update was applied: the replica's age
	// What the peer's update stream has cost on the wire and how it arrives
	// (the paper's Figs. 6–8 overhead, per peer). A rebuilt filter keeps
	// them: they describe the relationship, not one filter.
	full, delta, bytesIn uint64
}

// checkGeometry rejects an announced hash family or bit-array size no
// replica may take: more than maxReplicaK functions, an empty bit array,
// or, unless local is 0, one more than maxBitsRatio times larger or smaller
// than local, the size of the local directory's.
func checkGeometry(spec hashing.Spec, bits, local uint64) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if spec.FunctionNum > maxReplicaK {
		return fmt.Errorf("core: %d hash functions announced, at most %d", spec.FunctionNum, maxReplicaK)
	}
	if bits == 0 || local != 0 && (bits > local*maxBitsRatio || bits*maxBitsRatio < local) {
		return fmt.Errorf("core: %d bits announced, local directory has %d", bits, local)
	}
	return nil
}

// apply folds a decoded directory update into r, building the filter afresh
// when the update announces a new geometry (every update carries the full
// hash specification "so that receivers can verify the information"), or
// resetting it first when full is set: the full-state bootstrap a recovered
// neighbor sends. The geometry is checked against local (see
// checkGeometry). It returns why the filter was built afresh ("" when it
// was not). A rejected update changes nothing: every check, each flip index
// included, runs before r is touched.
func (r *replica) apply(u *icp.DirUpdate, full bool, local uint64) (rebuilt string, err error) {
	if u == nil {
		return "", icp.ErrNotDirUpdate
	}
	if err := checkGeometry(u.Spec, uint64(u.Bits), local); err != nil {
		return "", err
	}
	if err := u.Validate(); err != nil {
		return "", err
	}
	switch {
	case r.filter == nil || r.filter.Spec() != u.Spec || r.filter.Size() != uint64(u.Bits):
		f, err := bloom.NewFilter(uint64(u.Bits), u.Spec)
		if err != nil {
			return "", err
		}
		rebuilt = "geometry-change"
		if r.filter == nil {
			rebuilt = "first-contact"
		}
		r.filter, r.gen = f, 0
	case full:
		r.filter.Reset()
		rebuilt = "full-reset"
	}
	_ = u.ApplyTo(r.filter) // cannot fail: every index was checked above
	r.gen++
	r.changed = time.Now()
	if full {
		r.full++
	} else {
		r.delta++
	}
	r.bytesIn += uint64(u.WireBytes())
	return rebuilt, nil
}

// probe returns the audit of consulting r for one URL, whose indices idx
// the replica matched or not.
func (r *replica) probe(id string, idx []uint64, match bool, now time.Time) SummaryProbe {
	return SummaryProbe{
		Peer:       id,
		Match:      match,
		BitIndexes: idx,
		Generation: r.gen,
		Age:        now.Sub(r.changed),
		FilterBits: r.filter.Size(),
	}
}

// health fills row's replica columns: how full (and therefore how
// trustworthy) the filter is, how stale it may be, and what the peer's
// update stream has cost. EstFalsePositive is the fill-ratio^k bound
// behind the false-hit rows of Tables 4–5. Without a replica row is left
// as it is.
func (r *replica) health(row *PeerReport) {
	if r.filter == nil {
		return
	}
	fill := r.filter.FillRatio()
	row.HasReplica = true
	row.Generation = r.gen
	row.UpdateAgeMS = float64(time.Since(r.changed).Microseconds()) / 1e3
	row.FillRatio = fill
	row.EstFalsePositive = math.Pow(fill, float64(r.filter.K()))
	row.FilterBits = r.filter.Size()
	row.FullUpdates, row.DeltaUpdates, row.BytesIn = r.full, r.delta, r.bytesIn
}

// SummaryProbe is the audited result of consulting one peer summary for
// one URL: the full evidence behind the nominate/skip decision, recorded
// in a trace's summary-probe span.
type SummaryProbe struct {
	Peer       string        // the replica's identifier (the node layer's UDP address)
	Match      bool          // the summary's verdict: all probed bits set
	BitIndexes []uint64      // the k bit positions probed, under the replica's geometry
	Generation uint64        // updates applied to the replica when it was probed
	Age        time.Duration // how long ago the replica last changed
	FilterBits uint64        // the replica's bit-array size
}

// PeerTable is a standalone set of summary replicas keyed by opaque peer
// names, for a caller that replays DIRUPDATEs without a Node. A Node keeps
// each registered peer's replica on that peer's record and holds no table.
// PeerTable is safe for concurrent use.
type PeerTable struct {
	mu   sync.RWMutex
	reps map[string]replica
	node *Node // set on Node.PeerSummaries's view: Candidates reads it
}

// NewPeerTable creates an empty table.
func NewPeerTable() *PeerTable {
	return &PeerTable{reps: make(map[string]replica)}
}

// ApplyUpdate folds a decoded directory update from peer into its replica,
// creating it on first contact. A rejected update changes nothing.
func (pt *PeerTable) ApplyUpdate(peer string, u *icp.DirUpdate, full bool) error {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	r := pt.reps[peer]
	if _, err := r.apply(u, full, 0); err != nil {
		return fmt.Errorf("core: update from %s: %w", peer, err)
	}
	pt.reps[peer] = r
	return nil
}

// Candidates returns the peers whose summaries indicate url may be cached
// there, sorted. A peer no update has reached is never a candidate.
func (pt *PeerTable) Candidates(url string) []string {
	if pt.node != nil {
		return pt.node.Candidates(url)
	}
	var out []string
	for _, pr := range pt.ProbeAll(url) {
		if pr.Match {
			out = append(out, pr.Peer)
		}
	}
	return out
}

// ProbeAll consults every peer summary for url and returns the full audit:
// one SummaryProbe per peer, sorted, matching and non-matching alike.
func (pt *PeerTable) ProbeAll(url string) []SummaryProbe {
	sig := hashing.Signature(url)
	now := time.Now()
	pt.mu.RLock()
	out := make([]SummaryProbe, 0, len(pt.reps))
	for id, r := range pt.reps {
		idx := r.filter.IndexesSig(nil, url, sig)
		out = append(out, r.probe(id, idx, r.filter.TestIndexes(idx), now))
	}
	pt.mu.RUnlock()
	slices.SortFunc(out, func(a, b SummaryProbe) int { return strings.Compare(a.Peer, b.Peer) })
	return out
}

// MemoryBytes returns the total bytes of the table's replicas — the
// quantity the paper's §V-F extrapolates to ~200 MB for 100 proxies.
func (pt *PeerTable) MemoryBytes() uint64 {
	pt.mu.RLock()
	defer pt.mu.RUnlock()
	var total uint64
	for _, r := range pt.reps {
		total += (r.filter.Size() + 7) / 8
	}
	return total
}

// PeerSummaries returns a table whose Candidates answers live from the
// registered peers' replicas.
//
// Deprecated: use Node.Candidates. The table's other methods see none of
// the node's replicas.
func (n *Node) PeerSummaries() *PeerTable {
	pt := NewPeerTable()
	pt.node = n
	return pt
}

// Candidates returns the registered peers whose replicas indicate url may
// be cached there, in registration order: the peers a lookup would query.
func (n *Node) Candidates(url string) []string { return n.candidates(url, hashing.Signature(url)) }

// candidates is Candidates given sig, url's signature.
func (n *Node) candidates(url string, sig [md5.Size]byte) []string {
	var buf [maxReplicaK]uint64
	var out []string
	n.mu.RLock()
	defer n.mu.RUnlock()
	for _, m := range n.members {
		if r := &m.rep; r.filter != nil && r.filter.TestIndexes(r.filter.IndexesSig(buf[:0], url, sig)) {
			out = append(out, m.id)
		}
	}
	return out
}

// ReplicaSnapshot returns a copy of the bit array of this node's replica of
// the registered peer at addr, and whether there is one. Chaos tests
// compare it against the peer's own Directory.FilterSnapshot to prove the
// mesh reconverged.
func (n *Node) ReplicaSnapshot(addr *net.UDPAddr) ([]byte, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if p := n.byAddr[addrKey(addr)]; p != nil && p.rep.filter != nil {
		return p.rep.filter.Snapshot(), true
	}
	return nil, false
}

// resyncGap is the least time between two resync requests of one peer that
// this node serves (see icp.OptionResyncRequest); a request inside the gap
// is dropped.
const resyncGap = time.Second

// applyUpdate folds one received DIRUPDATE into the replica of its sender,
// which must be registered and announce a geometry inside the bounds for
// this node's directory. A member's update is recorded as a
// dirupdate_apply span when the node is traced. An applied update that
// carries a resync request outside the sender's gap marks the sender and
// wakes the publisher, which answers with one full state.
func (n *Node) applyUpdate(from *net.UDPAddr, u *icp.DirUpdate, options uint32) error {
	var t0 time.Time
	if n.tracer != nil {
		t0 = time.Now()
	}
	rebuilt, err, resync := "", errNotMember, false
	n.mu.Lock()
	p := n.byAddr[addrKey(from)]
	if p != nil {
		rebuilt, err = p.rep.apply(u, options&icp.OptionFullUpdate != 0, n.dir.Bits())
		if err == nil && options&icp.OptionResyncRequest != 0 && time.Since(p.resyncAt) >= resyncGap {
			p.resyncAt, p.resyncDue, resync = time.Now(), true, true
		}
	}
	n.mu.Unlock()
	if resync {
		n.wakePublisher()
	}
	if p != nil && n.tracer != nil {
		n.tracer.Record(n.self, tracing.Span{Name: tracing.SpanDirUpdateApply, Peer: p.id, Start: t0, DurationUS: tracing.Micros(time.Since(t0))})
	}
	if rebuilt != "" {
		n.noteRebuild(p.id, rebuilt)
	}
	return err
}

// noteRebuild counts and logs a replica filter built from scratch: first
// contact, a geometry change or a full-state reset.
func (n *Node) noteRebuild(id, reason string) {
	n.metrics.filterRebuilds.Inc()
	n.log.Info("peer filter rebuilt", "peer", id, "reason", reason)
}
