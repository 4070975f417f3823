package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"summarycache/internal/bloom"
	"summarycache/internal/hashing"
	"summarycache/internal/icp"
)

// PeerTable holds this proxy's replicas of every neighbor's summary — "an
// additional bit array is added to the data structure for each neighbor.
// The structure is initialized when the first summary update message is
// received from the neighbor." Keys are opaque peer identifiers (the node
// layer uses UDP address strings). PeerTable is safe for concurrent use.
type PeerTable struct {
	mu        sync.RWMutex
	peers     map[string]*peerSummary
	onRebuild func(peer, reason string)
}

type peerSummary struct {
	filter *bloom.Filter
	spec   hashing.Spec
	// updates counts applied DIRUPDATE messages; it doubles as the
	// replica's generation in decision audits (a stale prediction names
	// the generation it was made against).
	updates uint64
	// changed is when the last update was applied — the replica's age.
	changed time.Time
	// Mesh-health accounting, per the paper's overhead quantities
	// (Figs. 6–8): what each peer's summary stream costs on the wire and
	// how it arrives. These survive geometry changes and full resets —
	// they describe the peer relationship, not one replica incarnation.
	fullUpdates  uint64
	deltaUpdates uint64
	bytesIn      uint64
	flipsApplied uint64
	rebuilds     uint64
}

// NewPeerTable creates an empty table.
func NewPeerTable() *PeerTable {
	return &PeerTable{peers: make(map[string]*peerSummary)}
}

// SetRebuildObserver installs a callback fired (outside the table lock)
// whenever a peer's replica filter is built from scratch: first contact,
// a geometry change announced in an update, or a full-state reset. The
// node layer uses it for the filter-rebuild counter and event log.
func (pt *PeerTable) SetRebuildObserver(fn func(peer, reason string)) {
	pt.mu.Lock()
	pt.onRebuild = fn
	pt.mu.Unlock()
}

// Len returns the number of peers with initialized summaries.
func (pt *PeerTable) Len() int {
	pt.mu.RLock()
	defer pt.mu.RUnlock()
	return len(pt.peers)
}

// Peers returns the known peer identifiers, sorted.
func (pt *PeerTable) Peers() []string {
	pt.mu.RLock()
	defer pt.mu.RUnlock()
	out := make([]string, 0, len(pt.peers))
	for id := range pt.peers {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// ApplyUpdate folds a decoded directory update from peer into its replica,
// creating or re-creating the replica when the update announces a new
// geometry (every update message carries the full hash specification "so
// that receivers can verify the information"). When full is true the
// replica is reset before applying — the full-state bootstrap a recovered
// neighbor sends. A rejected update changes nothing: every check, including
// each flip index against the announced bit array, runs before the table
// is touched.
func (pt *PeerTable) ApplyUpdate(peer string, u *icp.DirUpdate, full bool) error {
	if u == nil {
		return icp.ErrNotDirUpdate
	}
	if err := u.Spec.Validate(); err != nil {
		return fmt.Errorf("core: update from %s: %w", peer, err)
	}
	if u.Bits == 0 {
		return fmt.Errorf("core: update from %s announces empty bit array", peer)
	}
	for _, fl := range u.Flips {
		if fl.Index >= u.Bits {
			return fmt.Errorf("core: update from %s: %w: %d >= %d", peer, bloom.ErrIndexRange, fl.Index, u.Bits)
		}
	}
	pt.mu.Lock()
	rebuilt := ""
	ps := pt.peers[peer]
	if ps == nil || ps.spec != u.Spec || ps.filter.Size() != uint64(u.Bits) {
		f, err := bloom.NewFilter(uint64(u.Bits), u.Spec)
		if err != nil {
			pt.mu.Unlock()
			return fmt.Errorf("core: update from %s: %w", peer, err)
		}
		next := &peerSummary{filter: f, spec: u.Spec}
		if ps == nil {
			rebuilt = "first-contact"
		} else {
			rebuilt = "geometry-change"
			// Keep the relationship-level health accounting across the
			// replica rebuild; only the bit array starts over.
			next.fullUpdates = ps.fullUpdates
			next.deltaUpdates = ps.deltaUpdates
			next.bytesIn = ps.bytesIn
			next.flipsApplied = ps.flipsApplied
			next.rebuilds = ps.rebuilds
		}
		ps = next
		pt.peers[peer] = ps
	} else if full {
		ps.filter.Reset()
		rebuilt = "full-reset"
	}
	if err := ps.filter.Apply(u.Flips); err != nil {
		pt.mu.Unlock()
		return fmt.Errorf("core: update from %s: %w", peer, err)
	}
	ps.updates++
	ps.changed = time.Now()
	if full {
		ps.fullUpdates++
	} else {
		ps.deltaUpdates++
	}
	ps.bytesIn += uint64(u.WireBytes())
	ps.flipsApplied += uint64(len(u.Flips))
	if rebuilt != "" {
		ps.rebuilds++
	}
	fn := pt.onRebuild
	pt.mu.Unlock()
	if rebuilt != "" && fn != nil {
		fn(peer, rebuilt)
	}
	return nil
}

// Candidates returns the peers whose summaries indicate url may be cached
// there — the set the node will actually query — sorted. Peers without an
// initialized summary are never candidates (no false misses result beyond
// those the delayed summary already causes: an uninitialized peer is
// treated as unknown, matching the prototype).
func (pt *PeerTable) Candidates(url string) []string {
	return pt.AppendCandidates(nil, url)
}

// AppendCandidates is Candidates appending into dst: with room in dst it
// allocates nothing.
func (pt *PeerTable) AppendCandidates(dst []string, url string) []string {
	start := len(dst)
	var p probe
	pt.mu.RLock()
	for id, ps := range pt.peers {
		if ps.filter.TestIndexes(p.indexes(ps, url)) {
			dst = append(dst, id)
		}
	}
	pt.mu.RUnlock()
	slices.Sort(dst[start:])
	return dst
}

// probe derives a URL's probe indices once for the first replica geometry
// (size and spec) it meets and reuses them for every replica of that
// geometry — every replica, once the mesh agrees on (m, k). A replica of
// any other geometry, or of more than len(buf) functions, is hashed on its
// own.
type probe struct {
	bits uint64
	spec hashing.Spec
	n    int // indices memoized in buf; 0 until the first replica
	buf  [16]uint64
}

// indexes returns url's probe indices under ps's geometry. The slice may be
// shared by every replica of the memoized geometry; callers must not modify
// it.
func (p *probe) indexes(ps *peerSummary, url string) []uint64 {
	if p.n == 0 && ps.spec.FunctionNum <= len(p.buf) {
		p.bits, p.spec = ps.filter.Size(), ps.spec
		p.n = len(ps.filter.Indexes(p.buf[:0], url))
	}
	if p.n > 0 && p.bits == ps.filter.Size() && p.spec == ps.spec {
		return p.buf[:p.n]
	}
	return ps.filter.Indexes(nil, url)
}

// SummaryProbe is the audited result of consulting one peer summary for
// one URL: the full evidence behind the nominate/skip decision, recorded
// in a trace's summary-probe span.
type SummaryProbe struct {
	// Peer is the replica's identifier (the node layer's UDP address).
	Peer string
	// Match is the summary's verdict: all probed bits set.
	Match bool
	// BitIndexes are the k bit positions probed, under the replica's
	// geometry.
	BitIndexes []uint64
	// Generation is the number of updates applied to the replica when it
	// was probed.
	Generation uint64
	// Age is how long ago the replica last changed.
	Age time.Duration
	// FilterBits is the replica's bit-array size.
	FilterBits uint64
}

// ProbeAll consults every initialized peer summary for url and returns
// the full audit: one SummaryProbe per peer, sorted, matching and
// non-matching alike. It is the traced sibling of Candidates — it
// allocates the evidence Candidates deliberately avoids, so the node only
// calls it for requests that carry a trace.
func (pt *PeerTable) ProbeAll(url string) []SummaryProbe {
	var p probe
	now := time.Now()
	pt.mu.RLock()
	defer pt.mu.RUnlock()
	out := make([]SummaryProbe, 0, len(pt.peers))
	for id, ps := range pt.peers {
		idx := p.indexes(ps, url)
		out = append(out, SummaryProbe{
			Peer:       id,
			Match:      ps.filter.TestIndexes(idx),
			BitIndexes: idx,
			Generation: ps.updates,
			Age:        now.Sub(ps.changed),
			FilterBits: ps.filter.Size(),
		})
	}
	slices.SortFunc(out, func(a, b SummaryProbe) int { return strings.Compare(a.Peer, b.Peer) })
	return out
}

// PeerHealth is the mesh-health snapshot of one peer's summary replica:
// how full (and therefore how trustworthy) the filter is, how stale it may
// be, and what the peer's update stream has cost on the wire. Fields map
// onto the paper's evaluation quantities — EstFalsePositive is the
// fill-ratio^k bound behind the false-hit rows of Tables 4–5, and the
// byte counts are the Fig. 7–8 overhead, measured per peer.
type PeerHealth struct {
	// Peer is the replica's identifier (the node layer's UDP address).
	Peer string `json:"peer"`
	// Generation is the number of updates applied to the current replica
	// incarnation (reset when the geometry changes).
	Generation uint64 `json:"generation"`
	// UpdateAge is how long ago the last DIRUPDATE was applied.
	UpdateAge time.Duration `json:"update_age"`
	// FillRatio is the fraction of set bits in the replica.
	FillRatio float64 `json:"fill_ratio"`
	// EstFalsePositive is FillRatio^k — the replica's estimated
	// false-positive probability, hence this peer's expected false-hit
	// contribution per negative document.
	EstFalsePositive float64 `json:"est_false_positive"`
	// FilterBits is the replica's bit-array size; K its hash count.
	FilterBits uint64 `json:"filter_bits"`
	K          int    `json:"k"`
	// FullUpdates / DeltaUpdates split applied updates by kind; BytesIn is
	// their total wire cost; FlipsApplied the total bit-flip records.
	FullUpdates  uint64 `json:"full_updates"`
	DeltaUpdates uint64 `json:"delta_updates"`
	BytesIn      uint64 `json:"bytes_in"`
	FlipsApplied uint64 `json:"flips_applied"`
	// Rebuilds counts replica re-creations (first contact, geometry
	// change, full reset).
	Rebuilds uint64 `json:"rebuilds"`
}

func (ps *peerSummary) health(id string) PeerHealth {
	fill := ps.filter.FillRatio()
	k := ps.filter.K()
	est := 1.0
	for i := 0; i < k; i++ {
		est *= fill
	}
	return PeerHealth{
		Peer:             id,
		Generation:       ps.updates,
		UpdateAge:        time.Since(ps.changed),
		FillRatio:        fill,
		EstFalsePositive: est,
		FilterBits:       ps.filter.Size(),
		K:                k,
		FullUpdates:      ps.fullUpdates,
		DeltaUpdates:     ps.deltaUpdates,
		BytesIn:          ps.bytesIn,
		FlipsApplied:     ps.flipsApplied,
		Rebuilds:         ps.rebuilds,
	}
}

// Health returns the mesh-health snapshot for one peer (false when the
// peer has no initialized replica).
func (pt *PeerTable) Health(peer string) (PeerHealth, bool) {
	pt.mu.RLock()
	defer pt.mu.RUnlock()
	ps := pt.peers[peer]
	if ps == nil {
		return PeerHealth{}, false
	}
	return ps.health(peer), true
}

// Drop removes a peer's replica (Squid's neighbor-failure handling).
func (pt *PeerTable) Drop(peer string) {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	delete(pt.peers, peer)
}

// ReplicaSnapshot returns a copy of the peer's replica bit array (and
// whether a replica exists). Chaos tests compare it against the peer's
// own Directory.FilterSnapshot to prove the mesh reconverged after a
// lossy episode.
func (pt *PeerTable) ReplicaSnapshot(peer string) ([]byte, bool) {
	pt.mu.RLock()
	defer pt.mu.RUnlock()
	ps := pt.peers[peer]
	if ps == nil {
		return nil, false
	}
	return ps.filter.Snapshot(), true
}

// ReplicaState is one peer replica serialized for warm-restart
// persistence: enough to rebuild the peerSummary so a restarted proxy
// resumes nominating peers immediately instead of treating every
// neighbor as unknown until its next full update.
type ReplicaState struct {
	Peer       string       // peer identifier (UDP address string)
	Spec       hashing.Spec // replica hash family
	Bits       uint64       // replica bit-array size
	Generation uint64       // applied-update count (decision-audit generation)
	Filter     []byte       // bit array, bloom.Filter.Snapshot layout
}

// ExportReplicas serializes every initialized peer replica, sorted by
// peer id.
func (pt *PeerTable) ExportReplicas() []ReplicaState {
	pt.mu.RLock()
	defer pt.mu.RUnlock()
	out := make([]ReplicaState, 0, len(pt.peers))
	for id, ps := range pt.peers {
		out = append(out, ReplicaState{
			Peer:       id,
			Spec:       ps.spec,
			Bits:       ps.filter.Size(),
			Generation: ps.updates,
			Filter:     ps.filter.Snapshot(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

// RestoreReplica installs a persisted replica for st.Peer, replacing any
// existing one. The restored replica may be stale — the peer kept
// publishing while this node was down — but a stale replica only costs
// the usual false hits/misses the protocol already tolerates, and the
// next full or delta update repairs it. The rebuild observer fires with
// reason "restored".
func (pt *PeerTable) RestoreReplica(st ReplicaState) error {
	if err := st.Spec.Validate(); err != nil {
		return fmt.Errorf("core: restore replica %s: %w", st.Peer, err)
	}
	f, err := bloom.NewFilter(st.Bits, st.Spec)
	if err != nil {
		return fmt.Errorf("core: restore replica %s: %w", st.Peer, err)
	}
	if err := f.LoadSnapshot(st.Filter); err != nil {
		return fmt.Errorf("core: restore replica %s: %w", st.Peer, err)
	}
	pt.mu.Lock()
	ps := &peerSummary{
		filter:  f,
		spec:    st.Spec,
		updates: st.Generation,
		changed: time.Now(),
	}
	if prev := pt.peers[st.Peer]; prev != nil {
		ps.fullUpdates = prev.fullUpdates
		ps.deltaUpdates = prev.deltaUpdates
		ps.bytesIn = prev.bytesIn
		ps.flipsApplied = prev.flipsApplied
		ps.rebuilds = prev.rebuilds
	}
	ps.rebuilds++
	pt.peers[st.Peer] = ps
	fn := pt.onRebuild
	pt.mu.Unlock()
	if fn != nil {
		fn(st.Peer, "restored")
	}
	return nil
}

// Updates returns how many update messages have been applied for peer.
func (pt *PeerTable) Updates(peer string) uint64 {
	pt.mu.RLock()
	defer pt.mu.RUnlock()
	if ps := pt.peers[peer]; ps != nil {
		return ps.updates
	}
	return 0
}

// MemoryBytes returns the total bytes of all peer summary replicas — the
// quantity the paper's §V-F extrapolates to ~200 MB for 100 proxies.
func (pt *PeerTable) MemoryBytes() uint64 {
	pt.mu.RLock()
	defer pt.mu.RUnlock()
	var total uint64
	for _, ps := range pt.peers {
		total += (ps.filter.Size() + 7) / 8
	}
	return total
}
