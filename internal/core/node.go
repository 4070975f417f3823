package core

import (
	"context"
	"crypto/md5"
	"fmt"
	"log/slog"
	"net"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"summarycache/internal/bloom"
	"summarycache/internal/hashing"
	"summarycache/internal/icp"
	"summarycache/internal/lru"
	"summarycache/internal/obs"
	"summarycache/internal/tracing"
)

// DefaultQueryTimeout bounds how long a node waits for ICP replies before
// treating unanswered queries as misses (Squid behaves the same way).
const DefaultQueryTimeout = 500 * time.Millisecond

// DefaultMaxFlipsPerUpdate keeps update datagrams near one Ethernet MTU
// (the prototype "sends updates whenever there are enough changes to fill
// an IP packet": 360 flips ≈ 32 + 1440 bytes).
const DefaultMaxFlipsPerUpdate = 360

// NodeConfig configures a summary-cache ICP node.
type NodeConfig struct {
	// ListenAddr is the UDP address to bind ("127.0.0.1:0" for tests).
	ListenAddr string
	// Directory sizes the local summary and sets its publication rule. A
	// zero UpdateThreshold becomes 0.01 and a zero MinPending becomes
	// MaxFlipsPerUpdate (one full datagram), so a node publishes once 1%
	// of its directory is new and the flips fill a packet. PublishNow
	// always bypasses the rule.
	Directory bloom.DirectoryConfig
	// HasDocument answers peers' ICP queries against the real cache. It
	// must be fast and non-blocking; it runs on the receive goroutine.
	HasDocument func(url string) bool
	// ReadDocument, when set, answers queries that accept inline objects
	// (icp.FlagHitObj, sent by LookupObject): a document whose reply fits
	// icp.MaxHitObjLen goes back inside a HIT_OBJ with its version. Like
	// HasDocument it runs on the receive goroutine. Nil: every hit is a
	// plain HIT.
	ReadDocument func(url string) (body []byte, version int64, ok bool)
	// MaxFlipsPerUpdate bounds each DIRUPDATE datagram (default ~MTU).
	MaxFlipsPerUpdate int
	// PublishInterval, when positive, additionally publishes pending
	// deltas on a timer — the paper's alternative to the threshold rule
	// ("the update can occur upon regular time intervals"). The paper
	// estimates the thresholds translate to "an update frequency of
	// roughly every five minutes to an hour" on its traces. The node's
	// publisher goroutine runs the timer, as it runs every publication.
	PublishInterval time.Duration
	// QueryTimeout bounds Lookup's wait for ICP replies.
	QueryTimeout time.Duration
	// Metrics, when set, is the registry the node instruments itself
	// against; series carry a node="<udp addr>" label so several nodes
	// can share one registry. Nil: a private registry is created (the
	// counters behind Stats always exist either way).
	Metrics *obs.Registry
	// Logger, when set, receives structured protocol events (peer
	// up/down transitions, summary publications, peer filter rebuilds).
	// Nil: events are discarded.
	Logger *slog.Logger
	// SocketWrapper, when set, decorates the node's bound UDP socket
	// before use — the fault-injection hook (internal/faultnet) that lets
	// tests and chaos benchmarks impose loss, delay, duplication and
	// reordering on this node's ICP traffic. Nil: the raw socket, with no
	// interposed call.
	SocketWrapper icp.SocketWrapper
	// Tracer, when set, records the node's side of distributed request
	// traces: on a traced Lookup, the summary_probe span with its decision
	// audit (which summaries matched, at which bit indices and generation,
	// and what each peer actually answered), one icp_reply span per answer
	// and the icp_query span; answering-side spans for incoming peer
	// queries, correlated with the querier's trace via the ICP
	// RequestNumber; and, through Tracer.Record, a dirupdate_encode span
	// per publication and a dirupdate_apply span per member's DIRUPDATE.
	// Nil: tracing disabled; no path reads the clock for it.
	Tracer *tracing.Tracer
	// FalseMissAuditEvery, when positive, samples every Nth unresolved
	// lookup (no remote hit) and ICP-queries the peers whose summaries
	// said NO. A HIT answer contradicts the negative probe — the paper's
	// false miss, observed live. The audit adds one extra query fan-out
	// per sampled lookup and never changes the lookup result; it is
	// accounting only. 0 (default): disabled.
	FalseMissAuditEvery int
	// QueryAll makes the node classic ICP, the paper's "query always": it
	// keeps no summary and asks every registered peer on every lookup, in
	// registration order, so the first peer added is the one asked for the
	// object. It sends no DIRUPDATE and ignores those it receives, and an
	// all-MISS round is an ordinary miss. No summary predicts anything, so
	// Directory and FalseMissAuditEvery are unused.
	QueryAll bool
	// BreakerThreshold takes an up peer down after this many consecutive
	// failed fetches reported to FetchDone. 0: DefaultBreakerThreshold;
	// negative: AdmitFetch admits every fetch and FetchDone records nothing.
	BreakerThreshold int
	// BreakerCooldown is how long a down peer waits before AdmitFetch admits
	// one probing fetch. 0: DefaultBreakerCooldown; negative: no wait.
	BreakerCooldown time.Duration
}

// NodeStats counts a node's protocol activity.
type NodeStats struct {
	QueriesSent      uint64 // ICP queries issued by Lookup
	QueriesReceived  uint64 // peer queries answered
	QueriesRefused   uint64 // queries from unregistered addresses, dropped unanswered
	RemoteHits       uint64 // Lookups resolved by a peer HIT
	FalseHits        uint64 // Lookups whose candidates all replied MISS
	FalseMisses      uint64 // audit answers contradicting a negative probe
	AuditQueries     uint64 // extra ICP queries sent by the false-miss audit
	UpdatesSent      uint64 // DIRUPDATE datagrams sent
	UpdatesReceived  uint64 // DIRUPDATE datagrams applied
	UpdatesRejected  uint64 // DIRUPDATE datagrams refused (unregistered sender, bad geometry or flip index)
	UpdateEvents     uint64 // threshold-triggered publications
	FlipsPublished   uint64 // bit flips shipped in updates
	UpdateFullBytes  uint64 // advertised bytes in full-state shipments
	UpdateDeltaBytes uint64 // advertised bytes in delta publications
	FilterRebuilds   uint64 // peer replicas created, re-created or reset
	Recoveries       uint64 // warm-restart recoveries applied to this node
	// Resync requests (icp.OptionResyncRequest) sent and peers' ones answered.
	ResyncRequestsSent, ResyncRequestsServed uint64
	// DirectoryUnderflows counts directory removals that found a zero
	// counter (Directory.Underflows). The cache's ordered change stream,
	// and a warm restart's rebuild from the cache's keys, keep it 0.
	DirectoryUnderflows uint64
	// QueryRTTSeconds summarizes the Lookup ICP fan-out round-trip-time
	// histogram (summarycache_node_query_rtt_seconds).
	QueryRTTSeconds obs.HistogramSnapshot
	UDP             icp.Stats
	// Deprecated: FlipsCoalesced is always 0; every journaled flip ships.
	FlipsCoalesced uint64
}

// nodeMetrics are the registry-backed instruments behind NodeStats: the
// Stats snapshot and the /metrics exposition read the very same counters,
// so the two can never disagree.
type nodeMetrics struct {
	queriesSent, queriesRecv          *obs.Counter
	queriesRefused                    *obs.Counter
	remoteHits, falseHits             *obs.Counter
	falseMisses, auditQueries         *obs.Counter
	updatesSent, updatesRecv          *obs.Counter
	updatesRejected                   *obs.Counter
	updateEvents                      *obs.Counter
	flipsPublished                    *obs.Counter
	updateFullBytes, updateDeltaBytes *obs.Counter
	filterRebuilds                    *obs.Counter
	recoveries                        *obs.Counter
	resyncSent, resyncServed          *obs.Counter
	queryRTT                          *obs.Histogram
}

func newNodeMetrics(reg *obs.Registry, labels obs.Labels) nodeMetrics {
	return nodeMetrics{
		queriesSent: reg.Counter("summarycache_node_queries_sent_total",
			"ICP queries issued by Lookup", labels),
		queriesRecv: reg.Counter("summarycache_node_queries_received_total",
			"peer ICP queries answered", labels),
		queriesRefused: reg.Counter("summarycache_node_queries_refused_total",
			"ICP queries from unregistered addresses, dropped unanswered", labels),
		remoteHits: reg.Counter("summarycache_node_remote_hits_total",
			"Lookups resolved by a peer HIT", labels),
		falseHits: reg.Counter("summarycache_node_false_hits_total",
			"Lookups whose queried candidates all replied MISS", labels),
		falseMisses: reg.Counter("summarycache_node_false_misses_total",
			"audit ICP answers contradicting a negative summary probe", labels),
		auditQueries: reg.Counter("summarycache_node_audit_queries_total",
			"extra ICP queries sent by the false-miss audit", labels),
		updatesSent: reg.Counter("summarycache_node_updates_sent_total",
			"DIRUPDATE messages sent", labels),
		updatesRecv: reg.Counter("summarycache_node_updates_received_total",
			"DIRUPDATE messages applied", labels),
		updatesRejected: reg.Counter("summarycache_node_updates_rejected_total",
			"DIRUPDATE messages refused without touching a replica (unregistered sender, bad geometry or flip index)", labels),
		updateEvents: reg.Counter("summarycache_node_update_events_total",
			"threshold- or timer-triggered summary publications", labels),
		flipsPublished: reg.Counter("summarycache_node_flips_published_total",
			"bit flips shipped in directory updates", labels),
		updateFullBytes: reg.Counter("summarycache_node_update_full_bytes_total",
			"advertised DIRUPDATE bytes in full-state shipments", labels),
		updateDeltaBytes: reg.Counter("summarycache_node_update_delta_bytes_total",
			"advertised DIRUPDATE bytes in delta publications", labels),
		filterRebuilds: reg.Counter("summarycache_node_filter_rebuilds_total",
			"peer summary replicas created, re-created or reset", labels),
		recoveries: reg.Counter("summarycache_node_recoveries_total",
			"warm-restart recoveries applied (directory rebuilt from the recovered cache)", labels),
		resyncSent: reg.Counter("summarycache_node_resync_requests_sent_total",
			"full-state shipments that asked the peer for its full state in return", labels),
		resyncServed: reg.Counter("summarycache_node_resync_requests_served_total",
			"peers' resync requests answered with this node's full state", labels),
		queryRTT: reg.Histogram("summarycache_node_query_rtt_seconds",
			"round-trip time of Lookup's ICP query fan-out", labels, nil),
	}
}

// Node is a summary-cache enhanced ICP endpoint: it answers peer queries
// from the local cache, maintains the local Directory and publishes its
// deltas when the update threshold trips, replicates peer summaries from
// incoming DIRUPDATEs, and resolves local misses by querying only the
// peers whose summaries show promise. It learns from and answers only its
// registered peers. With NodeConfig.QueryAll it is a classic ICP endpoint
// instead.
type Node struct {
	cfg  NodeConfig
	conn *icp.Conn
	self string // the bound address, as every series and trace names it
	dir  *bloom.Directory

	// mu guards the registered peers: members in registration order,
	// byAddr finding one from a datagram's source without allocating, and
	// their replicas, resync requests and liveness; probeLimit is the
	// running prober's FailureThreshold.
	mu         sync.RWMutex
	members    []*peer
	byAddr     map[netip.AddrPort]*peer
	probeLimit int

	// The publisher goroutine is the only sender of DIRUPDATEs. wake (one
	// slot) carries threshold trips from the cache's change hook and resync
	// requests from the receive goroutine without blocking either. jobs and
	// results carry the synchronous publications (see publish). stop closes
	// on Close, and pubDone once the publisher exits.
	wake    chan struct{}
	jobs    chan *peer
	results chan error
	stop    chan struct{}
	pubDone chan struct{}
	// The publisher's own arrays, reused by every publication: the flips
	// drained, the messages they split into and the members sent to.
	pubFlips []bloom.Flip
	pubMsgs  []icp.Message
	pubPeers []*peer

	// lastAdvert is when this node last shipped any summary state (delta
	// publication or full-state bootstrap), unix nanos; 0 = never.
	lastAdvert atomic.Int64
	// auditSeq drives FalseMissAuditEvery sampling.
	auditSeq atomic.Uint64

	// recent is the ring of the latest false decisions charged to peers;
	// falseSeen counts every one, so the newest is at (falseSeen-1)%recentCap.
	recentMu  sync.Mutex
	recent    [recentCap]FalseDecision
	falseSeen int

	metrics nodeMetrics
	reg     *obs.Registry
	log     *slog.Logger
	tracer  *tracing.Tracer // nil: tracing disabled

	closeOnce sync.Once // makes Close idempotent and race-free
	closeErr  error     // the first Close's result, returned by all
}

// NewNode opens the UDP endpoint and starts serving.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.HasDocument == nil {
		return nil, fmt.Errorf("core: NodeConfig.HasDocument is required")
	}
	if cfg.MaxFlipsPerUpdate <= 0 {
		cfg.MaxFlipsPerUpdate = DefaultMaxFlipsPerUpdate
	}
	if cfg.Directory.UpdateThreshold == 0 {
		cfg.Directory.UpdateThreshold = 0.01
	}
	if cfg.Directory.MinPending <= 0 {
		cfg.Directory.MinPending = cfg.MaxFlipsPerUpdate
	}
	if cfg.QueryTimeout <= 0 {
		cfg.QueryTimeout = DefaultQueryTimeout
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = DefaultBreakerThreshold
	}
	if cfg.BreakerCooldown == 0 {
		cfg.BreakerCooldown = DefaultBreakerCooldown
	}
	if cfg.QueryAll {
		// The smallest directory stands in for the summary a query-all node
		// does not keep: nothing ever writes it, so it reads empty.
		cfg.Directory = bloom.DirectoryConfig{}
		cfg.FalseMissAuditEvery = 0
	}
	dir, err := bloom.NewDirectory(cfg.Directory)
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:     cfg,
		dir:     dir,
		byAddr:  make(map[netip.AddrPort]*peer),
		log:     obs.OrNop(cfg.Logger),
		tracer:  cfg.Tracer,
		wake:    make(chan struct{}, 1),
		jobs:    make(chan *peer),
		results: make(chan error),
		stop:    make(chan struct{}),
		pubDone: make(chan struct{}),
	}
	conn, err := icp.ListenWith(cfg.ListenAddr, icp.ListenConfig{
		Handler: n.handle,
		Wrap:    cfg.SocketWrapper,
	})
	if err != nil {
		return nil, err
	}
	n.conn = conn
	n.self = conn.Addr().String()
	n.initMetrics(cfg.Metrics)
	go n.publisher(cfg.PublishInterval)
	conn.Start() // all handler dependencies are wired; begin serving
	return n, nil
}

// initMetrics wires the node's instruments into reg (or a private registry
// when nil), labeling every series with the node's bound address, and
// re-exports the UDP endpoint's own counters so netstat-style accounting
// and protocol counters live in one exposition.
func (n *Node) initMetrics(reg *obs.Registry) {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	n.reg = reg
	labels := obs.L("node", n.self)
	n.metrics = newNodeMetrics(reg, labels)
	n.log = n.log.With("node", n.self)
	st := func(f func(icp.Stats) uint64) func() uint64 {
		return func() uint64 { return f(n.conn.Stats()) }
	}
	reg.CounterFunc("summarycache_udp_sent_total",
		"UDP datagrams sent by the ICP endpoint", labels,
		st(func(s icp.Stats) uint64 { return s.Sent }))
	reg.CounterFunc("summarycache_udp_received_total",
		"UDP datagrams received by the ICP endpoint", labels,
		st(func(s icp.Stats) uint64 { return s.Received }))
	reg.CounterFunc("summarycache_udp_sent_bytes_total",
		"UDP bytes sent by the ICP endpoint", labels,
		st(func(s icp.Stats) uint64 { return s.SentBytes }))
	reg.CounterFunc("summarycache_udp_received_bytes_total",
		"UDP bytes received by the ICP endpoint", labels,
		st(func(s icp.Stats) uint64 { return s.RecvBytes }))
	for reason, read := range map[string]func(icp.Stats) uint64{
		"undecodable": func(s icp.Stats) uint64 { return s.Undecodable },
		"late_reply":  func(s icp.Stats) uint64 { return s.LateReplies },
		"unasked":     func(s icp.Stats) uint64 { return s.Unasked },
	} {
		reg.CounterFunc("summarycache_udp_dropped_total", "datagrams dropped, by reason",
			labels.With("reason", reason), st(read))
	}
	reg.CounterFunc("summarycache_udp_send_errors_total",
		"UDP transmissions rejected by the network layer", labels,
		st(func(s icp.Stats) uint64 { return s.SendErrors }))
	reg.GaugeFunc("summarycache_node_peers_up",
		"registered peers currently believed up", labels,
		func() float64 {
			up, _ := n.Health()
			return float64(len(up))
		})
	reg.GaugeFunc("summarycache_node_peers_known",
		"registered peer addresses", labels,
		func() float64 {
			n.mu.RLock()
			defer n.mu.RUnlock()
			return float64(len(n.members))
		})
	reg.GaugeFunc("summarycache_node_peer_summary_bytes",
		"memory held by peer summary replicas", labels,
		func() float64 {
			n.mu.RLock()
			defer n.mu.RUnlock()
			var total uint64
			for _, p := range n.members {
				if f := p.rep.filter; f != nil {
					total += (f.Size() + 7) / 8
				}
			}
			return float64(total)
		})
	reg.GaugeFunc("summarycache_node_directory_docs",
		"documents summarized in the local directory", labels,
		func() float64 { return float64(n.dir.Docs()) })
	reg.CounterFunc("summarycache_node_directory_underflows_total",
		"directory removals that found a zero counter", labels,
		n.dir.Underflows)
	reg.GaugeFunc("summarycache_node_pending_flips",
		"unpublished bit flips in the directory journal", labels,
		func() float64 { return float64(n.dir.PendingFlips()) })
}

// publisher is the node's only sender of DIRUPDATEs, so deltas and
// full-state resets reach each peer in publication order: flip records
// are absolute, and the last one shipped for a bit must be applied last.
// It runs until Close.
func (n *Node) publisher(interval time.Duration) {
	defer close(n.pubDone)
	var tick <-chan time.Time
	if interval > 0 {
		t := time.NewTicker(interval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-n.wake:
			if n.dir.ShouldPublish() { // an earlier publication may have drained the trip
				n.publishDeltas()
			}
			n.serveResyncs()
		case <-tick:
			n.publishDeltas()
		case to := <-n.jobs:
			if to == nil {
				n.publishDeltas()
				n.results <- nil
			} else {
				n.results <- n.sendFullState(to)
			}
		case <-n.stop:
			return
		}
	}
}

// publish has the publisher ship the pending deltas to every peer (to ==
// nil) or the full state to one peer, and returns the send error once the
// datagrams are written and counted (icp.ErrClosed after Close). The
// publisher takes no job before sending the last one's result to its caller.
// A query-all node has no summary to publish.
func (n *Node) publish(to *peer) error {
	if n.cfg.QueryAll {
		return nil
	}
	select {
	case n.jobs <- to:
		return <-n.results
	case <-n.stop:
		return icp.ErrClosed
	}
}

// Addr returns the node's bound UDP address.
func (n *Node) Addr() *net.UDPAddr { return n.conn.Addr() }

// Directory exposes the local summary (diagnostics and tests).
func (n *Node) Directory() *bloom.Directory { return n.dir }

// Close shuts the node down and returns once its publisher has exited. It
// is idempotent and safe to call concurrently: all callers observe the
// first shutdown's result. Closing the socket first fails a send the
// publisher is blocked in.
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		close(n.stop)
		n.closeErr = n.conn.Close()
		<-n.pubDone
	})
	return n.closeErr
}

// Stats snapshots the node's counters. The values are read from the same
// registry-backed instruments /metrics exposes, so a scrape and a Stats
// call taken at the same quiescent moment agree exactly.
func (n *Node) Stats() NodeStats {
	return NodeStats{
		QueriesSent:          n.metrics.queriesSent.Value(),
		QueriesReceived:      n.metrics.queriesRecv.Value(),
		QueriesRefused:       n.metrics.queriesRefused.Value(),
		RemoteHits:           n.metrics.remoteHits.Value(),
		FalseHits:            n.metrics.falseHits.Value(),
		FalseMisses:          n.metrics.falseMisses.Value(),
		AuditQueries:         n.metrics.auditQueries.Value(),
		UpdatesSent:          n.metrics.updatesSent.Value(),
		UpdatesReceived:      n.metrics.updatesRecv.Value(),
		UpdatesRejected:      n.metrics.updatesRejected.Value(),
		UpdateEvents:         n.metrics.updateEvents.Value(),
		FlipsPublished:       n.metrics.flipsPublished.Value(),
		UpdateFullBytes:      n.metrics.updateFullBytes.Value(),
		UpdateDeltaBytes:     n.metrics.updateDeltaBytes.Value(),
		FilterRebuilds:       n.metrics.filterRebuilds.Value(),
		Recoveries:           n.metrics.recoveries.Value(),
		ResyncRequestsSent:   n.metrics.resyncSent.Value(),
		ResyncRequestsServed: n.metrics.resyncServed.Value(),
		QueryRTTSeconds:      n.metrics.queryRTT.Snapshot(),
		UDP:                  n.conn.Stats(),
		// Read from the directory itself, as its scrape series is.
		DirectoryUnderflows: n.dir.Underflows(),
	}
}

// peer is one registered neighbor: its address, its identifier (the
// address string that names its series), this node's replica of its
// summary, what this node's update stream has cost it, the lookup decisions
// charged to its summary, and its liveness. RemovePeer drops the record,
// and every piece of state with it.
type peer struct {
	addr *net.UDPAddr
	id   string

	rep replica // under Node.mu

	// Its resync request, under Node.mu: when one was last accepted, and
	// whether the publisher has yet to answer it (see applyUpdate).
	resyncAt  time.Time
	resyncDue bool

	updates, bytes atomic.Uint64 // DIRUPDATE messages and bytes sent to it

	// The decisions charged to it (see PeerStats): lookups its
	// summary was nominated in, fresh copies it delivered, nominations it
	// got wrong, audit answers contradicting its negative probes, and
	// stale copies it delivered.
	nominations, remoteHits, falseHits, falseMisses, staleHits atomic.Uint64

	// Liveness, under Node.mu (see observe): the state; since when the
	// peer is down and whether the prober took it there; its consecutive
	// unanswered probes and failed fetches.
	state         PeerState
	downSince     time.Time
	probeDown     bool
	misses, fails int
}

// addrKey names a UDP address as the peer records are keyed: an IPv4
// address in its 4-byte form, as a datagram's source carries it, whatever
// form it was registered in.
func addrKey(a *net.UDPAddr) netip.AddrPort {
	ap := a.AddrPort()
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// member returns the registered peer at addr (nil: not a member).
func (n *Node) member(addr *net.UDPAddr) *peer {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.byAddr[addrKey(addr)]
}

// memberList appends the registered peers, in registration order, to dst.
func (n *Node) memberList(dst []*peer) []*peer {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return append(dst, n.members...)
}

// AddPeer registers a neighbor and bootstraps it with this node's full
// summary state so its replica starts correct. The bootstrap asks for the
// neighbor's full state in return when this node holds no replica of it
// (icp.OptionResyncRequest). It returns once that state is sent. A node
// that has not run Recover, has shipped nothing and summarizes nothing sends
// no bootstrap: its first delta starts the neighbor's replica correct, and
// in a mesh coming up the neighbor may not have registered it yet, so would
// refuse it. From then on the node applies the neighbor's summary updates
// and answers its queries. Re-adding a registered neighbor brings it up
// with both failure counts restarted, so both evidence sources judge it
// afresh, and bootstraps it again.
func (n *Node) AddPeer(addr *net.UDPAddr) error {
	key := addrKey(addr)
	n.mu.Lock()
	p, known := n.byAddr[key]
	if !known {
		p = &peer{addr: addr, id: addr.String()}
		n.byAddr[key] = p
		n.members = append(n.members, p)
	}
	n.mu.Unlock()
	if !known {
		n.registerPeerMetrics(p)
	} else if from, _, err := n.observe(p, reAdded); from != PeerUp {
		return err // coming up re-shipped the full state
	}
	if n.metrics.recoveries.Value() == 0 && n.lastAdvert.Load() == 0 && n.dir.Docs() == 0 {
		return nil
	}
	return n.publish(p)
}

// ResyncPeers re-ships this node's full summary state to every registered
// neighbor — the full-resync path applied wholesale, e.g. after a lossy
// network episode ends and replicas across the mesh must reconverge.
func (n *Node) ResyncPeers() error {
	var firstErr error
	for _, p := range n.memberList(nil) {
		if err := n.publish(p); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Recover installs a warm restart's state before the node's first lookup
// and before its first AddPeer. The directory is rebuilt from docs, the
// documents the cache readmitted, each inserted under its Sig (the caller
// hashed every restored key once), and its journal is drained. From then
// on every AddPeer ships that state in one full update, an empty one
// included, which resets the neighbor's replica of the previous run and
// asks for the neighbor's own state: no replica survives a restart.
// summarycache_node_recoveries_total counts the recovery. A query-all node
// keeps no summary and only counts it.
func (n *Node) Recover(docs []lru.Entry) {
	n.metrics.recoveries.Inc()
	n.log.Info("node recovered from snapshot", "docs", len(docs))
	if n.cfg.QueryAll {
		return
	}
	for _, e := range docs {
		n.dir.InsertSig(e.Key, e.Sig)
	}
	n.dir.Drain()
}

// RemovePeer forgets a neighbor: its record, with its replica and its
// liveness. Every peer-labeled series the node registered for it is retired
// with it — peer churn must not leave stale series in the exposition.
func (n *Node) RemovePeer(addr *net.UDPAddr) {
	key := addrKey(addr)
	n.mu.Lock()
	p := n.byAddr[key]
	if p != nil {
		delete(n.byAddr, key)
		n.members = slices.DeleteFunc(n.members, func(q *peer) bool { return q == p })
	}
	n.mu.Unlock()
	n.reg.Unregister(obs.L("node", n.self, "peer", addr.String()))
}

// PeerAddrs returns the registered neighbor addresses in registration
// order.
func (n *Node) PeerAddrs() []*net.UDPAddr {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]*net.UDPAddr, len(n.members))
	for i, p := range n.members {
		out[i] = p.addr
	}
	return out
}

// noteSent charges one successfully sent update message to the node, to
// its peer and to the node-level full/delta byte split.
func (n *Node) noteSent(p *peer, wire int, full bool) {
	n.metrics.updatesSent.Inc()
	p.updates.Add(1)
	p.bytes.Add(uint64(wire))
	if full {
		n.metrics.updateFullBytes.Add(uint64(wire))
	} else {
		n.metrics.updateDeltaBytes.Add(uint64(wire))
	}
}

// LastAdvertAge returns how long ago this node last shipped summary state
// to anyone (false: never).
func (n *Node) LastAdvertAge() (time.Duration, bool) {
	ns := n.lastAdvert.Load()
	if ns == 0 {
		return 0, false
	}
	return time.Duration(time.Now().UnixNano() - ns), true
}

// registerPeerMetrics exposes a registered neighbor's replica health, wire
// accounting and decisions as peer-labeled series. All series are
// scrape-time callbacks reading the peer's record (the one source of
// truth), so they carry no probe-path cost. RemovePeer retires them.
func (n *Node) registerPeerMetrics(p *peer) {
	ls := obs.L("node", n.self, "peer", p.id)
	row := func() (r PeerReport) {
		n.mu.RLock()
		p.rep.health(&r)
		n.mu.RUnlock()
		return r
	}
	n.reg.GaugeFunc("summarycache_peer_fill_ratio",
		"fraction of set bits in the peer's summary replica", ls,
		func() float64 { return row().FillRatio })
	n.reg.GaugeFunc("summarycache_peer_est_false_positive",
		"estimated false-positive probability of the replica (fill^k)", ls,
		func() float64 { return row().EstFalsePositive })
	n.reg.GaugeFunc("summarycache_peer_update_age_seconds",
		"seconds since the peer's last DIRUPDATE was applied", ls,
		func() float64 { return row().UpdateAgeMS / 1e3 })
	for _, c := range []struct {
		name, help string
		read       func() uint64
	}{
		{"summarycache_peer_update_bytes_in_total", "DIRUPDATE bytes applied from this peer", func() uint64 { return row().BytesIn }},
		{"summarycache_peer_updates_full_total", "full-state updates applied from this peer", func() uint64 { return row().FullUpdates }},
		{"summarycache_peer_updates_delta_total", "delta updates applied from this peer", func() uint64 { return row().DeltaUpdates }},
		{"summarycache_peer_updates_sent_total", "update messages sent to this peer", p.updates.Load},
		{"summarycache_peer_update_bytes_out_total", "update bytes sent to this peer", p.bytes.Load},
		{"summarycache_peer_nominations_total", "lookups in which this peer's summary matched (the peer was queried)", p.nominations.Load},
		{"summarycache_peer_remote_hits_total", "fresh copies this peer delivered", p.remoteHits.Load},
		{"summarycache_peer_false_hits_total", "nominations this peer's summary got wrong (peer answered MISS or failed to deliver)", p.falseHits.Load},
		{"summarycache_peer_false_misses_total", "audit ICP answers contradicting this peer's negative summary probe", p.falseMisses.Load},
		{"summarycache_peer_stale_hits_total", "stale-version deliveries by this peer", p.staleHits.Load},
	} {
		n.reg.CounterFunc(c.name, c.help, ls, c.read)
	}
	n.reg.GaugeFunc("summarycache_peer_divergence",
		"observed divergence of this peer's summary: false hits per nomination", ls,
		func() float64 { return p.decisions().Divergence() })
}

// HandleInsert is HandleInsertSig of url's signature.
func (n *Node) HandleInsert(url string) { n.HandleInsertSig(url, hashing.Signature(url)) }

// HandleEvict is HandleEvictSig of url's signature.
func (n *Node) HandleEvict(url string) { n.HandleEvictSig(url, hashing.Signature(url)) }

// HandleInsertSig records a document entering the local cache, given sig,
// its URL's hashing.Signature, and wakes the publisher if the update
// threshold trips. It never blocks: it runs inside the cache's change
// hook, on every writer's path. A query-all node keeps no summary to
// record it in.
func (n *Node) HandleInsertSig(url string, sig [md5.Size]byte) {
	if n.cfg.QueryAll {
		return
	}
	n.dir.InsertSig(url, sig)
	n.wakeIfReady()
}

// HandleEvictSig records a document leaving the local cache, given sig,
// its URL's signature.
func (n *Node) HandleEvictSig(url string, sig [md5.Size]byte) {
	if n.cfg.QueryAll {
		return
	}
	n.dir.RemoveSig(url, sig)
	n.wakeIfReady()
}

func (n *Node) wakeIfReady() {
	if n.dir.ShouldPublish() {
		n.wakePublisher()
	}
}

// wakePublisher has the publisher publish what is due and answer the
// pending resync requests. It never blocks.
func (n *Node) wakePublisher() {
	select {
	case n.wake <- struct{}{}:
	default: // a wake is already pending; it serves this one too
	}
}

// PublishNow publishes any pending deltas and returns once they are written
// and counted, after any publication already under way.
func (n *Node) PublishNow() { _ = n.publish(nil) }

// publishDeltas ships the pending flip journal to every registered peer.
// Only the publisher calls it, so the arrays it drains, splits and sends
// into are the publisher's, and a steady publication allocates nothing.
func (n *Node) publishDeltas() {
	if n.dir.PendingFlips() == 0 {
		return
	}
	flips := n.dir.AppendDrain(n.pubFlips[:0])
	n.pubFlips = flips
	n.metrics.updateEvents.Inc()
	n.metrics.flipsPublished.Add(uint64(len(flips)))
	msgs := n.splitUpdate(flips)
	if n.log.Enabled(context.Background(), slog.LevelInfo) {
		n.log.Info("summary published", "flips", len(flips), "messages", len(msgs))
	}
	n.lastAdvert.Store(time.Now().UnixNano())
	members := n.memberList(n.pubPeers[:0])
	for _, p := range members {
		for _, m := range msgs {
			if err := n.conn.Send(p.addr, m); err == nil {
				n.noteSent(p, m.EncodedLen(), false)
			}
		}
	}
	clear(members) // a peer removed later is not pinned until the next publication
	n.pubPeers = members[:0]
}

// splitUpdate encodes pending flips into DIRUPDATE messages, recorded as
// a dirupdate_encode span when the node is traced. Each message takes its
// own request number, so a peer sees the publisher's datagrams in
// increasing ReqNum order. The messages are in the publisher's array,
// valid until its next publication, and share flips's.
func (n *Node) splitUpdate(flips []bloom.Flip) []icp.Message {
	var t0 time.Time
	if n.tracer != nil {
		t0 = time.Now()
	}
	msgs := icp.AppendSplitUpdate(n.pubMsgs[:0], 0, n.dir.Spec(), uint32(n.dir.Bits()), flips, n.cfg.MaxFlipsPerUpdate)
	n.pubMsgs = msgs
	if n.tracer != nil {
		n.tracer.Record(n.self, tracing.Span{Name: tracing.SpanDirUpdateEncode, Start: t0, DurationUS: tracing.Micros(time.Since(t0))})
	}
	for i := range msgs {
		msgs[i].ReqNum = n.conn.NextReqNum()
	}
	return msgs
}

// sendFullState ships the entire filter to one peer, flagged so the peer
// resets its replica first, and asks for the peer's own full state when
// this node holds no replica of it. Only the publisher calls it, so no
// delta can overtake the reset.
func (n *Node) sendFullState(p *peer) error {
	msgs := n.splitUpdate(n.dir.SnapshotFlips())
	msgs[0].Options |= icp.OptionFullUpdate
	n.mu.RLock()
	ask := p.rep.filter == nil
	n.mu.RUnlock()
	if ask {
		msgs[0].Options |= icp.OptionResyncRequest
	}
	for _, m := range msgs {
		if err := n.conn.Send(p.addr, m); err != nil {
			return err
		}
		n.noteSent(p, m.EncodedLen(), true)
	}
	clear(msgs) // the snapshot's flips are not pinned until the next publication
	if ask {
		n.metrics.resyncSent.Inc()
	}
	n.lastAdvert.Store(time.Now().UnixNano())
	return nil
}

// serveResyncs answers each member's pending resync request with one full
// state. Only the publisher calls it.
func (n *Node) serveResyncs() {
	var due []*peer
	n.mu.Lock()
	for _, p := range n.members {
		if p.resyncDue {
			p.resyncDue = false
			due = append(due, p)
		}
	}
	n.mu.Unlock()
	for _, p := range due {
		if n.sendFullState(p) == nil {
			n.metrics.resyncServed.Inc()
		}
	}
}

// Lookup resolves a local miss: probe the peer summaries, ICP-query only
// the candidate peers (every registered peer under QueryAll), and return
// the address of the first peer that confirmed a hit (nil when the
// document must be fetched from the origin).
// candidates reports how many peers were queried (0 means the summaries
// ruled everyone out and no message was sent).
//
// When ctx carries a tracing.Trace (tracing.NewContext), Lookup records
// the full decision audit on it: one summary_probe span timing the probe
// pass, with one audit per consulted peer — probed bit indices, replica
// generation and age, predicted verdict, and the peer's actual ICP answer
// — plus an icp_reply span per answer and the query round-trip span, and
// re-keys the trace to the exchange's shared ID so the answering proxies'
// traces join it.
func (n *Node) Lookup(ctx context.Context, url string) (hit *net.UDPAddr, candidates int, err error) {
	r, err := lookup(ctx, n, url, hashing.Signature(url), 0, nil)
	return r.Peer, r.Candidates, err
}

// Resolution is the outcome of one lookup among the peers.
type Resolution struct {
	// Peer confirmed the document; nil when it must come from the origin.
	Peer *net.UDPAddr
	// PeerID is the registered Peer's identifier (its UDP address
	// string); "" when Peer is nil.
	PeerID string
	// Reply is Peer's HIT or HIT_OBJ. A HIT_OBJ carries the document
	// (Object, in LookupObject's obj array when it fits) and its version
	// (OptionData), so no sibling fetch is needed.
	Reply icp.Message
	// Candidates is how many peers were queried (0: the summaries ruled
	// everyone out and no message was sent).
	Candidates int
	// FalseHit reports that summaries nominated the peers queried and none
	// confirmed: the paper's false hit. It is never set under QueryAll,
	// where no summary predicted anything.
	FalseHit bool
}

// LookupObject is Lookup for a caller that can use the document itself,
// holds its URL as bytes and has already hashed it: sig is url's
// hashing.Signature, from which every replica's probe indices are derived
// (a query-all node probes none and ignores it). The query to the first
// candidate carries icp.FlagHitObj, so if that peer holds a small enough
// copy it answers with it inline (see NodeConfig.ReadDocument), copied
// into obj's array when it fits (see icp.QueryAll); obj is the caller's
// again once LookupObject returns. The URL is made a string only for a
// false-decision record (see RecentFalse), so url must not change until
// LookupObject returns, and the Reply's URL is empty.
func (n *Node) LookupObject(ctx context.Context, url []byte, sig [md5.Size]byte, obj []byte) (Resolution, error) {
	return lookup(ctx, n, url, sig, icp.FlagHitObj, obj)
}

// stackPeers is how many candidates a lookup keeps in stack arrays; a
// larger fan-out still works, with its lists on the heap.
const stackPeers = 16

// lookup implements Lookup and LookupObject, for a URL held as a string or
// as bytes; options are the queries', obj the destination of the flagged
// peer's object.
// One pass over the registered peers, in registration order, picks the ones
// to query: every one under QueryAll, else each whose replica matches at
// the indices derived from sig, url's signature, which is charged the
// nomination. The first picked is the one asked for the
// object. A traced lookup records each replica's evidence in the same pass.
// Every per-peer list — the records queried, their addresses, each one's
// answer — is a slice of a stack array, so an untraced lookup allocates
// nothing itself.
func lookup[T string | []byte](ctx context.Context, n *Node, url T, sig [md5.Size]byte, options uint32, obj []byte) (Resolution, error) {
	tr := tracing.FromContext(ctx)
	var probes []SummaryProbe
	var recBuf [stackPeers]*peer
	var addrBuf [stackPeers]*net.UDPAddr
	recs, addrs := recBuf[:0], addrBuf[:0] // addrs[i] is recs[i]'s address
	var idxBuf [maxReplicaK]uint64
	probeStart := time.Now()
	n.mu.RLock()
	for _, p := range n.members {
		match := n.cfg.QueryAll
		if r := &p.rep; !match && r.filter != nil {
			idx := bloom.IndexesSigOf(r.filter, idxBuf[:0], url, sig)
			match = r.filter.TestIndexes(idx)
			if tr != nil {
				probes = append(probes, r.probe(p.id, slices.Clone(idx), match, probeStart))
			}
			if match {
				p.nominations.Add(1)
			}
		}
		if match {
			recs, addrs = append(recs, p), append(addrs, p.addr)
		}
	}
	n.mu.RUnlock()
	var probeDur time.Duration
	if tr != nil {
		probeDur = time.Since(probeStart)
	}
	if len(recs) == 0 {
		n.traceProbes(tr, probes, probeStart, probeDur, nil)
		auditFalseMiss(ctx, n, url, nil, tr)
		return Resolution{}, nil
	}
	n.metrics.queriesSent.Add(uint64(len(addrs)))
	var opBuf [stackPeers]icp.Opcode // ops[i]: addrs[i]'s answer; OpInvalid: none
	ops := opBuf[:min(len(addrs), stackPeers)]
	if len(addrs) > stackPeers {
		ops = make([]icp.Opcode, len(addrs))
	}
	start := time.Now()
	onReply := func(from *net.UDPAddr, op icp.Opcode) {
		i := slices.Index(addrs, from)
		if tr != nil {
			// Each peer's answer latency is one icp_reply span — finer
			// than the whole fan-out RTT the icp_query span reports.
			tr.AddSpan(tracing.Span{Name: tracing.SpanICPReply, Peer: recs[i].id, Start: start, DurationUS: tracing.Micros(time.Since(start))})
		}
		ops[i] = op
	}
	win, from, reqNum, err := icp.QueryAll(ctx, n.conn, n.cfg.QueryTimeout, addrs, url, options, obj, onReply)
	rtt := time.Since(start)
	n.metrics.queryRTT.ObserveDuration(rtt)
	res := Resolution{Peer: from, Reply: win, Candidates: len(addrs)}
	if from != nil {
		res.PeerID = recs[slices.Index(addrs, from)].id
	}
	if tr != nil {
		n.traceProbes(tr, probes, probeStart, probeDur, ops)
		tr.SetICPExchange(n.self, reqNum)
		tr.AddSpan(tracing.Span{
			Name:       tracing.SpanICPQuery,
			Start:      start,
			DurationUS: tracing.Micros(rtt),
			ReqNum:     reqNum,
			Actual:     tracing.QueryActual(res.Peer, res.Reply.Op.Verdict()),
		})
	}
	if err != nil {
		return res, err
	}
	if from != nil {
		n.metrics.remoteHits.Inc()
		return res, nil
	}
	// Only a summary's nomination can be false; classic ICP asked everyone.
	res.FalseHit = !n.cfg.QueryAll
	if res.FalseHit {
		n.metrics.falseHits.Inc()
	}
	answered := 0
	for i, op := range ops {
		if op == icp.OpInvalid {
			continue
		}
		answered++
		if p := recs[i]; res.FalseHit && op != icp.OpHit && op != icp.OpHitObj {
			// Every candidate that answered MISS was nominated by a summary
			// that lied; unanswered candidates may just be down or lossy,
			// so they are not charged.
			n.noteFalse(p, &p.falseHits, "false_hit", string(url), tr)
		}
	}
	if tr != nil && answered < len(recs) {
		// Some candidates never answered inside the timeout — the
		// peer-down/timeout class of anomaly, kept by tail sampling.
		tr.MarkAnomalous("query_timeout")
	}
	auditFalseMiss(ctx, n, url, recs, tr)
	return res, nil
}

// traceID returns tr's current ID as a hex string ("" when untraced) —
// the /debug/traces link key attached to false-decision records.
func traceID(tr *tracing.Trace) string {
	if tr == nil {
		return ""
	}
	return tr.ID().String()
}

// auditFalseMiss implements NodeConfig.FalseMissAuditEvery: after an
// unresolved lookup it ICP-queries the registered peers whose summaries
// said NO (the negative probes). A HIT answer is the paper's false miss,
// attributed to the answering peer. At most one false miss is counted per
// audited lookup — the event is the lookup, not the peer count. The
// lookup result is never changed; this is accounting only.
func auditFalseMiss[T string | []byte](ctx context.Context, n *Node, url T, nominated []*peer, tr *tracing.Trace) {
	every := n.cfg.FalseMissAuditEvery
	if every <= 0 {
		return
	}
	if c := n.auditSeq.Add(1); every > 1 && (c-1)%uint64(every) != 0 {
		return
	}
	var recs []*peer
	var addrs []*net.UDPAddr
	n.mu.RLock()
	for _, p := range n.members {
		if !slices.Contains(nominated, p) {
			recs, addrs = append(recs, p), append(addrs, p.addr)
		}
	}
	n.mu.RUnlock()
	if len(addrs) == 0 {
		return
	}
	n.metrics.auditQueries.Add(uint64(len(addrs)))
	// Never flagged FlagHitObj: the audit only asks whether a copy exists.
	_, from, _, err := icp.QueryAll(ctx, n.conn, n.cfg.QueryTimeout, addrs, url, 0, nil, nil)
	if err != nil || from == nil {
		return
	}
	n.metrics.falseMisses.Inc()
	p := recs[slices.Index(addrs, from)]
	n.noteFalse(p, &p.falseMisses, "false_miss", string(url), tr)
}

// traceProbes records the summary_probe span of one lookup on tr: the
// probe pass from start, lasting d, with an audit per consulted replica.
// ops holds the answers of the matching probes' peers, in probe order
// (OpInvalid: none); nil when no query was sent. Classic ICP consults no
// summary and records no span.
func (n *Node) traceProbes(tr *tracing.Trace, probes []SummaryProbe, start time.Time, d time.Duration, ops []icp.Opcode) {
	if tr == nil || n.cfg.QueryAll {
		return
	}
	audits := make([]tracing.Audit, len(probes))
	asked := 0 // the matching probes seen so far; ops[asked] is the next one's answer
	for i, pr := range probes {
		a := tracing.Audit{
			Peer:       pr.Peer,
			Predicted:  "miss",
			Actual:     "not_queried",
			BitIndexes: pr.BitIndexes,
			Generation: pr.Generation,
			AgeMS:      float64(pr.Age.Microseconds()) / 1e3,
			FilterBits: pr.FilterBits,
		}
		if pr.Match {
			a.Predicted = "hit"
			if ops != nil {
				switch ops[asked] {
				case icp.OpInvalid:
					a.Actual = "no_reply"
				case icp.OpHit, icp.OpHitObj:
					a.Actual = "hit"
				default:
					a.Actual = "miss"
				}
			}
			asked++
		}
		audits[i] = a
	}
	tr.AddSpan(tracing.Span{Name: tracing.SpanSummaryProbe, Start: start, DurationUS: tracing.Micros(d), Audits: audits})
}

// handle serves incoming unsolicited messages. Only a registered peer is
// answered or learned from: a spoofed query would otherwise reflect a reply,
// up to icp.MaxHitObjLen bytes with a document inline, at its forged source,
// and a spoofed DIRUPDATE would build a replica that draws every lookup's
// queries to that source.
func (n *Node) handle(from *net.UDPAddr, m icp.Message) {
	switch m.Op {
	case icp.OpQuery:
		p := n.member(from)
		if p == nil {
			n.metrics.queriesRefused.Inc()
			return
		}
		if m.URL == pingURL {
			// The prober's liveness ping: answered, but it is neither a peer
			// query nor a traced exchange.
			_ = n.conn.Send(from, icp.NewReply(icp.OpMiss, m.ReqNum, m.URL))
			return
		}
		start := time.Now()
		n.metrics.queriesRecv.Inc()
		reply := icp.Answer(m, n.cfg.HasDocument, n.cfg.ReadDocument)
		if n.tracer != nil {
			// Recorded before the reply leaves, so the querier, once
			// answered, finds this side of the exchange. Under SC-ICP a
			// query only arrives because the querier's replica of our
			// summary predicted a hit; a MISS answer is therefore a false
			// hit seen from the answering side — anomalous, tail-kept.
			// Classic ICP asks everyone, so there a MISS is ordinary.
			n.tracer.ICPAnswer(n.self, p.id, m.ReqNum, m.URL,
				reply.Op.Verdict(), start, !n.cfg.QueryAll)
		}
		_ = n.conn.Send(from, reply)
	case icp.OpDirUpdate:
		if n.cfg.QueryAll {
			return // no summaries are kept
		}
		if err := n.applyUpdate(from, &m.Update, m.Options); err != nil {
			n.metrics.updatesRejected.Inc()
			return
		}
		n.metrics.updatesRecv.Inc()
	}
}
