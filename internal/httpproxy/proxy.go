// Package httpproxy implements the caching Web proxy of the paper's
// prototype experiments: an HTTP forward proxy with an LRU document cache
// that can cooperate with sibling proxies in one of three modes — no
// cooperation (the paper's "no-ICP" baseline), classic ICP (query every
// sibling on every miss), or summary-cache enhanced ICP (probe the local
// replicas of sibling summaries and query only promising siblings). It is
// the Go analog of the paper's modified Squid.
package httpproxy

import (
	"bytes"
	"context"
	"crypto/md5"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"summarycache/internal/bloom"
	"summarycache/internal/core"
	"summarycache/internal/faultnet"
	"summarycache/internal/hashing"
	"summarycache/internal/http1"
	"summarycache/internal/icp"
	"summarycache/internal/lru"
	"summarycache/internal/obs"
	"summarycache/internal/perfwatch"
	"summarycache/internal/persist"
	"summarycache/internal/tracing"
)

// docVersionHeader carries a document's version number on sibling and
// origin responses; versionParam is the query parameter that names the
// wanted version in version-aware mode (the test origin's convention).
const (
	docVersionHeader = "X-Doc-Version"
	versionParam     = "v"
)

// Resilience defaults. Each Config field below accepts 0 for the default
// and a negative value to disable the bound entirely (the seed's
// unbounded behavior, kept reachable for experiments).
const (
	// DefaultFetchTimeout bounds one HTTP fetch attempt end to end.
	DefaultFetchTimeout = 10 * time.Second
	// DefaultFetchRetries is how many times a retryable origin fetch
	// failure is retried (3 attempts total).
	DefaultFetchRetries = 2
	// DefaultFetchBackoff is the first retry's backoff; it doubles per
	// attempt, capped at 32× with ±50% jitter.
	DefaultFetchBackoff = 50 * time.Millisecond
	// maxBackoffFactor caps the exponential growth (50ms default base
	// tops out at 1.6s).
	maxBackoffFactor = 32
	// DefaultReadHeaderTimeout bounds how long a client may take to send a
	// request head, from its first byte, so slow-header (slowloris-style)
	// clients cannot pin a connection.
	DefaultReadHeaderTimeout = 10 * time.Second
	// DefaultIdleTimeout bounds how long a keep-alive client connection
	// waits for its next request before it is closed.
	DefaultIdleTimeout = 2 * time.Minute
)

// Mode selects the cooperation protocol.
type Mode int

// The three configurations of Tables II, IV and V.
const (
	// ModeNone: proxies do not cooperate (the "no-ICP" rows).
	ModeNone Mode = iota
	// ModeICP: classic ICP — multicast a query to every sibling on every
	// local miss (the "ICP" rows).
	ModeICP
	// ModeSCICP: summary-cache enhanced ICP (the "SC-ICP" rows).
	ModeSCICP
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "no-ICP"
	case ModeICP:
		return "ICP"
	case ModeSCICP:
		return "SC-ICP"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// CacheOnlyPath is the sibling-fetch endpoint: it serves a document from
// the cache without ever fetching on a miss, so sibling fetches cannot
// recurse (a sibling proxy "can not ask a sibling proxy to fetch a
// document from the server"). Remote hits use it only for documents too
// large to ride inside an ICP HIT_OBJ reply (icp.MaxHitObjLen).
const CacheOnlyPath = "/__summarycache/cacheonly"

// ProxyPath is the explicit-form proxy endpoint for clients that do not
// speak absolute-form HTTP: GET /__summarycache/proxy?url=<target>.
const ProxyPath = "/__summarycache/proxy"

// Config parameterizes a Proxy.
type Config struct {
	// ListenAddr is the HTTP listen address (default "127.0.0.1:0").
	ListenAddr string
	// ICPAddr is the UDP listen address for ICP traffic (default
	// "127.0.0.1:0"; unused in ModeNone).
	ICPAddr string
	// Mode selects the cooperation protocol.
	Mode Mode
	// CacheBytes is the document-cache capacity (the paper's benchmark
	// gives each proxy 75 MB).
	CacheBytes int64
	// MaxObjectSize caps cacheable documents (0: the paper's 250 KB).
	MaxObjectSize int64
	// Summary configures the local directory summary and its publication
	// rule (ModeSCICP), with core.NodeConfig.Directory's defaults: zero
	// MinPending keeps the prototype's fill-an-IP-packet batching.
	// Publication runs on the SC-ICP node's publisher goroutine, so a slow
	// ICP socket never delays a cache write.
	Summary bloom.DirectoryConfig
	// ParentURL, when set, routes misses through a parent proxy's
	// ProxyPath endpoint instead of contacting origins directly — the
	// hierarchical configuration of the paper's §VIII ("a proxy ... can
	// ask a parent proxy to [fetch a document from the server]").
	ParentURL string
	// VersionAware makes the proxy distinguish document versions: the
	// versionParam query parameter is stripped from the target to form the
	// cache key, the stored version rides the docVersionHeader on sibling
	// responses, and a delivered version that does not match the wanted one
	// is classified stale — a local stale copy counts as a miss, a stale
	// sibling delivery as a stale hit (the paper's remote stale hits).
	// Default off: the target string is the cache key and versions are
	// never compared, the seed's behavior.
	VersionAware bool
	// FalseMissAuditEvery, when positive, audits every Nth unresolved
	// lookup for false misses by querying the siblings whose summaries said
	// no (ModeSCICP; forwarded to core.NodeConfig.FalseMissAuditEvery).
	// Accounting only — a detected false miss never changes the lookup's
	// result. 0: auditing disabled.
	FalseMissAuditEvery int
	// SingleCopy enables the paper's single-copy sharing scheme: a
	// document served by a sibling is NOT cached locally ("a proxy does
	// not cache documents fetched from another proxy"), conserving space
	// at the cost of repeated sibling fetches. Default (false) is the
	// ICP-style simple sharing the paper's prototype implements.
	SingleCopy bool
	// QueryTimeout bounds ICP query waits.
	QueryTimeout time.Duration
	// FetchTimeout bounds each HTTP fetch attempt — origin, parent, or
	// sibling — covering dial, response headers, and body, which a client
	// hanging up does not cut short. One hung origin costs at most one
	// timeout. 0: DefaultFetchTimeout; negative: unbounded.
	FetchTimeout time.Duration
	// FetchRetries is how many times a failed origin fetch is retried.
	// Transport errors, 5xx statuses and truncated bodies are retryable;
	// other non-200 statuses are permanent. 0: DefaultFetchRetries;
	// negative: no retries.
	FetchRetries int
	// FetchBackoff is the initial retry backoff, doubled each retry and
	// capped, with ±50% jitter so a mesh recovering from a shared origin
	// outage does not retry in lockstep. 0: DefaultFetchBackoff.
	FetchBackoff time.Duration
	// BreakerThreshold takes a sibling down after this many consecutive
	// failed cache-only fetches; while it is down, nominated documents go
	// straight to the origin (a false hit, not an error) and the SC-ICP
	// node drops the sibling's summary so it stops attracting nominations.
	// 0: core.DefaultBreakerThreshold; negative: fetches never take a
	// sibling down and are never refused.
	BreakerThreshold int
	// BreakerCooldown is how long a down sibling waits before one probing
	// fetch is admitted. 0: core.DefaultBreakerCooldown.
	BreakerCooldown time.Duration
	// ReadHeaderTimeout bounds how long a client may take to send a request
	// head, counted from its first byte (on a new connection, from accept);
	// a client that overruns it is disconnected without a reply.
	// 0: DefaultReadHeaderTimeout; negative: unbounded.
	ReadHeaderTimeout time.Duration
	// Faults, when set, injects that scenario's faults into this proxy's
	// network edges: its ICP UDP socket (loss, delay, duplication,
	// reordering) and its outbound HTTP fetches (connect failures,
	// stalls, truncated bodies, 5xx bursts). The injected-fault counters
	// register in the metrics registry. Nil: zero-overhead passthrough —
	// no wrapper is interposed at all.
	Faults *faultnet.Injector
	// Metrics, when set, is the registry the proxy (and its protocol node)
	// instruments itself against; series carry a proxy="<http addr>"
	// label so a whole mesh can share one registry and one /metrics
	// exposition. Nil: a private registry is created.
	Metrics *obs.Registry
	// Logger, when set, receives structured events from the proxy's
	// protocol node (peer transitions, summary publications) and the
	// panics its client handlers recover from. Nil: events are discarded.
	Logger *slog.Logger
	// Tracer, when set, records a distributed trace per client request —
	// spans for the local lookup, every document-cache read and stored
	// write, the summary probe (with a decision audit per peer consulted),
	// the ICP round-trip and each reply, sibling fetches, and origin
	// fetches — retained per the tracer's head/tail sampling policy and
	// served at /debug/traces. Cache reads outside a client request (a
	// peer's HIT_OBJ answer, the cache-only handler) and the node's
	// DIRUPDATE work go to the tracer's sink through Tracer.Record. The
	// sink is how a perfwatch.Watch sees any of it. A whole mesh may share
	// one Tracer (as with Metrics) or each proxy may own one. Nil: tracing
	// disabled; the local-hit hot path performs no extra allocation.
	Tracer *tracing.Tracer
	// Persist, when set, enables warm restarts: the document cache is
	// checkpointed to Persist.Dir (every Persist.SnapshotInterval, and once
	// more on a clean Close), with cache mutations journaled between
	// checkpoints. A proxy restarted on the same directory recovers its
	// cache before serving and rebuilds its local directory filter from it
	// — see Recovery for what the boot found. No peer summary is saved:
	// each AddPeer asks the peer for its full state. Nil: persistence
	// disabled, the seed's memory-only behavior.
	Persist *persist.Config
	// Perf is read by nothing: a Watch is fed only as the Tracer's
	// Config.Sink, and its stage histograms are served with every other
	// series of Metrics. The field stays because benchmark/mesh.go, its
	// last setter, compiles against it.
	//
	// Deprecated: make the Watch the Tracer's Config.Sink instead.
	Perf *perfwatch.Watch
}

// Stats counts proxy activity.
type Stats struct {
	ClientRequests uint64
	LocalHits      uint64
	RemoteHits     uint64 // misses served from a sibling cache
	Misses         uint64 // served from the origin
	// FalseHits counts requests that fell through to the origin after a
	// sibling indication failed: summaries nominated candidates that all
	// replied MISS, or a sibling claimed a HIT it could not deliver.
	FalseHits uint64
	// StaleHits counts sibling deliveries of an out-of-date version
	// (version-aware mode; the request still fell through to the origin).
	StaleHits uint64
	// LocalStale counts local lookups that found a cached but out-of-date
	// version (version-aware mode; treated as misses).
	LocalStale    uint64
	OriginFetches uint64
	PeerFetches   uint64 // sibling cache-only fetches issued
	// Retries counts additional origin fetch attempts after retryable
	// failures (each logical fetch still counts once in OriginFetches).
	Retries uint64
	// BreakerSkips counts sibling fetches refused because the sibling is
	// down (each becomes an origin fallback, classed a false hit).
	BreakerSkips uint64
	// HTTPMessages approximates the paper's TCP packet accounting at the
	// application level: every HTTP transaction is a request plus a
	// response.
	HTTPMessages uint64
	// InflightRequests is the instantaneous number of client requests
	// being served (the summarycache_proxy_inflight_requests gauge).
	InflightRequests int64
	// RequestSeconds summarizes client request latency across all
	// outcomes (the summarycache_proxy_request_seconds histograms).
	RequestSeconds obs.HistogramSnapshot
	// UDP mirrors the paper's netstat UDP counters (zero in ModeNone).
	UDP icp.Stats
	// Node carries the protocol node's counters (zero in ModeNone).
	Node core.NodeStats
}

// Request outcomes, the label values splitting the latency histogram: the
// hit classes of the paper's tables plus the false-hit class its summary
// analysis revolves around.
const (
	outcomeLocalHit  = "local_hit"
	outcomeRemoteHit = "remote_hit"
	outcomeMiss      = "miss"
	outcomeFalseHit  = "false_hit"
	outcomeStaleHit  = "stale_hit"
)

// proxyMetrics are the registry-backed instruments behind Stats.
type proxyMetrics struct {
	clientReqs, localHits, remoteHits *obs.Counter
	misses, falseHits                 *obs.Counter
	staleHits, localStale             *obs.Counter
	originFetches, peerFetches        *obs.Counter
	retries, breakerSkips             *obs.Counter
	inflight                          *obs.Gauge
	latency                           map[string]*obs.Histogram // by outcome
}

func newProxyMetrics(reg *obs.Registry, labels obs.Labels) proxyMetrics {
	m := proxyMetrics{
		clientReqs: reg.Counter("summarycache_proxy_requests_total",
			"client requests served", labels),
		localHits: reg.Counter("summarycache_proxy_local_hits_total",
			"requests served from the local cache", labels),
		remoteHits: reg.Counter("summarycache_proxy_remote_hits_total",
			"requests served from a sibling cache", labels),
		misses: reg.Counter("summarycache_proxy_misses_total",
			"requests served from the origin", labels),
		falseHits: reg.Counter("summarycache_proxy_false_hits_total",
			"origin fetches preceded by a failed sibling indication", labels),
		staleHits: reg.Counter("summarycache_proxy_stale_hits_total",
			"sibling deliveries of an out-of-date document version", labels),
		localStale: reg.Counter("summarycache_proxy_local_stale_total",
			"local lookups that found a cached but out-of-date version", labels),
		originFetches: reg.Counter("summarycache_proxy_origin_fetches_total",
			"fetches issued to the origin (or parent)", labels),
		peerFetches: reg.Counter("summarycache_proxy_peer_fetches_total",
			"sibling cache-only fetches issued", labels),
		retries: reg.Counter("summarycache_proxy_retries_total",
			"origin fetch attempts repeated after retryable failures", labels),
		breakerSkips: reg.Counter("summarycache_proxy_breaker_skips_total",
			"sibling fetches refused because the sibling is down", labels),
		inflight: reg.Gauge("summarycache_proxy_inflight_requests",
			"client requests currently being served", labels),
		latency: make(map[string]*obs.Histogram),
	}
	for _, o := range []string{outcomeLocalHit, outcomeRemoteHit, outcomeMiss, outcomeFalseHit, outcomeStaleHit} {
		m.latency[o] = reg.Histogram("summarycache_proxy_request_seconds",
			"client request latency by outcome", labels.With("outcome", o), nil)
	}
	return m
}

// Proxy is a running caching proxy.
type Proxy struct {
	cfg   Config
	cache *lru.Cache // entries carry their document bodies (lru.Entry.Body)

	// node is the ICP endpoint of both cooperating modes (nil in ModeNone):
	// ModeICP's queries every registered sibling, ModeSCICP's only those
	// its summaries nominate.
	node *core.Node

	sibMu    sync.RWMutex
	siblings map[string]*upRequest // cache-only request, query "url=", by ICP address string

	// Resolved resilience knobs (Config defaults applied once at Start).
	fetchTimeout time.Duration // 0: unbounded
	fetchRetries int
	fetchBackoff time.Duration

	up *fetcher // origin, parent and sibling fetches
	// parent is ParentURL's ProxyPath endpoint, parsed once at Start with
	// an empty url= parameter each miss completes (nil: no parent).
	parent *upRequest

	// The client listener and its connections (serve.go).
	ln                net.Listener
	readHeaderTimeout time.Duration   // 0: unbounded
	ctx               context.Context // handlers' context; Close cancels it
	cancel            context.CancelFunc
	clients           *http1.Listener // ln's accept loop and open connections

	metrics proxyMetrics
	reg     *obs.Registry
	tracer  *tracing.Tracer // nil: tracing disabled
	self    string          // the listener address: this proxy's node name in traces

	// Warm-restart persistence (nil store: disabled).
	store       *persist.Store
	recovery    persist.RecoveryStats
	restored    int           // recovered documents the cache readmitted
	snapStop    chan struct{} // nil: no periodic snapshot loop
	snapDone    chan struct{}
	persistOnce sync.Once // shutdownPersist runs at most once
}

// resolveDuration applies the 0=default / negative=disabled convention.
func resolveDuration(v, def time.Duration) time.Duration {
	if v == 0 {
		return def
	}
	if v < 0 {
		return 0
	}
	return v
}

// resolveCount applies the 0=default / negative=disabled convention.
func resolveCount(v, def int) int {
	if v == 0 {
		return def
	}
	if v < 0 {
		return 0
	}
	return v
}

// Start launches a proxy.
func Start(cfg Config) (*Proxy, error) {
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	if cfg.ICPAddr == "" {
		cfg.ICPAddr = "127.0.0.1:0"
	}
	if cfg.CacheBytes <= 0 {
		return nil, fmt.Errorf("httpproxy: CacheBytes must be positive, got %d", cfg.CacheBytes)
	}
	if cfg.QueryTimeout <= 0 {
		cfg.QueryTimeout = core.DefaultQueryTimeout
	}
	var parent *upRequest
	if cfg.ParentURL != "" {
		var err error
		if parent, err = proxyPathRequest(cfg.ParentURL + ProxyPath); err != nil {
			return nil, fmt.Errorf("httpproxy: ParentURL: %w", err)
		}
	}
	p := &Proxy{
		cfg:               cfg,
		siblings:          make(map[string]*upRequest),
		fetchTimeout:      resolveDuration(cfg.FetchTimeout, DefaultFetchTimeout),
		fetchRetries:      resolveCount(cfg.FetchRetries, DefaultFetchRetries),
		fetchBackoff:      resolveDuration(cfg.FetchBackoff, DefaultFetchBackoff),
		readHeaderTimeout: resolveDuration(cfg.ReadHeaderTimeout, DefaultReadHeaderTimeout),
		parent:            parent,
	}
	p.ctx, p.cancel = context.WithCancel(context.Background())
	// The HTTP fault schedule is drawn before the node wraps its socket, so
	// a scenario's seeded streams keep their order.
	p.up = &fetcher{timeout: p.fetchTimeout, faults: cfg.Faults.HTTPFaults(), idle: make(map[poolKey][]*upConn)}
	cache, err := lru.NewCache(lru.Config{
		Capacity:      cfg.CacheBytes,
		MaxObjectSize: cfg.MaxObjectSize,
		OnChange:      p.onCacheChange,
	})
	if err != nil {
		return nil, err
	}
	p.cache = cache

	// The HTTP listener comes first: its bound address labels every
	// metric series this proxy registers.
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("httpproxy: listen %q: %w", cfg.ListenAddr, err)
	}
	p.ln = ln
	p.self = ln.Addr().String()
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	p.reg = reg
	labels := obs.L("proxy", p.self)
	p.metrics = newProxyMetrics(reg, labels)
	p.registerCacheMetrics(reg, labels)
	p.tracer = cfg.Tracer

	var sockWrap icp.SocketWrapper
	if cfg.Faults != nil {
		inj := cfg.Faults
		sockWrap = func(c icp.PacketConn) icp.PacketConn { return inj.WrapUDP(c) }
		for _, kind := range faultnet.Kinds {
			kind := kind
			reg.CounterFunc("summarycache_faultnet_injected_total",
				"faults injected into this proxy's network paths",
				labels.With("kind", kind),
				func() uint64 { return inj.Count(kind) })
		}
	}

	switch cfg.Mode {
	case ModeNone:
		// no protocol endpoint
	case ModeICP, ModeSCICP:
		nodeCfg := core.NodeConfig{
			ListenAddr:          cfg.ICPAddr,
			Directory:           cfg.Summary,
			HasDocument:         p.cache.Contains,
			ReadDocument:        p.answerBody,
			QueryTimeout:        cfg.QueryTimeout,
			SocketWrapper:       sockWrap,
			Metrics:             reg,
			Logger:              cfg.Logger,
			Tracer:              cfg.Tracer,
			FalseMissAuditEvery: cfg.FalseMissAuditEvery,
			QueryAll:            cfg.Mode == ModeICP,
			BreakerThreshold:    cfg.BreakerThreshold,
			BreakerCooldown:     cfg.BreakerCooldown,
		}
		node, err := core.NewNode(nodeCfg)
		if err != nil {
			_ = ln.Close() // the node startup failure is the error worth reporting
			return nil, err
		}
		p.node = node
	default:
		_ = ln.Close() // the unknown-mode error is the one worth reporting
		return nil, fmt.Errorf("httpproxy: unknown mode %v", cfg.Mode)
	}

	// Persistence comes after the protocol endpoint exists (recovery
	// reinstalls directory and replica state into the node) and before the
	// listener serves (the first client request must see the warm cache).
	if err := p.startPersistence(reg, labels); err != nil {
		_ = ln.Close()
		_ = p.closeProtocol()
		return nil, err
	}

	p.clients = http1.Serve(ln, p.serveClient)
	return p, nil
}

// registerCacheMetrics re-exports the document cache's own accounting
// (entries, bytes, evictions by cause, staleness invalidations) into the
// registry as scrape-time reads — one source of truth.
func (p *Proxy) registerCacheMetrics(reg *obs.Registry, labels obs.Labels) {
	reg.GaugeFunc("summarycache_cache_entries",
		"documents in the local cache", labels,
		func() float64 { return float64(p.cache.Len()) })
	reg.GaugeFunc("summarycache_cache_bytes",
		"bytes in the local cache", labels,
		func() float64 { return float64(p.cache.Bytes()) })
	reg.CounterFunc("summarycache_cache_evictions_total",
		"documents displaced by LRU replacement", labels.With("reason", "capacity"),
		func() uint64 { return p.cache.Counters().EvictedCapacity })
	reg.CounterFunc("summarycache_cache_evictions_total",
		"documents explicitly removed", labels.With("reason", "removed"),
		func() uint64 { return p.cache.Counters().Removed })
	reg.CounterFunc("summarycache_cache_invalidations_total",
		"staleness invalidations: cached documents replaced by a new version",
		labels,
		func() uint64 { return p.cache.Counters().Updated })
	reg.CounterFunc("summarycache_cache_lock_contentions_total",
		"cache-lock acquisitions that found the lock held", labels,
		func() uint64 { return p.cache.Counters().LockContentions })
}

// Registry returns the registry the proxy instruments itself against —
// what an admin endpoint serves.
func (p *Proxy) Registry() *obs.Registry { return p.reg }

// Health returns the siblings' ICP addresses by liveness, sorted: up, and
// down. It is what /healthz reports; ModeNone has no siblings.
func (p *Proxy) Health() (up, down []string) {
	if p.node == nil {
		return nil, nil
	}
	return p.node.Health()
}

// StartHealthChecks begins probing the siblings over ICP, in both
// cooperating modes (no-op stop function in ModeNone, which has no
// siblings). A sibling the prober finds down is refused fetches like one
// its failed fetches took down.
func (p *Proxy) StartHealthChecks(cfg core.HealthConfig) (stop func()) {
	if p.node == nil {
		return func() {}
	}
	return p.node.StartHealthChecks(cfg)
}

func (p *Proxy) closeProtocol() error {
	if p.node == nil {
		return nil
	}
	return p.node.Close()
}

// Close shuts the proxy down. The HTTP listener and every client
// connection, the upstream connection pool and the protocol endpoint are
// torn down regardless of errors, and in-flight retry backoffs end; the
// first failure is reported. With persistence enabled, a final checkpoint
// captures the complete state so the next boot replays no journal.
func (p *Proxy) Close() error { return p.shutdown(true) }

// CloseAbrupt tears the proxy down without the final checkpoint — the
// crash persistence is built for, usable in-process where a real kill -9
// is not. Whatever the journal holds at this instant is exactly what a
// killed process would leave behind (a kill preserves the page cache, so
// unsynced appends survive it just as they survive this). The next Start
// on the same persist directory must recover by snapshot-plus-journal
// replay.
func (p *Proxy) CloseAbrupt() error { return p.shutdown(false) }

func (p *Proxy) shutdown(checkpoint bool) error {
	p.cancel() // ends the handlers' retry backoffs
	err := p.clients.Close()
	p.up.close()
	if perr := p.closeProtocol(); err == nil {
		err = perr
	}
	if serr := p.shutdownPersist(checkpoint); err == nil {
		err = serr
	}
	return err
}

// URL returns the proxy's HTTP base URL.
func (p *Proxy) URL() string { return "http://" + p.ln.Addr().String() }

// ICPAddr returns the proxy's ICP endpoint (nil in ModeNone).
func (p *Proxy) ICPAddr() *net.UDPAddr {
	if p.node == nil {
		return nil
	}
	return p.node.Addr()
}

// Mode returns the cooperation mode.
func (p *Proxy) Mode() Mode { return p.cfg.Mode }

// AddPeer registers a sibling by its ICP endpoint and HTTP base URL, which
// must parse as an http or https URL: it is parsed here, once, as the
// sibling's cache-only request every fetch from it copies. Re-adding a
// known ICP endpoint updates its HTTP URL in place.
func (p *Proxy) AddPeer(icpAddr *net.UDPAddr, httpURL string) error {
	if p.node == nil {
		return errors.New("httpproxy: ModeNone proxies have no peers")
	}
	cacheOnly, err := proxyPathRequest(httpURL + CacheOnlyPath)
	if err != nil {
		return fmt.Errorf("httpproxy: peer HTTP URL: %w", err)
	}
	id := icpAddr.String()
	p.sibMu.Lock()
	_, known := p.siblings[id]
	p.siblings[id] = cacheOnly
	p.sibMu.Unlock()
	if !known && p.cfg.BreakerThreshold >= 0 {
		p.reg.GaugeFunc("summarycache_proxy_breaker_state",
			"sibling liveness (0 up, 1 down, 2 probing)",
			obs.L("proxy", p.ln.Addr().String(), "peer", id),
			func() float64 { return float64(p.node.PeerState(icpAddr)) })
	}
	return p.node.AddPeer(icpAddr)
}

// RemovePeer drops a sibling: its ICP endpoint, HTTP mapping, liveness,
// summary replica (ModeSCICP), decision counts, and — the part peer churn
// gets wrong by default — every metric series labeled with the departed
// peer, so /metrics stops exposing stale series.
func (p *Proxy) RemovePeer(icpAddr *net.UDPAddr) {
	id := icpAddr.String()
	p.sibMu.Lock()
	delete(p.siblings, id)
	p.sibMu.Unlock()
	if p.node != nil {
		p.node.RemovePeer(icpAddr)
	}
	// Sweep anything else labeled for this peer under the proxy's label
	// set (the liveness gauge in particular).
	p.reg.Unregister(obs.L("proxy", p.ln.Addr().String(), "peer", id))
}

// siblingURL returns the cache-only request, ending in "url=", of the
// sibling with ICP address string id (nil when unknown).
func (p *Proxy) siblingURL(id string) *upRequest {
	p.sibMu.RLock()
	defer p.sibMu.RUnlock()
	return p.siblings[id]
}

// BreakerState reports the sibling's liveness (core.PeerUp for unknown
// peers) — diagnostics and tests.
func (p *Proxy) BreakerState(icpAddr string) core.PeerState {
	addr, err := net.ResolveUDPAddr("udp", icpAddr)
	if p.node == nil || err != nil {
		return core.PeerUp
	}
	return p.node.PeerState(addr)
}

// Resync re-ships this proxy's full summary state to every SC-ICP peer —
// the full-resync path invoked wholesale after a lossy episode clears, so
// replicas across the mesh reconverge without waiting for organic update
// traffic. No-op in the other modes, which keep no summary.
func (p *Proxy) Resync() error {
	if p.node == nil {
		return nil
	}
	return p.node.ResyncPeers()
}

// Stats snapshots the counters. The values are read from the same
// registry-backed instruments /metrics exposes, so a scrape and a Stats
// call taken at the same quiescent moment agree exactly.
func (p *Proxy) Stats() Stats {
	s := Stats{
		ClientRequests:   p.metrics.clientReqs.Value(),
		LocalHits:        p.metrics.localHits.Value(),
		RemoteHits:       p.metrics.remoteHits.Value(),
		Misses:           p.metrics.misses.Value(),
		FalseHits:        p.metrics.falseHits.Value(),
		StaleHits:        p.metrics.staleHits.Value(),
		LocalStale:       p.metrics.localStale.Value(),
		OriginFetches:    p.metrics.originFetches.Value(),
		PeerFetches:      p.metrics.peerFetches.Value(),
		Retries:          p.metrics.retries.Value(),
		BreakerSkips:     p.metrics.breakerSkips.Value(),
		InflightRequests: p.metrics.inflight.Value(),
	}
	for _, h := range p.metrics.latency {
		snap := h.Snapshot()
		s.RequestSeconds.Count += snap.Count
		s.RequestSeconds.Sum += snap.Sum
	}
	s.HTTPMessages = 2 * (s.ClientRequests + s.OriginFetches + s.PeerFetches)
	if p.node != nil {
		s.Node = p.node.Stats()
		s.UDP = s.Node.UDP
	}
	return s
}

// CacheLen returns the number of cached documents (tests/diagnostics).
func (p *Proxy) CacheLen() int { return p.cache.Len() }

// FlushSummary forces publication of pending summary deltas (ModeSCICP;
// no-op in the other modes).
func (p *Proxy) FlushSummary() {
	if p.node != nil {
		p.node.PublishNow()
	}
}

// Purge removes a document from the local cache, reporting whether it was
// present. The removal flows through the normal eviction path, so the
// summary directory records the deletion — though whether peers learn of
// it depends on the publication policy (a high Summary.MinPending leaves their
// replicas stale, the setup behind every false hit).
func (p *Proxy) Purge(target string) bool {
	return p.cache.Remove(target)
}

// --- cache body bookkeeping ---

// onCacheChange consumes the cache's change stream, which arrives in the
// order the cache applied it: membership changes feed the directory
// summary, and every stored document and departure is journaled. A failed
// append is counted (JournalErrors) and degrades recovery fidelity, never
// service.
func (p *Proxy) onCacheChange(e lru.Entry, ev lru.Event) {
	switch ev {
	case lru.Inserted, lru.Replaced:
		if ev == lru.Inserted && p.node != nil {
			p.node.HandleInsertSig(e.Key, e.Sig)
		}
		if p.store != nil {
			// The body lives only in snapshots: an insert newer than the
			// last checkpoint replays as a counted lost insert, and a
			// Replaced record's new version retires the old body at replay.
			_ = p.store.AppendInsert(e.Key, e.Size, e.Version)
		}
	case lru.EvictCapacity, lru.EvictRemoved:
		if p.node != nil {
			p.node.HandleEvictSig(e.Key, e.Sig)
		}
		if p.store != nil {
			_ = p.store.AppendEvict(e.Key)
		}
	}
}

// cachedBody reads key's document from the cache. A traced proxy records
// the read as an lru_get span: on tr, the client request's trace, or with
// tr nil straight to the tracer's sink.
func (p *Proxy) cachedBody(tr *tracing.Trace, key string) (lru.Entry, bool) {
	if p.tracer == nil {
		return p.cache.Get(key)
	}
	start := time.Now()
	e, ok := p.cache.Get(key)
	p.record(tr, tracing.Span{Name: tracing.SpanLRUGet, Start: start, DurationUS: tracing.Micros(time.Since(start))})
	return e, ok
}

// cachedBytes is cachedBody, outside a traced request, for a key held as
// bytes: untraced, it makes no string of them.
func (p *Proxy) cachedBytes(key []byte) (lru.Entry, bool) {
	if p.tracer == nil {
		return p.cache.GetBytes(key)
	}
	return p.cachedBody(nil, string(key))
}

// answerBody is the node's ReadDocument: a peer's query asking for the
// object inline reads the cache outside any client request.
func (p *Proxy) answerBody(key string) ([]byte, int64, bool) {
	e, ok := p.cachedBody(nil, key)
	return e.Body, e.Version, ok
}

// storeBody caches a fetched document under key, whose signature (see
// signature) is sig, and returns its sniffed Content-Type, stored with it
// so no hit sniffs it again. A traced proxy records a stored write as an
// lru_insert span on tr.
func (p *Proxy) storeBody(tr *tracing.Trace, key string, sig [md5.Size]byte, version int64, body []byte) (ctype string) {
	// The payload rides the entry itself, so entry and body are stored —
	// and later evicted — atomically. So does the signature, which the
	// change stream hands to the directory's insert and removal. An
	// uncacheable document (too large) is refused by Put and simply
	// dropped; onCacheChange journals what was stored.
	e := lru.Entry{Key: key, Size: int64(len(body)), Version: version, Sig: sig, Type: http.DetectContentType(body), Body: body}
	if p.tracer == nil {
		p.cache.Put(e)
		return e.Type
	}
	start := time.Now()
	if p.cache.Put(e) {
		p.record(tr, tracing.Span{Name: tracing.SpanLRUInsert, Start: start, DurationUS: tracing.Micros(time.Since(start))})
	}
	return e.Type
}

// record adds s to tr, or hands it to the tracer's sink when the work
// belongs to no client request (tr nil).
func (p *Proxy) record(tr *tracing.Trace, s tracing.Span) {
	if tr != nil {
		tr.AddSpan(s)
		return
	}
	p.tracer.Record(p.self, s)
}

// --- HTTP serving ---

// handle serves one client request, given its target's path and raw query
// (abs is the target of an absolute-form request): absolute-form requests
// are proxied; ProxyPath?url= is the explicit form; CacheOnlyPath?url=
// serves siblings.
func (p *Proxy) handle(c *clientConn, path, rawQuery, abs []byte) {
	switch {
	case string(path) == CacheOnlyPath:
		p.serveCacheOnly(c, rawQuery)
	case string(path) == ProxyPath:
		target := c.urlParam(rawQuery)
		if len(target) == 0 {
			c.writeError(http.StatusBadRequest, "missing url parameter")
			return
		}
		p.serveProxy(c, target)
	case len(abs) > 0:
		p.serveProxy(c, abs)
	default:
		c.writeError(http.StatusBadRequest, "not a proxy request")
	}
}

// urlParam extracts the first url query parameter, unescaped as
// url.QueryUnescape does (nil when malformed), straight from the raw
// query's bytes: no url.Values map, and no allocation. A value with
// nothing to decode is returned in place; any other is decoded into
// scratch's array when it fits (see unescape).
func urlParam(scratch, rawQuery []byte) []byte {
	for len(rawQuery) > 0 {
		var pair []byte
		pair, rawQuery, _ = bytes.Cut(rawQuery, []byte("&"))
		if v, ok := bytes.CutPrefix(pair, []byte("url=")); ok {
			target, _ := unescape(scratch, v, true)
			return target
		}
	}
	return nil
}

// urlParam is the package's urlParam into c's key scratch. The value it
// returns is valid until the connection's next request.
func (c *clientConn) urlParam(rawQuery []byte) []byte {
	if c.key == nil {
		c.key = make([]byte, 0, keyScratch)
	}
	return urlParam(c.key, rawQuery)
}

func (p *Proxy) serveCacheOnly(c *clientConn, rawQuery []byte) {
	e, ok := p.cachedBytes(c.urlParam(rawQuery))
	if !ok {
		c.writeError(http.StatusNotFound, "not cached")
		return
	}
	// The sibling compares the version against the one it wants — the
	// stale-hit detection of version-aware mode.
	c.writeDoc(e.Body, e.Type, e.Version)
}

// serveProxy serves raw, a target that lies in the request's head or the
// connection's key scratch (see clientConn.urlParam).
func (p *Proxy) serveProxy(c *clientConn, raw []byte) {
	p.metrics.clientReqs.Inc()
	p.metrics.inflight.Inc()
	start := time.Now()
	var tr *tracing.Trace
	target := "" // raw as a string, made once the request keeps it
	if p.tracer != nil {
		target = string(raw)
		tr = p.tracer.StartRequest(p.self, target)
	}
	outcome := p.serveProxyClassified(c, raw, target, tr)
	if outcome != "" {
		p.metrics.latency[outcome].ObserveDuration(time.Since(start))
		tr.Finish(outcome)
	} else {
		tr.Finish("error")
	}
	p.metrics.inflight.Dec()
}

// serveProxyClassified serves raw, which target is as a string ("" when
// not yet made), and returns its outcome class for the latency histogram
// ("" for malformed or failed requests, which measure client errors rather
// than cache behavior). tr is nil for untraced requests.
func (p *Proxy) serveProxyClassified(c *clientConn, raw []byte, target string, tr *tracing.Trace) string {
	// In version-aware mode the cache identity is the target with the
	// version parameter stripped; everywhere below — local lookup, ICP
	// queries, summary probes, sibling fetches — operates on the key, so
	// the whole mesh agrees on one identity per document. The origin fetch
	// alone uses the full target (the origin needs the wanted version).
	// The target is made a string only when the request keeps it: for the
	// tracer, for the version-aware key and on a local miss. Any other
	// local lookup reads raw itself, and nothing reads raw after it.
	key, wanted := target, int64(0)
	if p.cfg.VersionAware {
		if target == "" {
			target = string(raw)
		}
		key, wanted = splitVersion(target)
	}

	lookupStart := time.Now()
	var e lru.Entry
	var cached bool
	if target != "" {
		e, cached = p.cachedBody(tr, key)
	} else {
		e, cached = p.cachedBytes(raw) // untraced: a tracer made target
	}
	staleLocal := cached && p.cfg.VersionAware && e.Version != wanted
	if cached && !staleLocal {
		if tr != nil {
			tr.AddSpan(tracing.Span{
				Name:       tracing.SpanLocalLookup,
				Start:      lookupStart,
				DurationUS: tracing.Micros(time.Since(lookupStart)),
				Actual:     "hit",
			})
		}
		p.metrics.localHits.Inc()
		c.writeDoc(e.Body, e.Type, 0)
		return outcomeLocalHit
	}
	if staleLocal {
		// A cached but out-of-date copy is a miss in the paper's hit
		// accounting; the fresh fetch below replaces it.
		p.metrics.localStale.Inc()
	}
	if tr != nil {
		actual := "miss"
		if staleLocal {
			actual = "stale_local"
		}
		tr.AddSpan(tracing.Span{
			Name:       tracing.SpanLocalLookup,
			Start:      lookupStart,
			DurationUS: tracing.Micros(time.Since(lookupStart)),
			Actual:     actual,
		})
	}

	if target == "" {
		target = string(raw) // the miss keeps its key
		key = target
	}
	// Only a miss needs the target to parse: a cached key was fetched, so
	// it parsed, and a local hit skips the check. A target plainTarget
	// vouches for parses, and it is never built: its origin request is cut
	// from its bytes. Any other is parsed now. Either way a malformed
	// target is refused before any sibling summary is probed or any
	// sibling asked.
	var u *url.URL
	if _, ok := plainTarget(target); !ok {
		var err error
		if u, err = url.Parse(target); err != nil {
			c.writeError(http.StatusBadRequest, "bad target url")
			return ""
		}
	}
	// The key's signature is computed once per miss, here, and serves
	// the summary probes and the directory's insert and later removal.
	sig := p.signature(key)

	// Local miss: try siblings per the cooperation mode. The trace rides
	// the context down through the node's lookup (summary probes, ICP
	// round-trip) and the fetch helpers — attached only when tracing, so
	// the untraced path skips the context allocation too.
	ctx := c.ctx
	if tr != nil {
		ctx = tracing.NewContext(ctx, tr)
	}
	body, ok, falseHit, staleHit := p.tryRemote(ctx, c, key, sig, wanted)
	if ok {
		p.metrics.remoteHits.Inc()
		ctype := "" // sniffed as the response is sent
		if !p.cfg.SingleCopy {
			ctype = p.storeBody(tr, key, sig, wanted, body) // simple sharing: cache the remote copy
		}
		c.writeDoc(body, ctype, 0)
		return outcomeRemoteHit
	}
	if falseHit {
		// Tail-based sampling: a false hit is always worth keeping.
		tr.MarkAnomalous("false_hit")
	}

	body, version, err := p.fetchOrigin(ctx, target, u)
	if err != nil {
		c.writeError(http.StatusBadGateway, "origin fetch failed: "+err.Error())
		return ""
	}
	if p.cfg.VersionAware && version == 0 {
		version = wanted // origin did not echo a version header
	}
	p.metrics.misses.Inc()
	ctype := p.storeBody(tr, key, sig, version, body)
	// Count before replying, as the hit paths do, so Stats already shows
	// the request's class when the client has its response.
	outcome := outcomeMiss
	switch {
	case staleHit:
		p.metrics.staleHits.Inc()
		outcome = outcomeStaleHit
	case falseHit:
		p.metrics.falseHits.Inc()
		outcome = outcomeFalseHit
	}
	c.writeDoc(body, ctype, 0)
	return outcome
}

// signature returns key's hashing.Signature when this proxy keeps a
// summary of its cache (ModeSCICP), and the zero signature, which nothing
// reads, when it keeps none.
func (p *Proxy) signature(key string) (sig [md5.Size]byte) {
	if p.cfg.Mode == ModeSCICP {
		sig = hashing.Signature(key)
	}
	return sig
}

// plainTarget reports whether target is in a subset of the absolute URLs
// url.Parse accepts that it recognizes without building a *url.URL:
// "http://", a host of letters, digits, '-', '.' and '_' with an optional
// numeric port, then a path of RFC 3986 path characters ('%' only as a
// two-hex-digit escape) and a query of visible ASCII but '#'. url.Parse
// reads such a target with that host, the path as its EscapedPath and the
// query as its RawQuery, url.ParseRequestURI reads it so too, and either
// URL's String is the target (FuzzTargetCheck). n is the length of the
// "http://host[:port]" prefix, after which the path begins. It reads a
// target held as bytes as it reads the string of them, and allocates
// nothing.
func plainTarget[T string | []byte](target T) (n int, ok bool) {
	if len(target) < len("http://") || string(target[:len("http://")]) != "http://" {
		return 0, false
	}
	i := len("http://")
	for i < len(target) && isHostByte(target[i]) {
		i++
	}
	if i == len("http://") {
		return 0, false
	}
	if i < len(target) && target[i] == ':' {
		j := i + 1
		for j < len(target) && '0' <= target[j] && target[j] <= '9' {
			j++
		}
		if j == i+1 {
			return 0, false
		}
		i = j
	}
	n = i
	if i < len(target) && target[i] != '/' && target[i] != '?' {
		return 0, false // userinfo, an IPv6 literal's bracket, or a byte no host has
	}
	for ; i < len(target) && target[i] != '?'; i++ {
		switch c := target[i]; {
		case c == '%':
			if i+2 >= len(target) || !isHex(target[i+1]) || !isHex(target[i+2]) {
				return 0, false
			}
			i += 2
		case !isPathByte(c):
			return 0, false
		}
	}
	for ; i < len(target); i++ {
		if c := target[i]; c <= ' ' || c >= 0x7f || c == '#' {
			return 0, false
		}
	}
	return n, true
}

func isAlnum(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9'
}

func isHostByte(c byte) bool { return isAlnum(c) || c == '-' || c == '.' || c == '_' }

// isPathByte reports whether c stands for itself in a path url.Parse
// keeps as written: an unreserved character, a sub-delimiter, ':', '@'
// or '/'.
func isPathByte(c byte) bool { return isAlnum(c) || strings.IndexByte("-._~!$&'()*+,;=:@/", c) >= 0 }

// splitVersion derives a target URL's version-aware cache identity: the
// target with every versionParam pair removed from its raw query, every
// other byte kept as it was, plus the version the first pair names (0 when
// there is none or it is not a number). Re-encoding the query instead would
// give URLs that differ only in pair order or escaping one cache entry.
func splitVersion(target string) (key string, version int64) {
	rest, frag, hasFrag := strings.Cut(target, "#")
	head, query, _ := strings.Cut(rest, "?")
	var kept []string
	found := false
	for _, pair := range strings.Split(query, "&") {
		name, value, _ := strings.Cut(pair, "=")
		if name != versionParam {
			kept = append(kept, pair)
		} else if !found {
			found = true
			version, _ = strconv.ParseInt(value, 10, 64)
		}
	}
	if !found {
		return target, 0
	}
	key = head
	if len(kept) > 0 {
		key += "?" + strings.Join(kept, "&")
	}
	if hasFrag {
		key += "#" + frag
	}
	return key, version
}

// tryRemote resolves a local miss on key, whose signature is sig, against
// the siblings. It returns the
// document when some sibling both claimed and delivered a usable copy;
// falseHit reports a failed indication — a claimed HIT that was not
// delivered, or summary candidates that all replied MISS (the paper's
// false hits) — and staleHit a delivered copy of the wrong version
// (version-aware mode; the paper's remote stale hits). The node asks the
// first peer it queries for the object inline, so a small document that
// peer holds arrives in its HIT_OBJ reply. Under SC-ICP that peer is the
// first summary candidate; classic ICP knows no holder and asks the first
// peer added, so a document held only by another sibling still takes the
// HTTP leg. The object lands in c's obj scratch, which keeps the array it
// took up to icp.MaxHitObjLen bytes, so an inline body is valid until the
// connection's next request.
func (p *Proxy) tryRemote(ctx context.Context, c *clientConn, key string, sig [md5.Size]byte, wanted int64) (body []byte, ok, falseHit, staleHit bool) {
	if p.node == nil {
		return nil, false, false, false
	}
	res, err := p.node.LookupObject(ctx, key, sig, c.obj)
	if err != nil || res.Peer == nil {
		return nil, false, err == nil && res.FalseHit, false
	}
	if obj := res.Reply.Object; res.Reply.Op == icp.OpHitObj && cap(obj) <= icp.MaxHitObjLen {
		c.obj = obj[:0]
	}
	return p.finishRemoteHit(ctx, res.PeerID, res.Peer, res.Reply, key, wanted)
}

// finishRemoteHit takes the document a sibling claimed to have — from its
// HIT_OBJ reply when the object came inline, otherwise by a cache-only HTTP
// fetch — and classifies the result: delivered fresh, delivered stale, or
// not delivered at all, as the node charges it to the claiming sibling.
// id is from's peer identifier (its address string). Simple sharing caches
// what it serves, and the cache owns its bodies, so an inline object is
// copied out of the connection's scratch.
func (p *Proxy) finishRemoteHit(ctx context.Context, id string, from *net.UDPAddr, win icp.Message, key string, wanted int64) (body []byte, ok, falseHit, staleHit bool) {
	body, version, ok := win.Object, int64(win.OptionData), true
	if win.Op != icp.OpHitObj {
		body, version, ok = p.fetchPeer(ctx, id, from, key)
	}
	if !ok {
		// A claimed HIT that was not delivered (eviction race, dark
		// sibling, sibling down) is a false hit charged to the claimer.
		p.node.Delivered(ctx, from, key, core.NotDelivered)
		return nil, false, true, false
	}
	if p.cfg.VersionAware && version != wanted {
		p.node.Delivered(ctx, from, key, core.DeliveredStale)
		if tr := tracing.FromContext(ctx); tr != nil {
			tr.MarkAnomalous("stale_hit")
		}
		return nil, false, false, true
	}
	p.node.Delivered(ctx, from, key, core.DeliveredFresh)
	if win.Op == icp.OpHitObj && !p.cfg.SingleCopy {
		body = bytes.Clone(body)
	}
	return body, true, false, false
}

func (p *Proxy) fetchPeer(ctx context.Context, id string, peer *net.UDPAddr, target string) (body []byte, version int64, ok bool) {
	actual := "failed"
	if tr := tracing.FromContext(ctx); tr != nil {
		start := time.Now()
		defer func() {
			tr.AddSpan(tracing.Span{
				Name:       tracing.SpanPeerFetch,
				Peer:       id,
				Start:      start,
				DurationUS: tracing.Micros(time.Since(start)),
				Actual:     actual,
			})
		}()
	}
	base := p.siblingURL(id)
	if base == nil {
		return nil, 0, false
	}
	if !p.node.AdmitFetch(peer) {
		// The sibling is down: skip the doomed fetch and let the caller
		// fall through to the origin (a false hit, not an error).
		p.metrics.breakerSkips.Inc()
		actual = "breaker_open"
		if tr := tracing.FromContext(ctx); tr != nil {
			tr.MarkAnomalous("breaker_open")
		}
		return nil, 0, false
	}
	p.metrics.peerFetches.Inc()
	// One bounded cache-only fetch, never retried: the origin fallback is
	// always available and strictly cheaper than a second trip to a flaky
	// sibling. A non-200 is the eviction race, a false hit after all.
	r := *base
	r.arg = target
	status, body, version, err := p.up.get(r)
	ok = err == nil && status == http.StatusOK
	p.node.FetchDone(peer, ok)
	if ok {
		actual = "ok"
	}
	return body, version, ok
}

// errBodyTooLarge marks a response whose body exceeds the cache's body
// cap. Callers classify it as transient (retryable / fall back to the
// origin), exactly like a truncated read: in both cases the proxy does
// not hold a complete document it could serve or cache.
var errBodyTooLarge = errors.New("httpproxy: response body exceeds cap")

// readBodyLimit slurps the body of the response with head h, at most limit
// bytes (a parameter, so tests need not materialize 64 MB bodies), sizing
// the buffer from Content-Length when the server declared one — one exact
// allocation instead of io.ReadAll's grow-and-copy doublings. A body
// shorter than declared surfaces as io.ReadFull's unexpected-EOF error, a
// retryable truncation. The cap applies identically to declared and
// unknown-length (chunked / -1) bodies: anything past it is an error,
// never a silently truncated body cached or forwarded as complete.
func readBodyLimit(h responseHead, body io.Reader, limit int64) ([]byte, error) {
	n := h.length
	if n > limit {
		// Don't read what we will refuse to serve: fail before burning
		// bandwidth on a body the cache would have to throw away.
		return nil, fmt.Errorf("%w: declared %d > %d", errBodyTooLarge, n, limit)
	}
	if n < 0 {
		// Unknown length (chunked or close-delimited): read through a
		// limit one byte past the cap so overflow is detectable, and
		// refuse the body rather than passing a truncated prefix off as
		// the complete document.
		b, err := io.ReadAll(io.LimitReader(body, limit+1))
		if err != nil {
			return nil, err
		}
		if int64(len(b)) > limit {
			return nil, fmt.Errorf("%w: unknown length exceeds %d", errBodyTooLarge, limit)
		}
		return b, nil
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(body, b); err != nil {
		return nil, err
	}
	// A Content-Length overrun would mean a server bug; the fetcher reads
	// no further than the declared length, so b is complete here.
	return b, nil
}

// maxDeclaredBody caps the size of any cached or relayed document body.
// Declared lengths above it fail fast without reading; unknown-length
// bodies are read up to the cap and fail if they exceed it — the header
// of a hostile server never sizes an allocation past this bound.
const maxDeclaredBody = 64 << 20

// maxErrorDrain bounds how much of an unwanted (non-200) response body is
// read. An ordinary error page is read to its end, so its connection goes
// back to the pool; a larger body closes its connection instead of being
// read in full on every attempt.
const maxErrorDrain = 4 << 10

// fetchOrigin fetches target from the origin (or through the parent
// proxy), retrying retryable failures — transport errors, 5xx
// statuses, truncated bodies — up to fetchRetries times with capped
// exponential backoff and ±50% jitter. Each attempt is individually
// bounded by fetchTimeout, so a hung origin costs at most (retries+1) ×
// timeout, never a wedged handler.
// A client that hangs up does not abort the attempt in flight, whose
// document is still cached, but no retry starts after it: clientGone is
// asked before each one. u is target parsed, or nil for a target
// plainTarget accepts, whose request is cut from the string itself.
func (p *Proxy) fetchOrigin(ctx context.Context, target string, u *url.URL) (body []byte, version int64, err error) {
	retried := 0
	if tr := tracing.FromContext(ctx); tr != nil {
		start := time.Now()
		defer func() {
			s := tracing.Span{
				Name:       tracing.SpanOriginFetch,
				Start:      start,
				DurationUS: tracing.Micros(time.Since(start)),
				Actual:     "ok",
				Retries:    retried,
			}
			if err != nil {
				s.Actual, s.Err = "failed", err.Error()
			}
			tr.AddSpan(s)
		}()
	}
	p.metrics.originFetches.Inc()
	r, err := p.originRequest(target, u)
	if err != nil {
		return nil, 0, err // an unsupported scheme or host: no attempt can succeed
	}
	for attempt := 0; ; attempt++ {
		var status int
		status, body, version, err = p.up.get(r)
		// Transport errors, truncated bodies and 5xx are retryable; any other
		// status is permanent (a 404 will not improve on retry).
		retryable := err != nil || status >= 500
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("origin status %d", status)
		}
		if err == nil || !retryable || attempt >= p.fetchRetries {
			return body, version, err
		}
		if p.backoff(ctx, attempt) != nil || clientGone(ctx) {
			return nil, 0, err // shutdown, or the client gave up; report the fetch failure
		}
		retried++
		p.metrics.retries.Inc()
	}
}

// originRequest is the request that fetches target, parsed as u or, when u
// is nil, accepted by plainTarget: through the parent when there is one,
// else from the origin.
func (p *Proxy) originRequest(target string, u *url.URL) (upRequest, error) {
	switch {
	case p.parent != nil:
		r := *p.parent
		r.arg = target
		return r, nil
	case u != nil:
		return urlRequest(u)
	}
	n, _ := plainTarget(target)
	return plainRequest(target, n), nil
}

// proxyPathRequest parses base, a proxy's ProxyPath or CacheOnlyPath URL,
// as the request whose url= parameter each fetch sets.
func proxyPathRequest(base string) (*upRequest, error) {
	u, err := url.Parse(base + "?url=")
	if err != nil {
		return nil, err
	}
	r, err := urlRequest(u)
	if err != nil {
		return nil, err
	}
	return &r, nil
}

// backoff sleeps before retry number attempt+1: fetchBackoff doubled per
// attempt (capped at maxBackoffFactor×) with ±50% jitter, so a mesh
// recovering from a shared origin outage does not retry in lockstep. It
// returns early with the context's error when the proxy closes.
func (p *Proxy) backoff(ctx context.Context, attempt int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	factor := int64(1) << min(attempt, 30)
	if factor > maxBackoffFactor {
		factor = maxBackoffFactor
	}
	d := time.Duration(factor) * p.fetchBackoff
	if d > 0 {
		d = d/2 + rand.N(d) // uniform in [0.5d, 1.5d)
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(d):
		return nil
	}
}
