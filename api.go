package summarycache

// This file is the public face of the library: the types and constructors
// a downstream user needs, aliased from the internal packages so the
// import graph stays one line — import "summarycache" — while the
// implementation keeps its per-subsystem layout.

import (
	"io"
	"net/http"

	"summarycache/internal/bench"
	"summarycache/internal/bloom"
	"summarycache/internal/core"
	"summarycache/internal/experiments"
	"summarycache/internal/faultnet"
	"summarycache/internal/hashing"
	"summarycache/internal/httpproxy"
	"summarycache/internal/icp"
	"summarycache/internal/lru"
	"summarycache/internal/obs"
	"summarycache/internal/origin"
	"summarycache/internal/perfwatch"
	"summarycache/internal/persist"
	"summarycache/internal/sim"
	"summarycache/internal/trace"
	"summarycache/internal/tracegen"
	"summarycache/internal/tracing"
)

// --- the summary-cache protocol (internal/core) ---

// Directory maintains a proxy's own cache summary: a counting Bloom filter
// plus the journal of unpublished bit flips.
type Directory = core.Directory

// DirectoryConfig sizes a Directory.
type DirectoryConfig = core.DirectoryConfig

// PeerTable is a standalone set of neighbors' summary replicas, for
// replaying DIRUPDATEs without a Node. A Node keeps each registered peer's
// replica on that peer's record and holds no PeerTable.
type PeerTable = core.PeerTable

// Node is a summary-cache enhanced ICP endpoint.
type Node = core.Node

// NodeConfig configures a Node.
type NodeConfig = core.NodeConfig

// HealthConfig parameterizes Node.StartHealthChecks.
type HealthConfig = core.HealthConfig

// Recommendation is the paper's §V-E recommended configuration.
type Recommendation = core.Recommendation

// NewDirectory builds a directory summary.
func NewDirectory(cfg DirectoryConfig) (*Directory, error) { return core.NewDirectory(cfg) }

// NewPeerTable creates an empty peer-summary table.
func NewPeerTable() *PeerTable { return core.NewPeerTable() }

// NewNode opens a summary-cache ICP endpoint.
func NewNode(cfg NodeConfig) (*Node, error) { return core.NewNode(cfg) }

// Recommend derives the paper's recommended configuration for a cache.
func Recommend(cacheBytes, avgDocBytes int64, requestsPerSecond, missRatio float64) (Recommendation, error) {
	return core.Recommend(cacheBytes, avgDocBytes, requestsPerSecond, missRatio)
}

// --- Bloom filters (internal/bloom) ---

// Filter is a plain Bloom filter (a peer-summary replica).
type Filter = bloom.Filter

// CountingFilter is the paper's counting Bloom filter.
type CountingFilter = bloom.CountingFilter

// Flip is one absolute set/clear bit record.
type Flip = bloom.Flip

// HashSpec describes a Bloom hash family (MD5 bit groups).
type HashSpec = hashing.Spec

// DefaultHashSpec is the paper's 4 × 32-bit MD5 configuration.
var DefaultHashSpec = hashing.DefaultSpec

// NewFilter creates a plain Bloom filter.
func NewFilter(bits uint64, spec HashSpec) (*Filter, error) { return bloom.NewFilter(bits, spec) }

// MustNewFilter is NewFilter, panicking on error.
func MustNewFilter(bits uint64, spec HashSpec) *Filter { return bloom.MustNewFilter(bits, spec) }

// NewCountingFilter creates a counting Bloom filter.
func NewCountingFilter(bits uint64, counterBits uint, spec HashSpec) (*CountingFilter, error) {
	return bloom.NewCountingFilter(bits, counterBits, spec)
}

// FalsePositiveRate returns the analytic false-positive probability for a
// filter of m bits holding n keys with k hash functions.
func FalsePositiveRate(m, n uint64, k int) float64 { return bloom.FalsePositiveRate(m, n, k) }

// FalsePositiveRateApprox is the paper's closed-form (1-e^{-nk/m})^k
// approximation of FalsePositiveRate.
func FalsePositiveRateApprox(m, n uint64, k int) float64 {
	return bloom.FalsePositiveRateApprox(m, n, k)
}

// MinFalsePositiveRate returns the false-positive probability at the
// optimal k for a filter of m bits holding n keys.
func MinFalsePositiveRate(m, n uint64) float64 { return bloom.MinFalsePositiveRate(m, n) }

// PowerBound is the paper's 0.6185^(m/n) bound on the minimum
// false-positive rate at a given load factor m/n.
func PowerBound(loadFactor float64) float64 { return bloom.PowerBound(loadFactor) }

// OptimalK returns the false-positive-minimizing number of hash functions.
func OptimalK(m, n uint64) int { return bloom.OptimalK(m, n) }

// ExpectedMaxCount estimates the expected maximum counter value in a
// counting filter of m counters holding n keys with k hash functions (the
// paper's §V-C overflow analysis).
func ExpectedMaxCount(m, n uint64, k int) float64 { return bloom.ExpectedMaxCount(m, n, k) }

// CounterOverflowProbability bounds the probability that some counter
// reaches j in a counting filter of m counters, n keys, k hash functions.
func CounterOverflowProbability(m, n uint64, k, j int) float64 {
	return bloom.CounterOverflowProbability(m, n, k, j)
}

// --- the cache and the proxy (internal/lru, internal/httpproxy) ---

// Cache is the byte-budget LRU document cache.
type Cache = lru.Cache

// CacheConfig customizes a Cache.
type CacheConfig = lru.Config

// CacheEntry is one cached document.
type CacheEntry = lru.Entry

// NewCache creates a document cache from cfg; CacheConfig.Capacity must be
// positive. The cache is one LRU list under one mutex; CacheConfig.OnChange
// observes its changes in the order they were applied.
func NewCache(cfg CacheConfig) (*Cache, error) { return lru.NewCache(cfg) }

// Proxy is a caching HTTP forward proxy with cooperative peering.
type Proxy = httpproxy.Proxy

// ProxyConfig configures a Proxy.
type ProxyConfig = httpproxy.Config

// ProxyMode selects the cooperation protocol.
type ProxyMode = httpproxy.Mode

// The cooperation modes.
const (
	ProxyModeNone  = httpproxy.ModeNone
	ProxyModeICP   = httpproxy.ModeICP
	ProxyModeSCICP = httpproxy.ModeSCICP
)

// StartProxy launches a caching proxy.
func StartProxy(cfg ProxyConfig) (*Proxy, error) { return httpproxy.Start(cfg) }

// ProxyPath is the proxy's explicit-form endpoint:
// GET /__summarycache/proxy?url=<target>.
const ProxyPath = httpproxy.ProxyPath

// --- warm-restart persistence (internal/persist) ---

// PersistConfig configures warm-restart persistence; set it on
// ProxyConfig.Persist to make a proxy recover its cache, directory
// filter, and peer replicas across restarts.
type PersistConfig = persist.Config

// PersistFsyncPolicy selects the journal durability policy.
type PersistFsyncPolicy = persist.FsyncPolicy

// ParsePersistFsyncPolicy parses a -persist-fsync style flag value
// ("always", "interval", "never"; empty selects the default).
func ParsePersistFsyncPolicy(s string) (PersistFsyncPolicy, error) {
	return persist.ParseFsyncPolicy(s)
}

// --- the wire protocol (internal/icp) ---

// ICPMessage is one ICP datagram.
type ICPMessage = icp.Message

// ParseICP decodes one ICP datagram.
func ParseICP(b []byte) (ICPMessage, error) { return icp.Parse(b) }

// SplitUpdate partitions flips into DIRUPDATE messages of at most maxFlips
// records each (MaxFlipsPerMessage when maxFlips <= 0).
func SplitUpdate(reqNum uint32, spec HashSpec, bits uint32, flips []Flip, maxFlips int) []ICPMessage {
	return icp.SplitUpdate(reqNum, spec, bits, flips, maxFlips)
}

// --- deterministic fault injection (internal/faultnet) ---

// FaultScenario is a complete, replayable fault schedule: a seed plus the
// drop/delay/duplication rates for each direction of the ICP UDP path and
// the failure rates for the outbound HTTP transport. Set an injector built
// from one on ProxyConfig.Faults (or SyntheticConfig.Chaos for a whole
// benchmark mesh).
type FaultScenario = faultnet.Scenario

// FaultRates are the per-datagram UDP fault probabilities for one
// direction of a FaultScenario.
type FaultRates = faultnet.Rates

// FaultHTTPRates are the per-request fault probabilities for the HTTP
// transport wrapper.
type FaultHTTPRates = faultnet.HTTPRates

// --- observability (internal/obs) ---

// Registry is a concurrency-safe registry of labeled counters, gauges and
// latency histograms; a whole proxy mesh may share one.
type Registry = obs.Registry

// NewRegistry creates an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// Mount adds an extra handler to an admin endpoint built by
// NewAdminHandler.
type Mount = obs.Mount

// NewAdminHandler builds the admin endpoint: Prometheus text exposition at
// /metrics, expvar-style JSON at /debug/vars, net/http/pprof at
// /debug/pprof/, /healthz (503 while peers reports a peer down; nil: no
// peers), plus any extra mounts.
func NewAdminHandler(r *Registry, peers func() (up, down []string), mounts ...Mount) http.Handler {
	return obs.NewHandler(r, peers, mounts...)
}

// RegisterRuntimeMetrics exposes Go runtime health at /metrics —
// mutex-wait seconds (runtime/metrics), goroutine count and GC cycles —
// so lock contention inside the process is visible next to the cache's
// own contention counter.
func RegisterRuntimeMetrics(r *Registry) { obs.RegisterRuntimeMetrics(r) }

// --- distributed tracing (internal/tracing) ---

// Tracer records request-scoped distributed traces across the SC-ICP mesh
// (local lookup, per-peer summary probes with decision audits, ICP
// round-trips, sibling and origin fetches) and serves them at
// /debug/traces. Set it on ProxyConfig.Tracer or NodeConfig.Tracer.
type Tracer = tracing.Tracer

// TracerConfig parameterizes a Tracer: head-sampling rate, ring-buffer
// capacity, and the metrics registry its retention counters register in.
type TracerConfig = tracing.Config

// TracerSink observes every span and trace completion regardless of
// sampling — set TracerConfig.Sink to a *PerfWatch to feed the per-stage
// latency decomposition and SLO engine.
type TracerSink = tracing.SpanSink

// NewTracer creates a Tracer.
func NewTracer(cfg TracerConfig) *Tracer { return tracing.New(cfg) }

// --- performance observability (internal/perfwatch) ---

// PerfWatch decomposes request latency into per-stage histograms
// (summarycache_perf_stage_seconds{stage=...}), evaluates named SLOs with
// error-budget burn rates, and captures a bounded ring of pprof profiles
// when an objective's burn trips. Wire one Watch as both
// TracerConfig.Sink (span-level stages, SLO stream) and ProxyConfig.Perf
// (sub-span stages: LRU ops, DIRUPDATE codec, per-reply ICP RTT); serve
// its SLOHandler at /debug/slo and PerfHandler at /debug/perf. A nil
// *PerfWatch is a valid disabled watch.
type PerfWatch = perfwatch.Watch

// PerfConfig parameterizes a PerfWatch.
type PerfConfig = perfwatch.Config

// PerfObjective is one named service-level objective: a latency ceiling,
// an error-rate budget, or a ratio of caller-supplied counters (e.g.
// false hits over client requests).
type PerfObjective = perfwatch.Objective

// PerfCaptureConfig configures anomaly-triggered pprof capture: ring
// size, CPU-profile duration, and the rate-limit interval.
type PerfCaptureConfig = perfwatch.CaptureConfig

// NewPerfWatch creates a PerfWatch.
func NewPerfWatch(cfg PerfConfig) *PerfWatch { return perfwatch.New(cfg) }

// --- the synthetic origin farm (internal/origin) ---

// OriginServer is the synthetic Web-server farm of the paper's benchmarks:
// it delays each reply by a configured latency and answers with the body
// size encoded in the request URL.
type OriginServer = origin.Server

// OriginConfig parameterizes an OriginServer.
type OriginConfig = origin.Config

// StartOrigin launches a synthetic origin server.
func StartOrigin(cfg OriginConfig) (*OriginServer, error) { return origin.Start(cfg) }

// DocURL builds a synthetic-origin document URL carrying the document's
// path, size and version.
func DocURL(base, path string, size, version int64) string {
	return origin.DocURL(base, path, size, version)
}

// --- request traces (internal/trace) ---

// TraceRequest is one HTTP request record in a trace.
type TraceRequest = trace.Request

// TraceStats is the per-trace statistics of the paper's Table I.
type TraceStats = trace.Stats

// TraceWriter writes the line-oriented trace format.
type TraceWriter = trace.Writer

// TraceBinaryWriter writes the compact binary trace format.
type TraceBinaryWriter = trace.BinaryWriter

// NewTraceWriter creates a line-oriented trace writer.
func NewTraceWriter(w io.Writer) *TraceWriter { return trace.NewWriter(w) }

// NewTraceBinaryWriter creates a binary trace writer.
func NewTraceBinaryWriter(w io.Writer) *TraceBinaryWriter { return trace.NewBinaryWriter(w) }

// ReadTraceAuto reads a whole trace, auto-detecting the line or binary
// format.
func ReadTraceAuto(r io.Reader) ([]TraceRequest, error) { return trace.ReadAllAuto(r) }

// ComputeTraceStats derives a trace's Table I statistics.
func ComputeTraceStats(name string, reqs []TraceRequest) TraceStats {
	return trace.ComputeStats(name, reqs)
}

// --- synthetic trace generation (internal/tracegen) ---

// TracePreset names one of the five paper traces whose statistical shape
// tracegen reproduces.
type TracePreset = tracegen.Preset

// Paper-trace presets (TracePresets lists all five).
const (
	PresetDEC   = tracegen.DEC
	PresetUPisa = tracegen.UPisa
)

// TraceGenConfig parameterizes synthetic trace generation.
type TraceGenConfig = tracegen.Config

// TracePresets lists the available presets.
func TracePresets() []TracePreset { return tracegen.Presets() }

// GenerateTrace synthesizes a request trace from an explicit config.
func GenerateTrace(cfg TraceGenConfig) ([]TraceRequest, error) { return tracegen.Generate(cfg) }

// GeneratePreset synthesizes a request trace with the statistical shape of
// a paper trace, scaled by scale in (0, 1].
func GeneratePreset(p TracePreset, scale float64) ([]TraceRequest, TraceGenConfig, error) {
	return tracegen.GeneratePreset(p, scale)
}

// --- the trace-driven simulator (internal/sim) ---

// SimConfig parameterizes one simulator run.
type SimConfig = sim.Config

// SimResult reports a run's hit ratios, error ratios and message costs.
type SimResult = sim.Result

// SimScheme selects the cooperation model of the paper's §III.
type SimScheme = sim.Scheme

// The cooperation schemes (Fig. 1).
const (
	SimNoSharing     = sim.NoSharing
	SimSimpleSharing = sim.SimpleSharing
	SimGlobalCache   = sim.GlobalCache
)

// SimSummaryKind selects how simulated proxies learn peers' contents.
type SimSummaryKind = sim.SummaryKind

// The summary representations (Figs. 2, 5-8; Table III).
const (
	SummaryOracle = sim.Oracle
	SummaryICP    = sim.ICP
	SummaryBloom  = sim.Bloom
)

// SimSummaryConfig tunes the simulated summary (kind, load factor, counter
// bits, update threshold, hash spec).
type SimSummaryConfig = sim.SummaryConfig

// RunSim replays a request trace through the simulator.
func RunSim(cfg SimConfig, reqs []TraceRequest) (SimResult, error) { return sim.Run(cfg, reqs) }

// --- the paper's figures and tables (internal/experiments) ---

// TraceSet bundles a trace with its Table I statistics and group count.
type TraceSet = experiments.TraceSet

// LoadTraceSet generates (or loads) the named preset trace at scale and
// bundles it with its statistics.
var LoadTraceSet = experiments.Load

// TraceSetFromRequests bundles explicit requests into a TraceSet.
var TraceSetFromRequests = experiments.LoadFromRequests

// TableI returns a trace's Table I row.
var TableI = experiments.TableI

// Fig1Row is one (scheme, cache fraction) point of Fig. 1.
type Fig1Row = experiments.Fig1Row

// Fig1 sweeps cooperative-caching schemes across cache sizes (Fig. 1).
var Fig1 = experiments.Fig1

// Fig1Schemes is the paper's Fig. 1 scheme list.
var Fig1Schemes = experiments.Fig1Schemes

// Fig1CacheFracs is the paper's Fig. 1 cache-fraction sweep.
var Fig1CacheFracs = experiments.Fig1CacheFracs

// Fig1CSV writes Fig. 1 rows as CSV.
var Fig1CSV = experiments.Fig1CSV

// Fig2Row is one update-threshold point of Fig. 2.
type Fig2Row = experiments.Fig2Row

// Fig2 sweeps the summary update threshold (Fig. 2).
var Fig2 = experiments.Fig2

// Fig2CSV writes Fig. 2 rows as CSV.
var Fig2CSV = experiments.Fig2CSV

// SummaryRow is one summary representation's accuracy and cost (Figs. 5-8,
// Table III).
type SummaryRow = experiments.SummaryRow

// SummaryComparison evaluates summary representations on one trace.
var SummaryComparison = experiments.SummaryComparison

// SummaryCSV writes summary-comparison rows as CSV.
var SummaryCSV = experiments.SummaryCSV

// Scalability projects summary memory and message costs across mesh sizes.
var Scalability = experiments.Scalability

// ScaleCSV writes scalability rows as CSV.
var ScaleCSV = experiments.ScaleCSV

// AmortRow is one batch-size point of the update-amortization sweep.
type AmortRow = experiments.AmortRow

// UpdateAmortization sweeps DIRUPDATE batching (the packet-fill rule).
var UpdateAmortization = experiments.UpdateAmortization

// AmortCSV writes amortization rows as CSV.
var AmortCSV = experiments.AmortCSV

// DigestRow is one threshold point of the digest-vs-delta comparison.
type DigestRow = experiments.DigestRow

// DigestVsDelta compares full-digest and bit-flip-delta propagation.
var DigestVsDelta = experiments.DigestVsDelta

// DigestCSV writes digest-vs-delta rows as CSV.
var DigestCSV = experiments.DigestCSV

// HashKRow is one hash-function-count point of the k sweep.
type HashKRow = experiments.HashKRow

// HashKSweep sweeps the number of Bloom hash functions.
var HashKSweep = experiments.HashKSweep

// HashKCSV writes k-sweep rows as CSV.
var HashKCSV = experiments.HashKCSV

// CounterRow is one counter-width point of the §V-C sweep.
type CounterRow = experiments.CounterRow

// CounterWidthSweep sweeps counting-filter counter widths.
var CounterWidthSweep = experiments.CounterWidthSweep

// CounterCSV writes counter-width rows as CSV.
var CounterCSV = experiments.CounterCSV

// LoadFactorRow is one bits-per-document point of the load-factor sweep.
type LoadFactorRow = experiments.LoadFactorRow

// LoadFactorSweep sweeps the summary load factor.
var LoadFactorSweep = experiments.LoadFactorSweep

// LoadFactorCSV writes load-factor rows as CSV.
var LoadFactorCSV = experiments.LoadFactorCSV

// HierarchyRow is one configuration of the §VIII hierarchy experiment.
type HierarchyRow = experiments.HierarchyRow

// Hierarchy evaluates summary cache in a two-level hierarchy.
var Hierarchy = experiments.Hierarchy

// HierarchyCSV writes hierarchy rows as CSV.
var HierarchyCSV = experiments.HierarchyCSV

// TableICSV writes every trace's Table I row as CSV.
var TableICSV = experiments.TableICSV

// --- the networked benchmark harness (internal/bench) ---

// SyntheticConfig parameterizes a Table II-style synthetic benchmark run.
type SyntheticConfig = bench.SyntheticConfig

// ReplayConfig parameterizes a trace-replay benchmark run (Tables IV/V).
type ReplayConfig = bench.ReplayConfig

// BenchResult is one benchmark run's measurements.
type BenchResult = bench.Result

// Assignment selects how trace requests map onto client workers.
type Assignment = bench.Assignment

// The two replay modes of the paper's §VII.
const (
	ClientBound = bench.ClientBound
	RoundRobin  = bench.RoundRobin
)

// RunSynthetic executes one synthetic benchmark run on loopback.
func RunSynthetic(cfg SyntheticConfig) (BenchResult, error) { return bench.RunSynthetic(cfg) }

// RunReplay executes one trace-replay benchmark run on loopback.
func RunReplay(cfg ReplayConfig) (BenchResult, error) { return bench.RunReplay(cfg) }
