// Package sim is the trace-driven cache-sharing simulator behind the
// paper's evaluation: it replays an HTTP request trace against a mesh of
// cooperating proxy caches and reports hit ratios, error ratios (false
// hits, false misses, remote stale hits), inter-proxy message counts and
// message bytes under each cooperation scheme (Fig. 1) and each summary
// representation (Figs. 2, 5–8; Table III).
package sim

import (
	"fmt"

	"summarycache/internal/bloom"
)

// Scheme selects the cooperation model of §III.
type Scheme int

// The four cooperation schemes of Figure 1 (plus the shrunken-global
// control the paper adds to quantify duplicate-copy waste).
const (
	// NoSharing: proxies operate independently.
	NoSharing Scheme = iota
	// SimpleSharing: proxies serve each other's misses and the requester
	// caches fetched documents locally too (ICP-style; duplicate copies).
	SimpleSharing
	// SingleCopySharing: remote hits are served without the requester
	// caching a duplicate; the owner promotes the document instead.
	SingleCopySharing
	// GlobalCache: one unified cache of the combined size with global LRU.
	GlobalCache
	// GlobalCacheShrunk: GlobalCache with 10% less total space, the
	// paper's control for the effective-cache-size effect of duplicates.
	GlobalCacheShrunk
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case NoSharing:
		return "no-sharing"
	case SimpleSharing:
		return "simple"
	case SingleCopySharing:
		return "single-copy"
	case GlobalCache:
		return "global"
	case GlobalCacheShrunk:
		return "global-10%"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// SummaryKind selects how proxies learn about each other's contents.
type SummaryKind int

// Summary representations evaluated in §V.
const (
	// Oracle consults peers' true current contents with no messages —
	// the idealized discovery used for the Fig. 1 scheme comparison.
	Oracle SummaryKind = iota
	// ICP sends a query to every peer on every local miss (the baseline).
	ICP
	// ExactDirectory keeps a delayed copy of each peer's URL directory
	// (16-byte MD5 signatures on the wire/in memory).
	ExactDirectory
	// ServerName keeps a delayed copy of the set of server names of each
	// peer's cached URLs.
	ServerName
	// Bloom keeps a delayed Bloom filter of each peer's directory — the
	// paper's summary-cache proposal — propagated as bit-flip deltas.
	Bloom
	// BloomDigest is the Squid "cache digest" variant the paper's §VI
	// describes: identical filters, but each update ships the whole bit
	// array instead of deltas ("if the delay threshold is large, then it
	// is more economical to send the entire bit array; this approach is
	// adopted in the Cache Digest prototype in Squid 1.2b20").
	BloomDigest
)

// String implements fmt.Stringer.
func (k SummaryKind) String() string {
	switch k {
	case Oracle:
		return "oracle"
	case ICP:
		return "ICP"
	case ExactDirectory:
		return "exact-directory"
	case ServerName:
		return "server-name"
	case Bloom:
		return "bloom"
	case BloomDigest:
		return "bloom-digest"
	default:
		return fmt.Sprintf("summary(%d)", int(k))
	}
}

// SummaryConfig parameterizes the summary representation.
type SummaryConfig struct {
	Kind SummaryKind
	// Directory sizes the Bloom kinds' filters and sets every kind's
	// publication rule, bloom.PublishDue, read literally:
	//   - UpdateThreshold delays an update until this fraction of cached
	//     documents is new (§V-A; e.g. 0.01 for 1%); zero updates on
	//     every new document;
	//   - MinPending further delays it until at least this many changes
	//     are pending (bit flips for the Bloom kinds, entries for
	//     exact-directory and server-name); zero sets no floor. The
	//     prototype's rule of sending updates "whenever there are enough
	//     changes to fill an IP packet" is 360 flips. This matters at
	//     simulation scales, where caches hold only hundreds of documents;
	//     in the paper's regime of million-entry caches a 1% threshold
	//     already batches thousands of documents.
	// ExpectedDocs, when zero, is CacheBytes/AvgDocBytes; LoadFactor,
	// HashSpec and CounterBits default as in bloom.NewDirectory (16, four
	// 32-bit MD5 groups, 4 bits).
	Directory bloom.DirectoryConfig
	// AvgDocBytes estimates the expected entries as CacheBytes/AvgDocBytes
	// when sizing the Bloom filter (paper: 8 KB). Default 8192.
	AvgDocBytes int64
}

func (sc *SummaryConfig) applyDefaults() {
	if sc.AvgDocBytes <= 0 {
		sc.AvgDocBytes = 8192
	}
}

// Config parameterizes one simulation run.
type Config struct {
	// NumProxies is the number of cooperating proxies; clients are mapped
	// to proxies by clientID mod NumProxies (the paper's grouping rule).
	NumProxies int
	// CacheBytes is the per-proxy cache capacity in bytes.
	CacheBytes int64
	// MaxObjectSize caps cacheable documents (0: the paper's 250 KB;
	// negative: unlimited).
	MaxObjectSize int64
	// Scheme selects the cooperation model.
	Scheme Scheme
	// Summary configures content discovery for the sharing schemes.
	Summary SummaryConfig
	// ParentCacheBytes, when positive, adds a parent proxy above the mesh
	// (the hierarchical configuration of the paper's §VIII: children
	// forward misses the siblings cannot serve to a parent, which may
	// fetch from the origin). Zero disables the parent.
	ParentCacheBytes int64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.NumProxies <= 0 {
		return fmt.Errorf("sim: NumProxies must be positive, got %d", c.NumProxies)
	}
	if c.CacheBytes <= 0 {
		return fmt.Errorf("sim: CacheBytes must be positive, got %d", c.CacheBytes)
	}
	if th := c.Summary.Directory.UpdateThreshold; th < 0 || th > 1 {
		return fmt.Errorf("sim: UpdateThreshold must be in [0,1], got %v", th)
	}
	return nil
}

// MessageModel holds the byte-size accounting constants of §V-D ("The
// average size of query messages in both ICP and other approaches is
// assumed to be 20 bytes of header and 50 bytes of average URL. The size of
// summary updates in exact-directory and server-name is assumed to be 20
// bytes of header and 16 bytes per change. The size of summary updates in
// Bloom filter based summaries is estimated at 32 bytes of header plus 4
// bytes per bit-flip."). We use the actual URL length instead of the 50-
// byte average.
type MessageModel struct {
	QueryHeader       int // per query/reply message
	DirUpdateHeader   int // exact-directory / server-name update header
	DirUpdatePerEntry int // bytes per directory change
	BloomUpdateHeader int // Bloom update header (the DIRUPDATE header)
	BloomUpdatePerBit int // bytes per bit-flip record
}

// PaperMessageModel is the accounting used for Figure 8.
var PaperMessageModel = MessageModel{
	QueryHeader:       20,
	DirUpdateHeader:   20,
	DirUpdatePerEntry: 16,
	BloomUpdateHeader: 32,
	BloomUpdatePerBit: 4,
}

// Result aggregates one run's metrics.
type Result struct {
	Config Config

	Requests uint64
	// Hits by where they were served.
	LocalHits  uint64
	RemoteHits uint64
	// Byte accounting ("results on byte hit ratios are very similar").
	RequestBytes uint64
	HitBytes     uint64
	// Error events.
	ParentHits      uint64 // misses served by the parent proxy's cache
	FalseHits       uint64 // summary said yes, no peer had a usable copy
	FalseMisses     uint64 // summary said no, a peer had a fresh copy
	RemoteStaleHits uint64 // a probed peer had only a stale copy
	LocalStale      uint64 // local copy present but stale (counted a miss)

	// Protocol traffic (queries exclude the HTTP fetch of remote hits,
	// matching the paper).
	QueryMessages  uint64
	ReplyMessages  uint64
	UpdateMessages uint64
	QueryBytes     uint64
	UpdateBytes    uint64

	// SummaryMemoryBytes is the per-proxy memory to store ONE peer summary
	// (multiply by NumProxies-1 for the full table), plus counters for the
	// local filter where applicable.
	SummaryMemoryBytes  uint64
	CounterMemoryBytes  uint64
	UpdateEvents        uint64 // summary publications (each fans out N-1 messages)
	BitsFlippedPerEvent float64
	// CounterSaturations counts increments that found an already-saturated
	// counting-filter counter (Bloom kinds; §V-C's overflow events).
	CounterSaturations uint64
}

// TotalHits returns local + remote hits (the paper's "total cache hit
// ratio" numerator; parent hits are reported separately).
func (r Result) TotalHits() uint64 { return r.LocalHits + r.RemoteHits }

// ByteHitRatio returns the fraction of requested bytes served from some
// cache (local or remote) — the quantity the paper reports as "similar" to
// the document hit ratio.
func (r Result) ByteHitRatio() float64 {
	if r.RequestBytes == 0 {
		return 0
	}
	return float64(r.HitBytes) / float64(r.RequestBytes)
}

// ParentHitRatio returns parent-cache hits per request.
func (r Result) ParentHitRatio() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.ParentHits) / float64(r.Requests)
}

// HitRatio returns the total cache hit ratio (local + remote), the
// quantity plotted in Figs. 1, 2 and 5.
func (r Result) HitRatio() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.TotalHits()) / float64(r.Requests)
}

// LocalHitRatio returns the local-only hit ratio.
func (r Result) LocalHitRatio() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.LocalHits) / float64(r.Requests)
}

// FalseHitRatio returns false hits per request (Fig. 6).
func (r Result) FalseHitRatio() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.FalseHits) / float64(r.Requests)
}

// StaleHitRatio returns remote stale hits per request (Fig. 2's bottom curve).
func (r Result) StaleHitRatio() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.RemoteStaleHits) / float64(r.Requests)
}

// MessagesPerRequest returns protocol messages per user request (Fig. 7):
// queries plus summary-update messages.
func (r Result) MessagesPerRequest() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.QueryMessages+r.UpdateMessages) / float64(r.Requests)
}

// BytesPerRequest returns protocol bytes per user request (Fig. 8).
func (r Result) BytesPerRequest() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.QueryBytes+r.UpdateBytes) / float64(r.Requests)
}

// SummaryMemoryRatio returns the whole summary table's memory as a
// fraction of the proxy cache size (Table III): one summary per peer.
func (r Result) SummaryMemoryRatio() float64 {
	if r.Config.CacheBytes <= 0 {
		return 0
	}
	peers := uint64(r.Config.NumProxies - 1)
	return float64(r.SummaryMemoryBytes*peers) / float64(r.Config.CacheBytes)
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("%v/%v n=%d hit=%.2f%% (local %.2f%% remote %.2f%%) falseHit=%.3f%% stale=%.3f%% msgs/req=%.3f bytes/req=%.1f",
		r.Config.Scheme, r.Config.Summary.Kind, r.Requests,
		100*r.HitRatio(), 100*r.LocalHitRatio(), 100*float64(r.RemoteHits)/float64(max64(r.Requests, 1)),
		100*r.FalseHitRatio(), 100*r.StaleHitRatio(),
		r.MessagesPerRequest(), r.BytesPerRequest())
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
