package sim

import (
	"strings"

	"summarycache/internal/bloom"
)

// probeKey is a request URL prepared once per discovery so that probing
// N-1 peer summaries does not recompute hashes or parse the URL N-1 times.
type probeKey struct {
	key string   // the set key: the URL, or its server name for ServerName
	idx []uint64 // Bloom indices, set for Bloom summaries
}

// summarizer is one proxy's summary pipeline: the live side mirrors the
// proxy's own directory as documents enter and leave its cache; publish
// drains accumulated changes into the published view — the (delayed) copy
// every peer holds; probe asks the published view about a URL.
type summarizer interface {
	insert(url string)
	remove(url string)
	// due reports whether the accumulated changes should be published now,
	// under bloom.PublishDue.
	due() bool
	// publish applies pending changes to the published view and returns
	// the size in bytes of one unicast update message carrying them.
	publish() (msgBytes int)
	probe(k probeKey) bool
	// memoryBytes is the size of one published summary — what each peer
	// must dedicate per neighbor (Table III).
	memoryBytes() uint64
	// counterBytes is any additional local-only maintenance memory (the
	// counting filter's counters for Bloom; zero otherwise).
	counterBytes() uint64
}

// ServerOf extracts the server-name component of a URL (host, without
// scheme, path, or port), the key of the server-name summary.
func ServerOf(url string) string {
	s := url
	if i := strings.Index(s, "://"); i >= 0 {
		s = s[i+3:]
	}
	if i := strings.IndexAny(s, "/?"); i >= 0 {
		s = s[:i]
	}
	if i := strings.IndexByte(s, ':'); i >= 0 {
		s = s[:i]
	}
	return s
}

// noSummary keeps no state and publishes nothing. ICP uses it to answer
// "maybe" for everything, querying every peer on every miss; Oracle
// resolves probes against the peers' true contents in the engine, so its
// probe is never called.
type noSummary struct{}

func (noSummary) insert(string)        {}
func (noSummary) remove(string)        {}
func (noSummary) due() bool            { return false }
func (noSummary) publish() int         { return 0 }
func (noSummary) probe(probeKey) bool  { return true }
func (noSummary) memoryBytes() uint64  { return 0 }
func (noSummary) counterBytes() uint64 { return 0 }

// dirChange is one journal entry of a set summary.
type dirChange struct {
	key string
	add bool
}

// setSummary keeps a delayed copy of a set of keys: each cached URL (the
// exact-directory representation, every entry a 16-byte MD5 signature on
// the wire and in memory) or the server name of each (server-name). Many
// URLs share a server, so the live side reference-counts keys and journals
// only their 0↔1 transitions.
type setSummary struct {
	model      MessageModel
	byServer   bool
	threshold  float64
	minPending int

	refs      map[string]int
	docs      int // documents in the directory
	newDocs   int // documents added since the last publish
	journal   []dirChange
	published map[string]struct{}
	pubBytes  uint64
}

func newSetSummary(model MessageModel, byServer bool, cfg bloom.DirectoryConfig) *setSummary {
	return &setSummary{
		model:      model,
		byServer:   byServer,
		threshold:  cfg.UpdateThreshold,
		minPending: cfg.MinPending,
		refs:       make(map[string]int),
		published:  make(map[string]struct{}),
	}
}

func (s *setSummary) keyOf(url string) string {
	if s.byServer {
		return ServerOf(url)
	}
	return url
}

// entryBytes is the memory one published key takes: an MD5 signature, or
// a server name plus small per-entry overhead.
func (s *setSummary) entryBytes(key string) uint64 {
	if s.byServer {
		return uint64(len(key)) + 8
	}
	return 16
}

func (s *setSummary) insert(url string) {
	k := s.keyOf(url)
	s.docs++
	s.newDocs++
	s.refs[k]++
	if s.refs[k] == 1 {
		s.journal = append(s.journal, dirChange{k, true})
	}
}

func (s *setSummary) remove(url string) {
	k := s.keyOf(url)
	if s.refs[k] == 0 {
		return // remove without insert; ignore like counter underflow
	}
	s.docs--
	s.refs[k]--
	if s.refs[k] == 0 {
		delete(s.refs, k)
		s.journal = append(s.journal, dirChange{k, false})
	}
}

func (s *setSummary) due() bool {
	return bloom.PublishDue(s.newDocs, s.docs, len(s.journal), s.threshold, s.minPending)
}

func (s *setSummary) publish() int {
	n := len(s.journal)
	// A key's journal entries alternate add and remove, the first one
	// flipping what was published.
	for _, ch := range s.journal {
		if ch.add {
			s.published[ch.key] = struct{}{}
			s.pubBytes += s.entryBytes(ch.key)
		} else {
			delete(s.published, ch.key)
			s.pubBytes -= s.entryBytes(ch.key)
		}
	}
	s.journal = s.journal[:0]
	s.newDocs = 0
	return s.model.DirUpdateHeader + n*s.model.DirUpdatePerEntry
}

func (s *setSummary) probe(k probeKey) bool {
	_, ok := s.published[k.key]
	return ok
}

func (s *setSummary) memoryBytes() uint64  { return s.pubBytes }
func (s *setSummary) counterBytes() uint64 { return 0 }

// bloomSummary is the paper's proposal: the live side is the same
// bloom.Directory a live node keeps — a counting filter journaling bit
// flips under the one publication rule — and the published view is the
// plain bit filter peers hold and probe.
type bloomSummary struct {
	model      MessageModel
	dir        *bloom.Directory
	published  *bloom.Filter
	wholeArray bool // BloomDigest: updates ship the full bit array

	flipEvents uint64
	flipsTotal uint64
}

func newBloomSummary(model MessageModel, cfg bloom.DirectoryConfig, wholeArray bool) (*bloomSummary, error) {
	dir, err := bloom.NewDirectory(cfg)
	if err != nil {
		return nil, err
	}
	return &bloomSummary{
		model:      model,
		dir:        dir,
		published:  bloom.MustNewFilter(dir.Bits(), dir.Spec()),
		wholeArray: wholeArray,
	}, nil
}

func (s *bloomSummary) insert(url string) { s.dir.Insert(url) }
func (s *bloomSummary) remove(url string) { s.dir.Remove(url) }
func (s *bloomSummary) due() bool         { return s.dir.ShouldPublish() }

func (s *bloomSummary) publish() int {
	flips := s.dir.Drain()
	n := len(flips)
	// Apply cannot fail: flips come from a same-geometry directory.
	if err := s.published.Apply(flips); err != nil {
		panic("sim: bloom flip out of range: " + err.Error())
	}
	if n > 0 {
		s.flipEvents++
		s.flipsTotal += uint64(n)
	}
	if s.wholeArray {
		// Cache-digest style: header plus the full bit array.
		return s.model.BloomUpdateHeader + int((s.published.Size()+7)/8)
	}
	return s.model.BloomUpdateHeader + n*s.model.BloomUpdatePerBit
}

func (s *bloomSummary) probe(k probeKey) bool { return s.published.TestIndexes(k.idx) }

// memoryBytes: the published bit array.
func (s *bloomSummary) memoryBytes() uint64 { return (s.published.Size() + 7) / 8 }

// counterBytes: the local counting filter's counters.
func (s *bloomSummary) counterBytes() uint64 { return s.dir.MemoryBytes() }
