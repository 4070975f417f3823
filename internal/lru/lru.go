// Package lru implements the Web-proxy document cache used throughout the
// paper's evaluation: least-recently-used replacement over a byte-capacity
// budget, with the paper's policy that "documents larger than 250 KB are
// not cached", version (last-modified/size) tracking for staleness
// detection, a change hook that feeds cache-summary deltas, and a Touch
// operation supporting the single-copy sharing scheme ("the other proxy
// marks the document as most-recently-accessed").
//
// The cache is one recency list over one byte budget under one mutex, so
// replacement is exact global LRU. The list is intrusive: each document's
// node carries its own links, so storing a new document allocates one
// object. Writers (Put, Remove, Restore, Clear) additionally serialize on a
// writer lock held until their changes have been reported, which makes the
// OnChange hook one ordered stream: the order of its notifications is the
// order the cache applied them.
package lru

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultMaxObjectSize is the paper's cacheability limit: 250 KB.
const DefaultMaxObjectSize = 250 * 1024

// Entry is one cached document.
type Entry struct {
	Key     string // document URL
	Size    int64  // body size in bytes
	Version int64  // last-modified timestamp or content fingerprint; a
	// mismatch on a later request is a staleness signal (the
	// paper counts such hits as misses / remote stale hits)

	// Body optionally carries the document payload, so a caller serving
	// real documents (the HTTP proxy) needs no side table keyed by the
	// same string — one lock and one lookup per hit, and eviction drops
	// entry and payload atomically. The cache never reads it; Size is the
	// accounting truth regardless of len(Body).
	Body []byte
}

// Event says which change an OnChange notification reports.
type Event int

// The changes reported to Config.OnChange.
const (
	Inserted      Event = iota // a key not cached before was stored
	Replaced                   // a cached key was stored again; carries the new entry
	EvictCapacity              // displaced by LRU replacement
	EvictRemoved               // explicitly removed (e.g. consistency purge)
)

// Config customizes a Cache.
type Config struct {
	// Capacity is the cache's byte budget. NewCache requires it positive.
	Capacity int64
	// Deprecated: Shards is ignored. The cache is one LRU list under one
	// mutex; the field remains so existing configurations still compile.
	Shards int
	// MaxObjectSize rejects documents larger than this many bytes
	// (DefaultMaxObjectSize when 0; negative disables the limit).
	MaxObjectSize int64
	// OnChange, if non-nil, observes every change Put and Remove make:
	// Inserted for a key not cached before, Replaced for a stored Put of a
	// cached key (with the new entry, whether or not its version changed),
	// EvictCapacity for each LRU displacement and EvictRemoved for Remove.
	// Restore and Clear report nothing.
	//
	// Notifications arrive in the order the cache applied the changes: a
	// writer's notifications are delivered before the next writer mutates
	// the cache, so replaying them in arrival order reproduces the key set.
	// The hook runs on the writing goroutine without the cache lock held.
	// It may read the cache (Get, Peek, Contains, Touch, Len, Keys, ...);
	// it must not call Put, Remove, Restore or Clear, which would deadlock.
	OnChange func(Entry, Event)
	// OpTiming, if non-nil, observes the duration of every Get (op OpGet)
	// and every stored Put (op OpInsert) — the perfwatch stage-timing
	// hook. Nil (the default) leaves the hot path untouched: the timing
	// branch costs one predictable nil check and zero allocations.
	OpTiming func(op string, d time.Duration)
}

// Op names reported to Config.OpTiming.
const (
	OpGet    = "get"
	OpInsert = "insert"
)

// ErrBadCapacity reports a non-positive cache capacity.
var ErrBadCapacity = errors.New("lru: capacity must be positive")

// node is one cached document threaded on the recency list.
type node struct {
	Entry
	prev, next *node
}

// Cache is a byte-budget LRU cache of documents. It is safe for concurrent
// use.
type Cache struct {
	capacity int64
	maxObj   int64
	onChange func(Entry, Event)
	timing   func(op string, d time.Duration)

	// wmu serializes writers from their first mutation through the
	// delivery of their notifications; readers never take it. evs buffers
	// one writer's notifications and is reused under wmu.
	wmu sync.Mutex
	evs []event

	// mu guards the list, the index, the byte count and the counters. The
	// counters are plain integers: the lock is already held on every path
	// that touches them, so they cost nothing on the hot path.
	mu    sync.Mutex
	bytes int64
	root  node // list sentinel: root.next is the most recently used node
	items map[string]*node

	hits, misses                     uint64
	evCapacity, evRemoved, evUpdated uint64

	// contended counts per-key operations that found mu held and had to
	// block. It is atomic because the count is taken before the lock is
	// acquired.
	contended atomic.Uint64
}

// lockSlow is the contended half of the per-key locking idiom
//
//	if !c.mu.TryLock() {
//		c.lockSlow()
//	}
//
// open-coded at every per-key call site so the uncontended path is exactly
// one inlined CAS; only acquisitions that found the lock held pay this call
// and the count.
//
//go:noinline
func (c *Cache) lockSlow() {
	c.contended.Add(1)
	c.mu.Lock()
}

// NewCache creates a cache from cfg. Config.Capacity must be positive.
func NewCache(cfg Config) (*Cache, error) {
	if cfg.Capacity <= 0 {
		return nil, ErrBadCapacity
	}
	maxObj := cfg.MaxObjectSize
	if maxObj == 0 {
		maxObj = DefaultMaxObjectSize
	}
	c := &Cache{
		capacity: cfg.Capacity,
		maxObj:   maxObj,
		onChange: cfg.OnChange,
		timing:   cfg.OpTiming,
		items:    make(map[string]*node),
	}
	c.root.prev, c.root.next = &c.root, &c.root
	return c, nil
}

// MustNewCache is NewCache, panicking on error.
func MustNewCache(cfg Config) *Cache {
	c, err := NewCache(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// linkAfter threads nd into the list right after at; the caller holds mu.
func linkAfter(nd, at *node) {
	nd.prev, nd.next = at, at.next
	at.next.prev = nd
	at.next = nd
}

// unlink takes nd out of the list; the caller holds mu.
func unlink(nd *node) {
	nd.prev.next, nd.next.prev = nd.next, nd.prev
}

// moveToFront makes nd the most recently used node; the caller holds mu.
func (c *Cache) moveToFront(nd *node) {
	if c.root.next != nd {
		unlink(nd)
		linkAfter(nd, &c.root)
	}
}

// Capacity returns the byte budget.
func (c *Cache) Capacity() int64 { return c.capacity }

// MaxObjectSize returns the per-document cacheability limit (<0: none).
func (c *Cache) MaxObjectSize() int64 { return c.maxObj }

// Len returns the number of cached documents.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Bytes returns the bytes currently cached.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Cacheable reports whether a document of the given size may be stored.
func (c *Cache) Cacheable(size int64) bool {
	if size < 0 {
		return false
	}
	if c.maxObj >= 0 && size > c.maxObj {
		return false
	}
	return size <= c.capacity
}

// Get returns the entry for key and promotes it to most recently used.
// The second result reports presence; it does not imply freshness — compare
// Entry.Version against the request's expected version for that.
func (c *Cache) Get(key string) (Entry, bool) {
	if c.timing != nil {
		// Conditional open-coded defer: when timing is off this costs one
		// branch, not an extra call frame around the hot path.
		start := time.Now()
		defer func() { c.timing(OpGet, time.Since(start)) }()
	}
	if !c.mu.TryLock() {
		c.lockSlow()
	}
	nd, ok := c.items[key]
	if !ok {
		c.misses++
		c.mu.Unlock()
		return Entry{}, false
	}
	c.moveToFront(nd)
	e := nd.Entry
	c.hits++
	c.mu.Unlock()
	return e, true
}

// Peek returns the entry without promoting it and without touching hit
// accounting. Summaries and tests use this.
func (c *Cache) Peek(key string) (Entry, bool) {
	if !c.mu.TryLock() {
		c.lockSlow()
	}
	defer c.mu.Unlock()
	nd, ok := c.items[key]
	if !ok {
		return Entry{}, false
	}
	return nd.Entry, true
}

// Contains reports presence without promotion or accounting.
func (c *Cache) Contains(key string) bool {
	_, ok := c.Peek(key)
	return ok
}

// Touch promotes key to most recently used without reading it, the
// operation single-copy sharing performs on the owning proxy when a peer
// serves a remote hit. It reports whether the key was present.
func (c *Cache) Touch(key string) bool {
	if !c.mu.TryLock() {
		c.lockSlow()
	}
	defer c.mu.Unlock()
	nd, ok := c.items[key]
	if ok {
		c.moveToFront(nd)
	}
	return ok
}

// event is one buffered OnChange notification.
type event struct {
	entry Entry
	why   Event
}

// note buffers a notification; the caller holds wmu.
func (c *Cache) note(e Entry, why Event) {
	if c.onChange != nil {
		c.evs = append(c.evs, event{entry: e, why: why})
	}
}

// deliver reports the buffered notifications; the caller holds wmu but
// not mu.
func (c *Cache) deliver() {
	evs := c.evs
	c.evs = evs[:0]
	for _, ev := range evs {
		c.onChange(ev.entry, ev.why)
	}
	clear(evs) // drop the delivered entries' bodies
}

// Put inserts or updates a document, evicting LRU entries as needed to fit.
// It reports whether the document was stored; uncacheable documents (too
// large) are rejected with stored == false and leave the cache unchanged.
func (c *Cache) Put(e Entry) (stored bool) {
	if !c.Cacheable(e.Size) {
		return false
	}
	if c.timing != nil {
		start := time.Now()
		defer func() { c.timing(OpInsert, time.Since(start)) }()
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if !c.mu.TryLock() {
		c.lockSlow()
	}
	if nd, ok := c.items[e.Key]; ok {
		c.bytes += e.Size - nd.Size
		if nd.Version != e.Version {
			c.evUpdated++
		}
		nd.Entry = e
		c.moveToFront(nd)
		c.note(e, Replaced)
	} else {
		c.bytes += e.Size
		nd := &node{Entry: e}
		linkAfter(nd, &c.root)
		c.items[e.Key] = nd
		c.note(e, Inserted)
	}
	for c.bytes > c.capacity {
		c.removeLocked(c.root.prev, EvictCapacity)
	}
	c.mu.Unlock()
	c.deliver()
	return true
}

// Remove deletes key, reporting whether it was present.
func (c *Cache) Remove(key string) bool {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if !c.mu.TryLock() {
		c.lockSlow()
	}
	nd, ok := c.items[key]
	if ok {
		c.removeLocked(nd, EvictRemoved)
	}
	c.mu.Unlock()
	c.deliver()
	return ok
}

func (c *Cache) removeLocked(nd *node, why Event) {
	unlink(nd)
	delete(c.items, nd.Key)
	c.bytes -= nd.Size
	if why == EvictCapacity {
		c.evCapacity++
	} else {
		c.evRemoved++
	}
	c.note(nd.Entry, why)
}

// Keys returns all cached keys from most to least recently used.
func (c *Cache) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.items))
	for nd := c.root.next; nd != &c.root; nd = nd.next {
		out = append(out, nd.Key)
	}
	return out
}

// Entries returns all cached entries from most to least recently used.
func (c *Cache) Entries() []Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Entry, 0, len(c.items))
	for nd := c.root.next; nd != &c.root; nd = nd.next {
		out = append(out, nd.Entry)
	}
	return out
}

// Restore bulk-loads entries captured by Entries on a previous run,
// given most-recently-used first — the warm-restart boot path. It reports
// nothing to OnChange (recovery reconciles the directory itself) and never
// evicts: when the snapshot does not fit the current capacity or
// object-size limit, the least recently used entries are the ones
// dropped, and their keys are returned so the caller can reconcile the
// restored directory. Restored entries rank above anything already
// cached. Keys already present are left untouched and count as stored.
func (c *Cache) Restore(entries []Entry) (stored int, dropped []string) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	at := &c.root // each restored entry is linked after the previous one
	for _, e := range entries {
		if _, ok := c.items[e.Key]; ok {
			stored++ // already cached: present is what Restore promises
			continue
		}
		if !c.Cacheable(e.Size) || c.bytes+e.Size > c.capacity {
			dropped = append(dropped, e.Key)
			continue
		}
		nd := &node{Entry: e}
		linkAfter(nd, at)
		at = nd
		c.items[e.Key] = nd
		c.bytes += e.Size
		stored++
	}
	return stored, dropped
}

// Counters is a snapshot of the cache's lifetime activity.
type Counters struct {
	Hits, Misses uint64
	// EvictedCapacity counts LRU displacements, Removed explicit
	// removals (consistency purges), Updated version replacements —
	// the staleness invalidations of the paper's modified-document
	// accounting.
	EvictedCapacity, Removed, Updated uint64
	// LockContentions counts per-key operations that found the cache lock
	// held — the evidence that one lock serves the request rate.
	LockContentions uint64
}

// Counters snapshots all lifetime counters at once.
func (c *Cache) Counters() Counters {
	c.mu.Lock()
	out := Counters{
		Hits:            c.hits,
		Misses:          c.misses,
		EvictedCapacity: c.evCapacity,
		Removed:         c.evRemoved,
		Updated:         c.evUpdated,
	}
	c.mu.Unlock()
	out.LockContentions = c.contended.Load()
	return out
}

// Clear empties the cache without reporting the departures.
func (c *Cache) Clear() {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.root.prev, c.root.next = &c.root, &c.root
	c.items = make(map[string]*node)
	c.bytes = 0
}
