// Package lru implements the Web-proxy document cache used throughout the
// paper's evaluation: least-recently-used replacement over a byte-capacity
// budget, with the paper's policy that "documents larger than 250 KB are
// not cached", version (last-modified/size) tracking for staleness
// detection, a change hook that feeds cache-summary deltas, and a Touch
// operation supporting the single-copy sharing scheme ("the other proxy
// marks the document as most-recently-accessed").
//
// The cache is one recency list over one byte budget under one mutex, so
// replacement is exact global LRU. Writers (Put, Remove, Restore, Clear)
// additionally serialize on a writer lock held until their changes have
// been reported, which makes the OnChange hook one ordered stream: the
// order of its notifications is the order the cache applied them.
package lru

import (
	"container/list"
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
	ll    *list.List // of *Entry; front = most recently used
	items map[string]*list.Element

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
	return &Cache{
		capacity: cfg.Capacity,
		maxObj:   maxObj,
		onChange: cfg.OnChange,
		timing:   cfg.OpTiming,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}, nil
}

// MustNewCache is NewCache, panicking on error.
func MustNewCache(cfg Config) *Cache {
	c, err := NewCache(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Capacity returns the byte budget.
func (c *Cache) Capacity() int64 { return c.capacity }

// MaxObjectSize returns the per-document cacheability limit (<0: none).
func (c *Cache) MaxObjectSize() int64 { return c.maxObj }

// Len returns the number of cached documents.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
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
	el, ok := c.items[key]
	if !ok {
		c.misses++
		c.mu.Unlock()
		return Entry{}, false
	}
	c.ll.MoveToFront(el)
	e := *el.Value.(*Entry)
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
	el, ok := c.items[key]
	if !ok {
		return Entry{}, false
	}
	return *el.Value.(*Entry), true
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
	el, ok := c.items[key]
	if ok {
		c.ll.MoveToFront(el)
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
	if el, ok := c.items[e.Key]; ok {
		ep := el.Value.(*Entry)
		c.bytes += e.Size - ep.Size
		if ep.Version != e.Version {
			c.evUpdated++
		}
		*ep = e
		c.ll.MoveToFront(el)
		c.note(e, Replaced)
	} else {
		c.bytes += e.Size
		ep := new(Entry)
		*ep = e
		c.items[e.Key] = c.ll.PushFront(ep)
		c.note(e, Inserted)
	}
	for c.bytes > c.capacity {
		c.removeLocked(c.ll.Back(), EvictCapacity)
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
	el, ok := c.items[key]
	if ok {
		c.removeLocked(el, EvictRemoved)
	}
	c.mu.Unlock()
	c.deliver()
	return ok
}

func (c *Cache) removeLocked(el *list.Element, why Event) {
	e := *el.Value.(*Entry)
	c.ll.Remove(el)
	delete(c.items, e.Key)
	c.bytes -= e.Size
	if why == EvictCapacity {
		c.evCapacity++
	} else {
		c.evRemoved++
	}
	c.note(e, why)
}

// Keys returns all cached keys from most to least recently used.
func (c *Cache) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*Entry).Key)
	}
	return out
}

// Entries returns all cached entries from most to least recently used.
func (c *Cache) Entries() []Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Entry, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, *el.Value.(*Entry))
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
	mark := c.ll.Front() // restored entries are inserted above it, in order
	for _, e := range entries {
		if _, ok := c.items[e.Key]; ok {
			stored++ // already cached: present is what Restore promises
			continue
		}
		if !c.Cacheable(e.Size) || c.bytes+e.Size > c.capacity {
			dropped = append(dropped, e.Key)
			continue
		}
		ep := new(Entry)
		*ep = e
		if mark == nil {
			c.items[e.Key] = c.ll.PushBack(ep)
		} else {
			c.items[e.Key] = c.ll.InsertBefore(ep, mark)
		}
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
	c.ll.Init()
	c.items = make(map[string]*list.Element)
	c.bytes = 0
}
