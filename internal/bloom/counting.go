package bloom

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"summarycache/internal/hashing"
)

// DefaultCounterBits is the counter width the paper recommends: "it seems
// that 4 bits per count would be amply sufficient" (§V-C).
const DefaultCounterBits = 4

// ErrBadCounterBits reports an unsupported counter width.
var ErrBadCounterBits = errors.New("bloom: counter width must be in [1,16] bits")

// journalRetainCap bounds the flip-journal capacity kept across drains. A
// publication cycle below it reuses one backing array, so journaling a flip
// allocates nothing; a burst past it (a directory rebuilt from keys, a mass
// purge) is released at its drain instead of pinned for the filter's life.
const journalRetainCap = 1 << 16

// CountingFilter is the paper's counting Bloom filter: alongside each bit
// of the array it keeps a small saturating counter of how many inserted
// keys hash to that position, so keys can be deleted. When a counter rises
// from 0 the bit turns on; when it falls to 0 the bit turns off; those
// transitions are the Flips that feed the directory-update protocol.
//
// Counters saturate at their maximum value and never decrement once
// saturated ("if the count ever exceeds 15, we can simply let it stay at
// 15"), trading a vanishing false-negative probability — bounded by
// CounterOverflowProbability — for fixed memory. CountingFilter is safe for
// concurrent use.
//
// Concurrency: counters live in atomic words read lock-free by Test; every
// writer (Add, Remove, Reset, RestoreState, DrainJournal) holds one mutex.
// A cache's writers already arrive one at a time, so finer locking would buy
// no parallelism. When journaling is enabled (EnableJournal), each bit
// transition is appended to the one flip journal under that mutex, so the
// journal holds the flips in the order they happened.
type CountingFilter struct {
	m        uint64
	cbits    uint   // counter width in bits
	cmax     uint64 // saturation value (2^cbits - 1)
	counters []atomic.Uint64
	perWord  uint // counters packed per 64-bit word
	ones     atomic.Int64
	n        atomic.Int64 // net insertions (adds - removes), for load accounting
	family   *hashing.Family

	saturations atomic.Uint64 // counters that ever hit cmax
	underflows  atomic.Uint64 // decrement attempts on a zero counter

	mu         sync.Mutex   // held by every writer; guards journal
	journaling bool         // set once by EnableJournal before concurrent use
	journal    []Flip       // undrained flips, oldest first
	pending    atomic.Int64 // len(journal), for lock-free readers
}

// NewCountingFilter creates a counting filter of mBits positions with
// counterBits-wide saturating counters.
func NewCountingFilter(mBits uint64, counterBits uint, spec hashing.Spec) (*CountingFilter, error) {
	if mBits == 0 || mBits > MaxBits {
		return nil, ErrBadSize
	}
	if counterBits < 1 || counterBits > 16 {
		return nil, ErrBadCounterBits
	}
	fam, err := hashing.New(spec)
	if err != nil {
		return nil, err
	}
	perWord := uint(64 / counterBits)
	words := (mBits + uint64(perWord) - 1) / uint64(perWord)
	return &CountingFilter{
		m:        mBits,
		cbits:    counterBits,
		cmax:     (uint64(1) << counterBits) - 1,
		counters: make([]atomic.Uint64, words),
		perWord:  perWord,
		family:   fam,
	}, nil
}

// MustNewCountingFilter is NewCountingFilter, panicking on error.
func MustNewCountingFilter(mBits uint64, counterBits uint, spec hashing.Spec) *CountingFilter {
	c, err := NewCountingFilter(mBits, counterBits, spec)
	if err != nil {
		panic(err)
	}
	return c
}

// Size returns the number of counter positions (== filter bits).
func (c *CountingFilter) Size() uint64 { return c.m }

// CounterBits returns the configured counter width.
func (c *CountingFilter) CounterBits() uint { return c.cbits }

// Spec returns the hash-function specification.
func (c *CountingFilter) Spec() hashing.Spec { return c.family.Spec() }

// MemoryBytes returns the bytes consumed by the counter array — the "plus
// another 8 MB to represent its own counters" term in the paper's §V-F
// extrapolation.
func (c *CountingFilter) MemoryBytes() uint64 { return uint64(len(c.counters)) * 8 }

// word and shift locate counter i inside the packed array.
func (c *CountingFilter) locate(i uint64) (w uint64, sh uint64) {
	return i / uint64(c.perWord), (i % uint64(c.perWord)) * uint64(c.cbits)
}

// get reads counter i with one atomic load (no lock).
func (c *CountingFilter) get(i uint64) uint64 {
	w, sh := c.locate(i)
	return (c.counters[w].Load() >> sh) & c.cmax
}

// setLocked writes counter i; the caller holds mu, so no other writer can
// touch i's word between the load and the store.
func (c *CountingFilter) setLocked(i, v uint64) {
	w, sh := c.locate(i)
	c.counters[w].Store(c.counters[w].Load()&^(c.cmax<<sh) | v<<sh)
}

// EnableJournal turns on internal flip journaling: every subsequent bit
// transition is recorded, in the order it happened, for DrainJournal.
// Call once, before the filter is shared between goroutines.
func (c *CountingFilter) EnableJournal() { c.journaling = true }

// PendingFlips returns the number of journaled flips not yet drained.
func (c *CountingFilter) PendingFlips() int { return int(c.pending.Load()) }

// DrainJournal removes and returns all journaled flips, oldest first (nil
// when there are none). The returned slice is a copy the caller owns.
func (c *CountingFilter) DrainJournal() []Flip {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.journal) == 0 {
		return nil
	}
	out := append([]Flip(nil), c.journal...)
	c.clearJournalLocked()
	return out
}

// clearJournalLocked empties the journal, keeping its backing array for
// the next flips unless a burst grew it past journalRetainCap. The caller
// holds mu.
func (c *CountingFilter) clearJournalLocked() {
	if cap(c.journal) > journalRetainCap {
		c.journal = nil
	} else {
		c.journal = c.journal[:0]
	}
	c.pending.Store(0)
}

// flipLocked records one bit transition: appended to flips, which it
// returns, and to the journal when journaling. The caller holds mu.
func (c *CountingFilter) flipLocked(flips []Flip, fl Flip) []Flip {
	if c.journaling {
		c.journal = append(c.journal, fl)
		c.pending.Store(int64(len(c.journal)))
	}
	return append(flips, fl)
}

// indexes appends key's k counter positions to dst.
func (c *CountingFilter) indexes(dst []uint64, key string) []uint64 {
	dst, _ = c.family.Indexes(dst, key, c.m) // cannot fail: c.m > 0
	return dst
}

// Add inserts key, incrementing its k counters. Bit transitions 0→1 are
// appended to flips, which is returned (append semantics: pass a buffer
// with room for k flips to avoid allocation).
func (c *CountingFilter) Add(key string, flips []Flip) []Flip {
	var buf [stackK]uint64
	idx := c.indexes(buf[:0], key)
	c.mu.Lock()
	for _, i := range idx {
		switch v := c.get(i); {
		case v == c.cmax:
			c.saturations.Add(1) // stuck; stays at cmax
		case v == 0:
			c.setLocked(i, 1)
			c.ones.Add(1)
			flips = c.flipLocked(flips, Flip{Index: uint32(i), Set: true})
		default:
			c.setLocked(i, v+1)
		}
	}
	c.n.Add(1)
	c.mu.Unlock()
	return flips
}

// Remove deletes key, decrementing its k counters. Bit transitions 1→0 are
// appended to flips. Removing a key that was never added corrupts the
// filter, exactly as with any counting Bloom filter; callers (the cache)
// guarantee delete-after-insert discipline.
func (c *CountingFilter) Remove(key string, flips []Flip) []Flip {
	var buf [stackK]uint64
	idx := c.indexes(buf[:0], key)
	c.mu.Lock()
	for _, i := range idx {
		switch v := c.get(i); {
		case v == c.cmax:
			// Saturated counters are never decremented; see type docs.
		case v == 1:
			c.setLocked(i, 0)
			c.ones.Add(-1)
			flips = c.flipLocked(flips, Flip{Index: uint32(i), Set: false})
		case v > 1:
			c.setLocked(i, v-1)
		default:
			// v == 0: underflow attempt. Saturate at zero — wrapping to
			// cmax would assert membership for up to perWord unrelated
			// keys. Crash recovery hits this legitimately: the journal
			// overlap window can double-apply an eviction (restore +
			// replay), and the second decrement must be a counted no-op.
			c.underflows.Add(1)
		}
	}
	if c.n.Load() > 0 {
		c.n.Add(-1)
	}
	c.mu.Unlock()
	return flips
}

// Test reports whether key may be in the set (all k counters nonzero).
// Lock-free: k atomic loads.
func (c *CountingFilter) Test(key string) bool {
	var buf [stackK]uint64
	for _, i := range c.indexes(buf[:0], key) {
		if c.get(i) == 0 {
			return false
		}
	}
	return true
}

// Count returns the counter value at position i (for tests and diagnostics).
func (c *CountingFilter) Count(i uint64) (uint64, error) {
	if i >= c.m {
		return 0, ErrIndexRange
	}
	return c.get(i), nil
}

// Entries returns the net number of keys currently represented.
func (c *CountingFilter) Entries() uint64 {
	n := c.n.Load()
	if n < 0 {
		return 0
	}
	return uint64(n)
}

// OnesCount returns the number of nonzero positions (set bits in the
// derived bit filter).
func (c *CountingFilter) OnesCount() uint64 {
	n := c.ones.Load()
	if n < 0 {
		return 0
	}
	return uint64(n)
}

// FillRatio returns the fraction of nonzero positions.
func (c *CountingFilter) FillRatio() float64 {
	return float64(c.OnesCount()) / float64(c.m)
}

// Saturations returns how many increment attempts found an already-saturated
// counter — a direct observable for the §V-C overflow analysis.
func (c *CountingFilter) Saturations() uint64 { return c.saturations.Load() }

// Underflows returns how many decrement attempts found a zero counter and
// were saturated at zero instead of wrapping. Steady-state operation keeps
// this at 0 (the cache guarantees delete-after-insert discipline); crash
// recovery may raise it when the journal's overlap window double-applies
// an eviction.
func (c *CountingFilter) Underflows() uint64 { return c.underflows.Load() }

// BitFilter materializes the derived plain filter (bit i set iff counter i
// nonzero). This is the array a proxy ships to a new neighbor before delta
// updates begin. Under concurrent writers the result is a weakly consistent
// snapshot; that is safe for the protocol because any transition racing the
// scan is also journaled and will reach the peer as an absolute flip.
func (c *CountingFilter) BitFilter() *Filter {
	f := MustNewFilter(c.m, c.family.Spec())
	for i := uint64(0); i < c.m; i++ {
		if c.get(i) != 0 {
			f.set(i)
		}
	}
	return f
}

// Reset zeroes all counters and discards any journaled flips.
func (c *CountingFilter) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.counters {
		c.counters[i].Store(0)
	}
	c.clearJournalLocked()
	c.ones.Store(0)
	c.n.Store(0)
	c.saturations.Store(0)
	c.underflows.Store(0)
}

// MaxCount returns the largest counter value currently stored. Exposed so
// tests can check the §V-C expected-maximum-count analysis empirically.
func (c *CountingFilter) MaxCount() uint64 {
	var max uint64
	for i := uint64(0); i < c.m; i++ {
		if v := c.get(i); v > max {
			max = v
		}
	}
	return max
}

func (c *CountingFilter) String() string {
	return fmt.Sprintf("counting-bloom{m=%d k=%d cbits=%d entries=%d fill=%.4f}",
		c.m, c.family.Spec().FunctionNum, c.cbits, c.Entries(), c.FillRatio())
}
