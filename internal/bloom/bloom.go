// Package bloom implements the Bloom filter machinery of Fan et al.,
// "Summary Cache" (SIGCOMM '98): plain bit-vector filters used to hold
// peers' cache summaries, counting Bloom filters (the paper's contribution
// popularizing them) used to maintain the local summary under insertions and
// deletions, bit-flip journaling for the delta-based directory-update wire
// protocol, and the analytic results of §V-C (false-positive probability,
// optimal number of hash functions, counter-overflow bounds).
//
// Figure 3 of the paper illustrates the structure implemented here: a
// vector of m bits and k independent hash functions; inserting a key sets
// the k addressed bits, and a membership probe conjectures presence iff all
// k bits are set.
package bloom

import (
	"crypto/md5"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"summarycache/internal/hashing"
)

// Flip records one bit transition in a filter: the paper's directory-update
// messages are streams of exactly these (a 32-bit word whose most
// significant bit says set-vs-clear and whose remaining 31 bits index the
// bit array).
type Flip struct {
	Index uint32 // bit position, < 2^31 per the wire format
	Set   bool   // true: 0→1, false: 1→0
}

// MaxBits is the largest supported filter size. The paper's wire format
// indexes bits with 31-bit integers ("the design limits the hash table size
// to be less than 2 billion, which for the time being is large enough").
const MaxBits = uint64(1) << 31

var (
	// ErrBadSize reports an unusable bit-array size.
	ErrBadSize = errors.New("bloom: filter size must be in [1, 2^31] bits")
	// ErrIndexRange reports a bit index outside the filter.
	ErrIndexRange = errors.New("bloom: bit index out of range")
	// ErrSpecMismatch reports an attempt to combine filters built with
	// different hash specifications or sizes.
	ErrSpecMismatch = errors.New("bloom: filter geometry mismatch")
)

// Filter is a plain Bloom filter over string keys. It is what a proxy keeps
// per neighbor: a bit array plus the hash-function specification announced
// in the neighbor's update messages. Filter is safe for concurrent use.
//
// The bit array is a slice of atomic 64-bit words: membership probes (Test,
// TestIndexes) are plain atomic loads and never take a lock, so the peer
// summary probes on every request's hot path scale with cores. Writers
// (Apply, SetBit, ClearBit, Add) use per-word compare-and-swap; bulk
// replacement (Reset, LoadSnapshot) swaps whole words while keeping the
// population count exact via per-word deltas.
type Filter struct {
	m      uint64 // number of bits
	words  []atomic.Uint64
	ones   atomic.Int64 // population count, maintained incrementally
	family *hashing.Family
	bulkMu sync.Mutex // serializes bulk replacements against each other
}

// stackK is the largest k whose probe indices live in a stack array; a
// larger family still works, with its index slice on the heap.
const stackK = 16

// NewFilter creates a filter of mBits bits probed by the given hash spec.
func NewFilter(mBits uint64, spec hashing.Spec) (*Filter, error) {
	if mBits == 0 || mBits > MaxBits {
		return nil, ErrBadSize
	}
	fam, err := hashing.New(spec)
	if err != nil {
		return nil, err
	}
	return &Filter{
		m:      mBits,
		words:  make([]atomic.Uint64, (mBits+63)/64),
		family: fam,
	}, nil
}

// MustNewFilter is NewFilter, panicking on error.
func MustNewFilter(mBits uint64, spec hashing.Spec) *Filter {
	f, err := NewFilter(mBits, spec)
	if err != nil {
		panic(err)
	}
	return f
}

// Size returns the filter's size in bits.
func (f *Filter) Size() uint64 { return f.m }

// Spec returns the hash-function specification.
func (f *Filter) Spec() hashing.Spec { return f.family.Spec() }

// K returns the number of hash functions.
func (f *Filter) K() int { return f.family.Spec().FunctionNum }

// Add inserts key (sets its k bits). Plain filters cannot support deletion;
// use CountingFilter for mutable directories.
func (f *Filter) Add(key string) {
	var buf [stackK]uint64
	for _, i := range f.Indexes(buf[:0], key) {
		f.set(i)
	}
}

// Test reports whether key may be in the set. False positives occur with
// the probability given by FalsePositiveRate; false negatives never occur
// for keys that were added and not cleared. Lock-free: k atomic word loads.
func (f *Filter) Test(key string) bool {
	var buf [stackK]uint64
	return f.TestIndexes(f.Indexes(buf[:0], key))
}

// Indexes appends the k probe positions for key under this filter's
// geometry to dst and returns the extended slice: IndexesSig of key's
// signature.
func (f *Filter) Indexes(dst []uint64, key string) []uint64 {
	return f.IndexesSig(dst, key, hashing.Signature(key))
}

// IndexesSig appends the k probe positions for key, whose signature is sig,
// under this filter's geometry (its hash family reduced modulo its size) to
// dst and returns the extended slice; with room in dst it allocates
// nothing. A caller probing many replicas for one URL hashes it once and
// derives each replica's positions from the signature (TestIndexes). The
// audited lookup path records them so a false hit can name the exact bits
// that lied.
func (f *Filter) IndexesSig(dst []uint64, key string, sig [md5.Size]byte) []uint64 {
	return IndexesSigOf(f, dst, key, sig)
}

// IndexesSigOf is f.IndexesSig for a key held as a string or as bytes, so
// a caller probing with the key's bytes makes no string of them.
func IndexesSigOf[T string | []byte](f *Filter, dst []uint64, key T, sig [md5.Size]byte) []uint64 {
	dst, _ = hashing.IndexesSigOf(f.family, dst, key, sig, f.m) // cannot fail: f.m > 0
	return dst
}

// TestIndexes probes the filter with precomputed indices (from the same
// hashing.Spec and size, see Indexes). Lock-free.
func (f *Filter) TestIndexes(idx []uint64) bool {
	for _, i := range idx {
		if i >= f.m || f.words[i>>6].Load()&(1<<(i&63)) == 0 {
			return false
		}
	}
	return true
}

// set turns bit i on via CAS, reporting whether it changed.
func (f *Filter) set(i uint64) bool {
	w, b := &f.words[i>>6], uint64(1)<<(i&63)
	for {
		old := w.Load()
		if old&b != 0 {
			return false
		}
		if w.CompareAndSwap(old, old|b) {
			f.ones.Add(1)
			return true
		}
	}
}

// clear turns bit i off via CAS, reporting whether it changed.
func (f *Filter) clear(i uint64) bool {
	w, b := &f.words[i>>6], uint64(1)<<(i&63)
	for {
		old := w.Load()
		if old&b == 0 {
			return false
		}
		if w.CompareAndSwap(old, old&^b) {
			f.ones.Add(-1)
			return true
		}
	}
}

// SetBit sets bit i, reporting whether it changed. Used when applying a
// neighbor's directory-update stream.
func (f *Filter) SetBit(i uint64) (changed bool, err error) {
	if i >= f.m {
		return false, ErrIndexRange
	}
	return f.set(i), nil
}

// ClearBit clears bit i, reporting whether it changed.
func (f *Filter) ClearBit(i uint64) (changed bool, err error) {
	if i >= f.m {
		return false, ErrIndexRange
	}
	return f.clear(i), nil
}

// Apply applies a batch of flips (a decoded directory-update message).
// Flips are absolute ("set this bit to 0/1"), so replaying or losing a
// message never corrupts the filter beyond the bits that message carried —
// the paper's rationale for not sending relative toggles.
func (f *Filter) Apply(flips []Flip) error {
	for _, fl := range flips {
		i := uint64(fl.Index)
		if i >= f.m {
			return fmt.Errorf("%w: %d >= %d", ErrIndexRange, i, f.m)
		}
		if fl.Set {
			f.set(i)
		} else {
			f.clear(i)
		}
	}
	return nil
}

// OnesCount returns the number of set bits.
func (f *Filter) OnesCount() uint64 {
	n := f.ones.Load()
	if n < 0 {
		return 0
	}
	return uint64(n)
}

// FillRatio returns the fraction of set bits, the quantity that determines
// the instantaneous false-positive probability (fill^k).
func (f *Filter) FillRatio() float64 {
	return float64(f.OnesCount()) / float64(f.m)
}

// replaceWords swaps new contents into the bit array word by word, keeping
// the population count exact under concurrent CAS writers: each word's
// delta is the popcount difference between what was swapped out and what
// was swapped in. newWord receives the word index.
func (f *Filter) replaceWords(newWord func(int) uint64) {
	f.bulkMu.Lock()
	defer f.bulkMu.Unlock()
	var delta int64
	for i := range f.words {
		w := newWord(i)
		old := f.words[i].Swap(w)
		delta += int64(bits.OnesCount64(w)) - int64(bits.OnesCount64(old))
	}
	f.ones.Add(delta)
}

// Reset clears every bit.
func (f *Filter) Reset() {
	f.replaceWords(func(int) uint64 { return 0 })
}

// Snapshot returns the bit array as bytes (little-endian words, trailing
// bits zero). This is what a proxy ships when sending the whole array is
// cheaper than sending deltas (the Squid "cache digest" variant).
func (f *Filter) Snapshot() []byte {
	out := make([]byte, len(f.words)*8)
	for i := range f.words {
		w := f.words[i].Load()
		for j := 0; j < 8; j++ {
			out[i*8+j] = byte(w >> (8 * j))
		}
	}
	return out[:(f.m+7)/8]
}

// LoadSnapshot replaces the filter contents with a snapshot produced by a
// filter of identical geometry.
func (f *Filter) LoadSnapshot(b []byte) error {
	if uint64(len(b)) != (f.m+7)/8 {
		return fmt.Errorf("%w: snapshot %d bytes, want %d", ErrSpecMismatch, len(b), (f.m+7)/8)
	}
	f.replaceWords(func(i int) uint64 {
		var w uint64
		for j := 0; j < 8; j++ {
			idx := i*8 + j
			if idx < len(b) {
				w |= uint64(b[idx]) << (8 * j)
			}
		}
		return w
	})
	return nil
}

// Clone returns a deep copy.
func (f *Filter) Clone() *Filter {
	g := MustNewFilter(f.m, f.family.Spec())
	var ones int64
	for i := range f.words {
		w := f.words[i].Load()
		g.words[i].Store(w)
		ones += int64(bits.OnesCount64(w))
	}
	g.ones.Store(ones)
	return g
}
