// Package hashing derives families of hash functions for Bloom filters
// using the scheme of Fan et al., "Summary Cache: A Scalable Wide-Area Web
// Cache Sharing Protocol" (SIGCOMM '98, §V-D and §VI-A).
//
// The paper's construction computes the 128-bit MD5 signature of a key
// (typically a URL), splits the signature into consecutive groups of
// FunctionBits bits, and reduces each group modulo the filter size. When the
// hash family needs more than 128 bits, further bits are produced by hashing
// the key concatenated with itself (MD5(key||key), MD5(key||key||key), ...).
//
// The signature is the one input every filter shares, so it is computed
// once per key (Signature) and passed on: IndexesSig, the one index
// derivation, takes it and reads the key itself only for the digest
// rounds past the first 128 bits. The key-taking forms (Indexes,
// IndexesInto) hash the key and delegate to it.
//
// The family is fully described by two small integers — the number of
// functions and the bits consumed per function — which is exactly what the
// ICP_OP_DIRUPDATE header carries on the wire, so a receiver can verify it
// probes a peer's filter identically to how the peer built it.
package hashing

import (
	"crypto/md5"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// MaxFunctionBits is the widest per-function bit group supported. Groups are
// reduced into a uint64 accumulator before the final modulus, so they must
// fit in 64 bits; the paper uses 32.
const MaxFunctionBits = 64

// Spec describes a hash-function family: FunctionNum functions, each
// consuming FunctionBits bits of MD5 output, reduced modulo the filter size.
// It mirrors the first two fields of the paper's directory-update header.
type Spec struct {
	FunctionNum  int // number of hash functions (k)
	FunctionBits int // bits of digest consumed per function
}

// DefaultSpec is the configuration used throughout the paper's evaluation:
// four hash functions of 32 bits each, all drawn from a single MD5 digest.
var DefaultSpec = Spec{FunctionNum: 4, FunctionBits: 32}

// Validate reports whether the spec is usable.
func (s Spec) Validate() error {
	if s.FunctionNum <= 0 {
		return fmt.Errorf("hashing: FunctionNum must be positive, got %d", s.FunctionNum)
	}
	if s.FunctionBits <= 0 || s.FunctionBits > MaxFunctionBits {
		return fmt.Errorf("hashing: FunctionBits must be in [1,%d], got %d", MaxFunctionBits, s.FunctionBits)
	}
	return nil
}

// TotalBits returns the number of digest bits the family consumes.
func (s Spec) TotalBits() int { return s.FunctionNum * s.FunctionBits }

// DigestRounds returns how many 128-bit MD5 digests are needed to satisfy
// the family. Round i hashes the key repeated i+1 times, per the paper:
// "If 128 bits are not enough, more bits are generated by computing the MD5
// signature of the URL concatenated with itself."
func (s Spec) DigestRounds() int {
	return (s.TotalBits() + 127) / 128
}

// String implements fmt.Stringer.
func (s Spec) String() string {
	return fmt.Sprintf("md5[%dx%db]", s.FunctionNum, s.FunctionBits)
}

// ErrZeroModulus is returned when a hash family is asked to produce indices
// for an empty table.
var ErrZeroModulus = errors.New("hashing: table size must be positive")

// Family is a reusable hasher for a fixed Spec. The zero value is not
// usable; construct with New. A Family is safe for concurrent use.
type Family struct {
	spec Spec
}

// New builds a hash family from spec.
func New(spec Spec) (*Family, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Family{spec: spec}, nil
}

// MustNew is New, panicking on invalid specs. Intended for package-level
// construction with known-good constants.
func MustNew(spec Spec) *Family {
	f, err := New(spec)
	if err != nil {
		panic(err)
	}
	return f
}

// Spec returns the family's configuration.
func (f *Family) Spec() Spec { return f.spec }

// Indexes appends the FunctionNum table indices for key, each in [0, m), to
// dst and returns the extended slice: IndexesSig of key's Signature.
func (f *Family) Indexes(dst []uint64, key string, m uint64) ([]uint64, error) {
	return f.IndexesSig(dst, key, Signature(key), m)
}

// IndexesInto fills dst (which must have length ≥ FunctionNum) with the
// indices for key and returns the number written. Like Indexes it allocates
// nothing for any key stackKeyLen covers.
func (f *Family) IndexesInto(dst []uint64, key string, m uint64) (int, error) {
	if len(dst) < f.spec.FunctionNum {
		return 0, fmt.Errorf("hashing: dst too short: %d < %d", len(dst), f.spec.FunctionNum)
	}
	out, err := f.IndexesSig(dst[:0], key, Signature(key), m)
	return len(out), err
}

// IndexesSig appends the FunctionNum table indices for key, each in [0, m),
// to dst and returns the extended slice, given sig, key's Signature. It is
// the probe/insert primitive used by the Bloom filter layer. Group i is the
// FunctionBits bits starting at bit pos of the current digest, most
// significant first, matching the paper's "taking bits 0 to b-1, b to 2b-1,
// etc. out of the MD5 signature". The digest is held as two big-endian
// words, so any group of up to 64 bits is one or two shifts away. A group
// that would straddle a digest boundary (128 % FunctionBits != 0) is drawn
// entirely from the next digest, MD5 of the key repeated once more, keeping
// the wire-specified layout unambiguous. The first digest is sig, so key is
// read only by a family of more than 128 bits. With room for FunctionNum
// more entries in dst it allocates nothing for any key stackKeyLen covers.
func (f *Family) IndexesSig(dst []uint64, key string, sig [md5.Size]byte, m uint64) ([]uint64, error) {
	return IndexesSigOf(f, dst, key, sig, m)
}

// IndexesSigOf is f.IndexesSig for a key held as a string or as bytes, so
// a caller holding the key's bytes makes no string of them.
func IndexesSigOf[T string | []byte](f *Family, dst []uint64, key T, sig [md5.Size]byte, m uint64) ([]uint64, error) {
	if m == 0 {
		return dst, ErrZeroModulus
	}
	n := len(dst)
	dst = slices.Grow(dst, f.spec.FunctionNum)[:n+f.spec.FunctionNum]
	b := uint(f.spec.FunctionBits)
	hi, lo := binary.BigEndian.Uint64(sig[:8]), binary.BigEndian.Uint64(sig[8:])
	pos, round := uint(0), 1
	for i := n; i < len(dst); i++ {
		if pos+b > 128 {
			round++
			sum := digest(key, round)
			hi, lo = binary.BigEndian.Uint64(sum[:8]), binary.BigEndian.Uint64(sum[8:])
			pos = 0
		}
		var w uint64 // the 64 digest bits starting at pos
		if pos < 64 {
			w = hi<<pos | lo>>(64-pos)
		} else {
			w = lo << (pos - 64)
		}
		dst[i] = (w >> (64 - b)) % m
		pos += b
	}
	return dst, nil
}

// stackKeyLen is the longest MD5 input hashed from a stack buffer: a digest
// round whose input (the key repeated round times) fits this many bytes
// allocates nothing. So every key of up to 512 bytes hashes without
// allocating in a one-digest family (k·b ≤ 128, the paper's 4×32), and up
// to 256 bytes in a two-digest one; longer inputs are hashed from a heap
// copy.
const stackKeyLen = 512

// digest returns MD5 of key repeated round times.
func digest[T string | []byte](key T, round int) [md5.Size]byte {
	var buf [stackKeyLen]byte
	in := buf[:0]
	if n := len(key) * round; n > stackKeyLen {
		in = make([]byte, 0, n)
	}
	for range round {
		in = append(in, key...)
	}
	return md5.Sum(in)
}

// Signature returns the 128-bit MD5 signature of key, held as a string or
// as bytes, the first digest round of every family: the value IndexesSig
// takes. A proxy computes it once per local miss and carries it on the
// cache entry to the directory's insert and removal.
func Signature[T string | []byte](key T) [md5.Size]byte { return digest(key, 1) }
