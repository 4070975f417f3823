package bloom

import (
	"encoding/binary"
	"errors"
	"fmt"

	"summarycache/internal/hashing"
)

// Counting-filter state serialization: the snapshot half of warm
// restarts. The packed counter words are persisted verbatim, so a
// restored filter is bit-for-bit the captured one — including saturated
// counters, which by design never decrement and therefore must survive a
// restart (rebuilding from keys would silently forget saturation).
//
// Layout (all integers little-endian / uvarint):
//
//	magic "scF1"
//	uvarint m, cbits, FunctionNum, FunctionBits, n, saturations
//	len(counters) × 8 bytes of packed counter words
//
// The geometry fields are validated on restore: a filter sized or hashed
// differently cannot take these words (callers fall back to rebuilding
// from the restored key set instead).

// cfStateMagic brands a serialized counting-filter state.
const cfStateMagic = "scF1"

// ErrStateMismatch reports a state blob whose geometry (size, counter
// width, or hash spec) does not match the receiving filter.
var ErrStateMismatch = errors.New("bloom: state geometry mismatch")

// ErrStateCorrupt reports a state blob that does not parse.
var ErrStateCorrupt = errors.New("bloom: state corrupt")

// StateSnapshot serializes the filter's counter array and accounting for
// persistence. Under concurrent writers the words are captured one
// atomic load at a time — a weakly consistent snapshot, which the warm
// restart design tolerates the same way BitFilter does: document-level
// divergence is repaired by journal replay and the summary protocol
// tolerates per-bit slop by construction.
func (c *CountingFilter) StateSnapshot() []byte {
	spec := c.family.Spec()
	out := make([]byte, 0, len(cfStateMagic)+6*binary.MaxVarintLen64+len(c.counters)*8)
	out = append(out, cfStateMagic...)
	out = binary.AppendUvarint(out, c.m)
	out = binary.AppendUvarint(out, uint64(c.cbits))
	out = binary.AppendUvarint(out, uint64(spec.FunctionNum))
	out = binary.AppendUvarint(out, uint64(spec.FunctionBits))
	out = binary.AppendUvarint(out, c.Entries())
	out = binary.AppendUvarint(out, c.saturations.Load())
	for i := range c.counters {
		out = binary.LittleEndian.AppendUint64(out, c.counters[i].Load())
	}
	return out
}

// RestoreState loads a StateSnapshot blob into the filter, replacing its
// contents. The blob's geometry must match the filter's exactly
// (ErrStateMismatch otherwise). OnesCount is recomputed from the words
// rather than trusted from the blob; any journaled flips are discarded,
// as a restored node re-announces full state anyway.
func (c *CountingFilter) RestoreState(data []byte) error {
	if len(data) < len(cfStateMagic) || string(data[:len(cfStateMagic)]) != cfStateMagic {
		return fmt.Errorf("%w: bad magic", ErrStateCorrupt)
	}
	rest := data[len(cfStateMagic):]
	var hdr [6]uint64
	for i := range hdr {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return fmt.Errorf("%w: truncated header", ErrStateCorrupt)
		}
		hdr[i] = v
		rest = rest[n:]
	}
	m, cbits, fnum, fbits, entries, sat := hdr[0], hdr[1], hdr[2], hdr[3], hdr[4], hdr[5]
	spec := c.family.Spec()
	if m != c.m || uint(cbits) != c.cbits ||
		spec != (hashing.Spec{FunctionNum: int(fnum), FunctionBits: int(fbits)}) {
		return fmt.Errorf("%w: blob m=%d cbits=%d k=%d/%d vs filter %s",
			ErrStateMismatch, m, cbits, fnum, fbits, c)
	}
	if len(rest) != len(c.counters)*8 {
		return fmt.Errorf("%w: %d counter bytes, want %d", ErrStateCorrupt, len(rest), len(c.counters)*8)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var ones int64
	for i := range c.counters {
		c.counters[i].Store(binary.LittleEndian.Uint64(rest[i*8:]))
	}
	for i := uint64(0); i < c.m; i++ {
		if c.get(i) != 0 {
			ones++
		}
	}
	c.ones.Store(ones)
	c.n.Store(int64(entries))
	c.saturations.Store(sat)
	c.clearJournalLocked()
	return nil
}
