package persist

// The length+CRC frame format, the one record codec and the one file
// reader shared by the snapshot and journal files. A snapshot entry is an
// insert record that carries its body ('E'); a journal holds bodiless
// insert and evict records. The journal is the on-disk analog of the
// counting filter's in-memory flip journal: each cache mutation appends
// one O(record) framed entry, so hot-path writes never serialize the
// whole filter.
//
// Frame layout (little-endian):
//
//	uint32 payload length
//	uint32 CRC-32C (Castagnoli) of the payload
//	payload bytes
//
// A reader walks frames until the buffer ends cleanly, ends mid-frame
// (errTornFrame — the tolerated crash tail), or hits a CRC/length
// violation (errCorruptFrame). Both error kinds end the valid prefix;
// replay uses everything before them. Every frame this package writes
// carries at least one byte (its kind or op), so an empty payload is
// corruption too: eight zero bytes checksum correctly, because the
// CRC-32C of nothing is 0.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"summarycache/internal/lru"
)

// frameHeaderLen is the fixed per-frame overhead: length + CRC.
const frameHeaderLen = 8

// maxFrameLen bounds a single frame's payload (64 MB body + record
// overhead headroom); anything larger is treated as corruption rather
// than trusted as an allocation size.
const maxFrameLen = 80 << 20

// errTornFrame reports a buffer that ends mid-frame — the expected shape
// of the final frame after a crash, tolerated by replay.
var errTornFrame = errors.New("persist: torn frame at end of buffer")

// errCorruptFrame reports a frame whose length is implausible or whose
// payload fails its CRC.
var errCorruptFrame = errors.New("persist: corrupt frame")

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends one length+CRC framed payload to dst.
func appendFrame(dst, payload []byte) []byte {
	dst, start := openFrame(dst)
	return sealFrame(append(dst, payload...), start)
}

// openFrame appends an empty frame header to dst and returns where the
// frame starts. The writer encodes the payload straight after it and calls
// sealFrame, so framing copies nothing.
func openFrame(dst []byte) ([]byte, int) {
	var hdr [frameHeaderLen]byte
	return append(dst, hdr[:]...), len(dst)
}

// sealFrame fills in the header of the frame opened at dst[start], whose
// payload runs to the end of dst.
func sealFrame(dst []byte, start int) []byte {
	payload := dst[start+frameHeaderLen:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// nextFrame parses the first frame of b, returning its payload and the
// remaining bytes. An empty b returns (nil, nil, nil): the clean end of
// the stream. A returned payload is never empty and aliases b.
func nextFrame(b []byte) (payload, rest []byte, err error) {
	if len(b) == 0 {
		return nil, nil, nil
	}
	if len(b) < frameHeaderLen {
		return nil, b, errTornFrame
	}
	n := binary.LittleEndian.Uint32(b)
	sum := binary.LittleEndian.Uint32(b[4:])
	if n == 0 || n > maxFrameLen {
		return nil, b, fmt.Errorf("%w: frame length %d", errCorruptFrame, n)
	}
	if uint32(len(b)-frameHeaderLen) < n {
		return nil, b, errTornFrame
	}
	payload = b[frameHeaderLen : frameHeaderLen+int(n)]
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, b, fmt.Errorf("%w: CRC mismatch", errCorruptFrame)
	}
	return payload, b[frameHeaderLen+int(n):], nil
}

// Frame kinds: the first byte of every frame payload. A file opens with
// its header frame. A snapshot then holds entry records, MRU→LRU, and
// ends with its end frame; a journal holds insert and evict records.
const (
	frameSnapHdr    byte = 'H' // snapshot magic + generation
	frameJournalHdr byte = 'J' // journal magic + generation
	frameEntry      byte = 'E' // an insert record with its body
	frameDirectory  byte = 'D' // counting-filter state, written by older snapshots
	frameReplica    byte = 'R' // one peer replica, written by older snapshots
	frameEnd        byte = 'Z' // commit marker: absent ⇒ torn snapshot
	journalInsert   byte = 1   // a document entering the cache, or changing version in place
	journalEvict    byte = 2   // a document leaving the cache
)

// snapMagic/jrnlMagic brand the header frames (and version the format).
const (
	snapMagic = "scSNAP1"
	jrnlMagic = "scJRNL1"
)

// fileHeader is the header frame payload of a snapshot (frameSnapHdr) or
// journal (frameJournalHdr) of generation gen.
func fileHeader(kind byte, gen uint64) []byte {
	magic := snapMagic
	if kind == frameJournalHdr {
		magic = jrnlMagic
	}
	return binary.AppendUvarint(append([]byte{kind}, magic...), gen)
}

// record is one framed record: a cache entry and what happened to it. Op
// is frameEntry, journalInsert or journalEvict; only an entry record
// carries Body, and an evict record's Size and Version are zero.
type record struct {
	Op byte
	lru.Entry
}

// appendRecord appends r to dst as one framed record, encoded in place:
// appending into a buffer with room allocates nothing. Layout: op,
// uvarint key length, key, varint size, varint version and, for an entry
// record, uvarint body length and body.
func appendRecord(dst []byte, r record) []byte {
	dst, start := openFrame(dst)
	dst = append(dst, r.Op)
	dst = binary.AppendUvarint(dst, uint64(len(r.Key)))
	dst = append(dst, r.Key...)
	dst = binary.AppendVarint(dst, r.Size)
	dst = binary.AppendVarint(dst, r.Version)
	if r.Op == frameEntry {
		dst = binary.AppendUvarint(dst, uint64(len(r.Body)))
		dst = append(dst, r.Body...)
	}
	return sealFrame(dst, start)
}

// decodeRecord parses one record payload (the frame's contents, CRC
// already verified by nextFrame). The body is copied out of the payload.
func decodeRecord(payload []byte) (record, error) {
	r := record{Op: payload[0]}
	key, rest, ok := takeBytes(payload[1:])
	r.Key = string(key)
	if ok {
		r.Size, rest, ok = takeVarint(rest)
	}
	if ok {
		r.Version, rest, ok = takeVarint(rest)
	}
	if ok && r.Op == frameEntry {
		var body []byte
		body, _, ok = takeBytes(rest)
		r.Body = append([]byte(nil), body...)
	}
	if !ok {
		return r, fmt.Errorf("%w: truncated record of kind %d", errCorruptFrame, r.Op)
	}
	return r, nil
}

func takeBytes(b []byte) (field, rest []byte, ok bool) {
	l, n := binary.Uvarint(b)
	if n <= 0 || uint64(len(b)-n) < l {
		return nil, b, false
	}
	return b[n : n+int(l)], b[n+int(l):], true
}

func takeVarint(b []byte) (v int64, rest []byte, ok bool) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, b, false
	}
	return v, b[n:], true
}

// errBadHeader reports a file whose first frame is intact but is not the
// header its name promises: another kind, magic or generation.
var errBadHeader = errors.New("persist: bad header frame")

// readFile walks a snapshot (kind frameSnapHdr) or journal
// (frameJournalHdr) image of generation gen: its header frame, then one
// record per frame, calling fn for each. It stops at the clean end of img,
// at a snapshot's end frame (sealed), or at the first frame that is torn,
// corrupt or of a kind the file may not hold, which err reports; every
// record before it has been delivered. An empty image delivers nothing and
// no error. An older snapshot's directory and replica frames are skipped:
// the directory is rebuilt from the entries, and each replica comes from
// its peer.
func readFile(img []byte, kind byte, gen uint64, fn func(record)) (sealed bool, err error) {
	payload, rest, err := nextFrame(img)
	if payload == nil {
		return false, err
	}
	if !bytes.Equal(payload, fileHeader(kind, gen)) {
		return false, errBadHeader
	}
	snapshot := kind == frameSnapHdr
	for {
		if payload, rest, err = nextFrame(rest); payload == nil {
			return false, err
		}
		switch op := payload[0]; {
		case snapshot && op == frameEnd:
			return true, nil
		case snapshot && (op == frameDirectory || op == frameReplica):
			continue
		case snapshot && op != frameEntry, !snapshot && op != journalInsert && op != journalEvict:
			return false, fmt.Errorf("%w: frame kind %d in a %c file", errCorruptFrame, op, kind)
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return false, err
		}
		fn(rec)
	}
}
