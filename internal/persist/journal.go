package persist

// The journal record codec and the length+CRC frame format shared by the
// snapshot and journal files. The journal is the on-disk analog of the
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
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
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

// Journal record opcodes.
const (
	// journalInsert records a document entering the cache (or changing
	// version in place). Replay treats an insert whose key already exists
	// at the same version as confirmation; at a different version the
	// snapshot body is stale and the entry is dropped for refetch.
	journalInsert byte = 1
	// journalEvict records a document leaving the cache. Replay of an
	// eviction for an absent key is a counted no-op (the overlap window
	// between journal rotation and snapshot capture can double-record).
	journalEvict byte = 2
)

// journalRecord is one cache mutation in the persistence journal.
type journalRecord struct {
	Op      byte
	Key     string
	Size    int64 // body size (journalInsert only)
	Version int64 // document version (journalInsert only)
}

// appendJournalRecord appends r to dst as one framed record, encoded in
// place: appending into a buffer with room allocates nothing.
func appendJournalRecord(dst []byte, r journalRecord) []byte {
	dst, start := openFrame(dst)
	dst = append(dst, r.Op)
	dst = binary.AppendUvarint(dst, uint64(len(r.Key)))
	dst = append(dst, r.Key...)
	dst = binary.AppendVarint(dst, r.Size)
	dst = binary.AppendVarint(dst, r.Version)
	return sealFrame(dst, start)
}

// decodeJournalRecord parses one record payload (the frame's contents,
// CRC already verified by nextFrame).
func decodeJournalRecord(payload []byte) (journalRecord, error) {
	var r journalRecord
	if len(payload) < 1 {
		return r, fmt.Errorf("%w: empty journal record", errCorruptFrame)
	}
	r.Op = payload[0]
	if r.Op != journalInsert && r.Op != journalEvict {
		return r, fmt.Errorf("%w: unknown journal op %d", errCorruptFrame, r.Op)
	}
	key, rest, ok := takeString(payload[1:])
	if !ok {
		return r, fmt.Errorf("%w: journal key length", errCorruptFrame)
	}
	r.Key = key
	if r.Size, rest, ok = takeVarint(rest); !ok {
		return r, fmt.Errorf("%w: journal size", errCorruptFrame)
	}
	if r.Version, _, ok = takeVarint(rest); !ok {
		return r, fmt.Errorf("%w: journal version", errCorruptFrame)
	}
	return r, nil
}
