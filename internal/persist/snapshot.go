package persist

import (
	"encoding/binary"
	"fmt"
	"os"

	"summarycache/internal/lru"
)

// Snapshot frame kinds: the first byte of every frame payload in a
// snap-<gen> file. A journal file instead opens with frameJournalHdr and
// then carries raw journalRecord frames (whose first byte is the
// record op, disjoint from these).
const (
	frameSnapHdr    byte = 'H' // magic + generation
	frameEntry      byte = 'E' // one LRU entry, MRU→LRU file order
	frameDirectory  byte = 'D' // counting-filter state, written by older versions
	frameReplica    byte = 'R' // one peer replica, written by older versions
	frameEnd        byte = 'Z' // commit marker: absent ⇒ torn snapshot
	frameJournalHdr byte = 'J' // journal magic + generation
)

// snapMagic/jrnlMagic brand the header frames (and version the format).
const (
	snapMagic = "scSNAP1"
	jrnlMagic = "scJRNL1"
)

func snapHeader(gen uint64) []byte {
	b := append([]byte{frameSnapHdr}, snapMagic...)
	return binary.AppendUvarint(b, gen)
}

func journalHeader(gen uint64) []byte {
	b := append([]byte{frameJournalHdr}, jrnlMagic...)
	return binary.AppendUvarint(b, gen)
}

// parseHeader validates a header frame of the given kind and returns its
// generation.
func parseHeader(payload []byte, kind byte, magic string) (uint64, error) {
	if len(payload) < 1+len(magic) || payload[0] != kind || string(payload[1:1+len(magic)]) != magic {
		return 0, fmt.Errorf("persist: bad header frame")
	}
	gen, n := binary.Uvarint(payload[1+len(magic):])
	if n <= 0 {
		return 0, fmt.Errorf("persist: bad header generation")
	}
	return gen, nil
}

// appendEntryFrame serializes one cache entry:
// 'E' uvarint keylen, key, varint size, varint version, uvarint bodylen, body.
func appendEntryFrame(dst []byte, e lru.Entry) []byte {
	payload := make([]byte, 0, 1+2*binary.MaxVarintLen64+len(e.Key)+len(e.Body)+16)
	payload = append(payload, frameEntry)
	payload = binary.AppendUvarint(payload, uint64(len(e.Key)))
	payload = append(payload, e.Key...)
	payload = binary.AppendVarint(payload, e.Size)
	payload = binary.AppendVarint(payload, e.Version)
	payload = binary.AppendUvarint(payload, uint64(len(e.Body)))
	payload = append(payload, e.Body...)
	return appendFrame(dst, payload)
}

// decodeEntryFrame parses an 'E' frame's payload, kind byte included.
func decodeEntryFrame(payload []byte) (lru.Entry, error) {
	var e lru.Entry
	key, rest, ok := takeString(payload[1:])
	if !ok {
		return e, fmt.Errorf("persist: entry key")
	}
	e.Key = key
	if e.Size, rest, ok = takeVarint(rest); !ok {
		return e, fmt.Errorf("persist: entry size")
	}
	if e.Version, rest, ok = takeVarint(rest); !ok {
		return e, fmt.Errorf("persist: entry version")
	}
	blen, n := binary.Uvarint(rest)
	if n <= 0 || uint64(len(rest)-n) < blen {
		return e, fmt.Errorf("persist: entry body")
	}
	if blen > 0 {
		e.Body = append([]byte(nil), rest[n:n+int(blen)]...)
	}
	return e, nil
}

func takeString(b []byte) (s string, rest []byte, ok bool) {
	l, n := binary.Uvarint(b)
	if n <= 0 || uint64(len(b)-n) < l {
		return "", b, false
	}
	return string(b[n : n+int(l)]), b[n+int(l):], true
}

func takeVarint(b []byte) (v int64, rest []byte, ok bool) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, b, false
	}
	return v, b[n:], true
}

// encodeSnapshot renders a complete snapshot file image for gen.
func encodeSnapshot(gen uint64, data SnapshotData) []byte {
	size := 64
	for i := range data.Entries {
		size += len(data.Entries[i].Key) + len(data.Entries[i].Body) + 32
	}
	out := make([]byte, 0, size)
	out = appendFrame(out, snapHeader(gen))
	for _, e := range data.Entries {
		out = appendEntryFrame(out, e)
	}
	out = appendFrame(out, []byte{frameEnd})
	return out
}

// decodeSnapshot parses and validates a snapshot file image end-to-end.
// Any framing violation, wrong generation, or missing end frame makes
// the whole snapshot invalid — recovery then falls back one generation,
// whose journal chain still reaches the present.
func decodeSnapshot(img []byte, wantGen uint64) (SnapshotData, error) {
	var data SnapshotData
	payload, rest, err := nextFrame(img)
	if err != nil || payload == nil {
		return data, fmt.Errorf("persist: snapshot header: %v", err)
	}
	gen, err := parseHeader(payload, frameSnapHdr, snapMagic)
	if err != nil {
		return data, err
	}
	if gen != wantGen {
		return data, fmt.Errorf("persist: snapshot generation %d, file named %d", gen, wantGen)
	}
	sealed := false
	for !sealed {
		payload, rest, err = nextFrame(rest)
		if err != nil {
			return data, fmt.Errorf("persist: snapshot frame: %w", err)
		}
		if payload == nil {
			return data, fmt.Errorf("persist: snapshot missing end frame (torn write)")
		}
		switch payload[0] {
		case frameEntry:
			e, err := decodeEntryFrame(payload)
			if err != nil {
				return data, err
			}
			data.Entries = append(data.Entries, e)
		case frameDirectory, frameReplica:
			// Older snapshots saved the directory and the peer replicas. The
			// directory is rebuilt from the entries, and each replica comes
			// from its peer.
		case frameEnd:
			sealed = true
		default:
			return data, fmt.Errorf("persist: unknown snapshot frame kind %d", payload[0])
		}
	}
	return data, nil
}

// Checkpoint writes a new snapshot generation from data, which the caller
// captured before the journal rotates; use CheckpointFunc when the state
// may change while it is captured.
func (s *Store) Checkpoint(data SnapshotData) error {
	return s.CheckpointFunc(func() SnapshotData { return data })
}

// CheckpointFunc rotates the journal, then calls capture and writes what
// it returns as the new snapshot generation. Because the rotation comes
// first, a mutation that races the capture lands in the new generation's
// journal and replays idempotently over the snapshot; a capture taken
// before the rotation could miss a mutation whose record then went to the
// old journal, which recovery no longer replays. On success, generations
// older than the previous one are pruned (two snapshot/journal pairs
// always remain for corruption fallback).
func (s *Store) CheckpointFunc(capture func() SnapshotData) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("persist: store closed")
	}
	// Rotate first: seal the old journal, open gen+1. Records appended
	// from here on belong to the new generation; any that describe
	// mutations already visible in the capture replay as no-ops.
	if err := s.syncJournalLocked(); err != nil {
		s.mu.Unlock()
		s.snapshotErrors.Add(1)
		return err
	}
	if s.jf != nil {
		if err := s.jf.Close(); err != nil {
			s.mu.Unlock()
			s.snapshotErrors.Add(1)
			return fmt.Errorf("persist: close journal: %w", err)
		}
		s.jf = nil
	}
	s.gen++
	gen := s.gen
	if err := s.ensureJournalLocked(); err != nil {
		s.mu.Unlock()
		s.snapshotErrors.Add(1)
		return err
	}
	s.mu.Unlock()

	// Capture, encode and write the snapshot outside the lock: appends may
	// proceed into the new journal while the (possibly large) image is
	// written.
	data := capture()
	img := encodeSnapshot(gen, data)
	tmp := s.path(snapPrefix, gen) + ".tmp"
	if err := writeFileSync(tmp, img); err != nil {
		s.snapshotErrors.Add(1)
		return err
	}
	if err := os.Rename(tmp, s.path(snapPrefix, gen)); err != nil {
		s.snapshotErrors.Add(1)
		return fmt.Errorf("persist: commit snapshot: %w", err)
	}
	if err := s.syncDir(); err != nil {
		s.snapshotErrors.Add(1)
		return fmt.Errorf("persist: sync dir: %w", err)
	}
	s.snapshots.Add(1)
	s.snapshotBytes.Add(uint64(len(img)))
	s.prune(gen)
	s.log.Info("checkpoint written", "gen", gen,
		"entries", len(data.Entries), "bytes", len(img))
	return nil
}

// writeFileSync writes data to path and fsyncs it before returning.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	_, werr := f.Write(data)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("persist: write %s: %w", path, werr)
	}
	return nil
}

// prune deletes generations older than cur-1. The previous pair stays:
// if snap-<cur> is later found corrupt, recovery replays
// snap-<cur-1> + jrnl-<cur-1> + jrnl-<cur>.
func (s *Store) prune(cur uint64) {
	snaps, jrnls, err := s.scan()
	if err != nil {
		s.log.Warn("prune scan failed", "err", err)
		return
	}
	for _, g := range snaps {
		if g+1 < cur {
			if err := os.Remove(s.path(snapPrefix, g)); err != nil {
				s.log.Warn("prune snapshot failed", "gen", g, "err", err)
			}
		}
	}
	for _, g := range jrnls {
		if g+1 < cur {
			if err := os.Remove(s.path(jrnlPrefix, g)); err != nil {
				s.log.Warn("prune journal failed", "gen", g, "err", err)
			}
		}
	}
}
