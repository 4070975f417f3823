package persist

import (
	"errors"
	"fmt"
	"os"
)

// encodeSnapshot renders a complete snapshot file image for gen.
func encodeSnapshot(gen uint64, data SnapshotData) []byte {
	size := 64
	for i := range data.Entries {
		size += len(data.Entries[i].Key) + len(data.Entries[i].Body) + 32
	}
	out := make([]byte, 0, size)
	out = appendFrame(out, fileHeader(frameSnapHdr, gen))
	for _, e := range data.Entries {
		out = appendRecord(out, record{Op: frameEntry, Entry: e})
	}
	out = appendFrame(out, []byte{frameEnd})
	return out
}

// decodeSnapshot parses and validates a snapshot file image end-to-end.
// Any framing violation, wrong header, or missing end frame makes the
// whole snapshot invalid — recovery then falls back one generation, whose
// journal chain still reaches the present.
func decodeSnapshot(img []byte, gen uint64) (SnapshotData, error) {
	var data SnapshotData
	sealed, err := readFile(img, frameSnapHdr, gen, func(r record) {
		data.Entries = append(data.Entries, r.Entry)
	})
	if err == nil && !sealed {
		err = errors.New("persist: snapshot missing end frame (torn write)")
	}
	return data, err
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
