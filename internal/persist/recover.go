package persist

import (
	"errors"
	"os"
	"sort"

	"summarycache/internal/lru"
)

// RecoveryStats describes what one Recover call found and how it
// reconciled the snapshot with the journal.
type RecoveryStats struct {
	// Recovered is true when any snapshot or journal state was loaded.
	Recovered bool
	// SnapshotGen is the generation of the snapshot that validated
	// (0 when recovery started from an empty snapshot).
	SnapshotGen uint64
	// SnapshotEntries is the entry count in the loaded snapshot;
	// Entries the count after journal reconciliation.
	SnapshotEntries int
	Entries         int
	// SnapshotsSkipped counts newer snapshot files that failed
	// validation (torn or corrupt) and were passed over.
	SnapshotsSkipped int
	// JournalRecords counts records replayed across all journals.
	JournalRecords int
	// LostInserts are journal inserts with no snapshot body to restore —
	// documents cached after the last checkpoint. They are not restored,
	// so the directory rebuilt from the restored cache does not claim them
	// (a safe under-claim).
	LostInserts int
	// StaleVersions are snapshot entries whose journal shows a later
	// version; the stale body is dropped for refetch.
	StaleVersions int
	// ReplayedEvicts are journal evictions applied to snapshot entries.
	ReplayedEvicts int
	// DoubleEvicts are journal evictions of keys not present — the
	// overlap window's double-applies, absorbed as counted no-ops.
	DoubleEvicts int
	// TornTail is true when a journal ended mid-frame or with a corrupt
	// frame — the expected shape of a crash; replay keeps the valid
	// prefix.
	TornTail bool
}

// Recovered is the state a caller installs after a warm restart. It holds
// no directory summary: the caller rebuilds that from the cache it restores
// (core.Node.Recover).
type Recovered struct {
	// Entries is the reconciled cache content, most recently used first —
	// feed it to lru.Cache.Restore.
	Entries []lru.Entry
	// Stats is the reconciliation accounting, also retained on the store
	// (Store.Recovery).
	Stats RecoveryStats
}

// restoredEntry tracks one key through replay with its recency sequence
// (higher = more recent).
type restoredEntry struct {
	e   lru.Entry
	seq int
}

// Recover loads the newest valid snapshot and replays every journal of
// that generation and newer, in generation order. It returns best-effort
// state: corrupt files are skipped or truncated at the first bad frame,
// never fatal — an unreadable persistence directory yields an empty
// Recovered, not a dead proxy. Call it once, after Open and before the
// first Checkpoint.
func (s *Store) Recover() (*Recovered, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jf != nil {
		return nil, errors.New("persist: Recover must precede journal writes")
	}
	snaps, jrnls, err := s.scan()
	if err != nil {
		return nil, err
	}
	out := &Recovered{}
	st := &out.Stats

	// Newest snapshot that validates end-to-end wins; newer ones that
	// fail (torn by a crash mid-checkpoint) are skipped — their journal
	// chain starts at the previous snapshot anyway.
	var base SnapshotData
	var baseGen uint64
	for i := len(snaps) - 1; i >= 0; i-- {
		gen := snaps[i]
		img, rerr := os.ReadFile(s.path(snapPrefix, gen))
		if rerr != nil {
			st.SnapshotsSkipped++
			s.log.Warn("snapshot unreadable", "gen", gen, "err", rerr)
			continue
		}
		data, derr := decodeSnapshot(img, gen)
		if derr != nil {
			st.SnapshotsSkipped++
			s.log.Warn("snapshot invalid", "gen", gen, "err", derr)
			continue
		}
		base = data
		baseGen = gen
		st.Recovered = true
		break
	}
	st.SnapshotGen = baseGen
	st.SnapshotEntries = len(base.Entries)

	// Seed the replay table from the snapshot: MRU-first file order gets
	// descending sequence numbers, journal activity appends above them.
	entries := make(map[string]*restoredEntry, len(base.Entries))
	order := make([]*restoredEntry, 0, len(base.Entries))
	seq := 0
	for i := len(base.Entries) - 1; i >= 0; i-- { // LRU first: lowest seq
		seq++
		re := &restoredEntry{e: base.Entries[i], seq: seq}
		entries[re.e.Key] = re
		order = append(order, re)
	}
	for _, gen := range jrnls {
		if gen < baseGen {
			continue
		}
		s.replayJournal(gen, entries, &seq, st)
	}

	// Materialize MRU-first, skipping tombstoned keys.
	sort.Slice(order, func(i, j int) bool { return order[i].seq > order[j].seq })
	for _, re := range order {
		if entries[re.e.Key] != re {
			continue // evicted, superseded, or re-inserted under a newer seq
		}
		out.Entries = append(out.Entries, re.e)
	}
	st.Entries = len(out.Entries)
	if st.JournalRecords > 0 {
		st.Recovered = true
	}
	s.recovered = *st
	if st.Recovered {
		s.log.Info("recovered persisted state",
			"snapshot_gen", baseGen, "snapshot_entries", st.SnapshotEntries,
			"entries", st.Entries, "journal_records", st.JournalRecords,
			"lost_inserts", st.LostInserts, "double_evicts", st.DoubleEvicts,
			"torn_tail", st.TornTail)
	}
	return out, nil
}

// replayJournal folds one journal generation into the replay table,
// stopping at the first torn or corrupt frame.
func (s *Store) replayJournal(gen uint64, entries map[string]*restoredEntry, seq *int, st *RecoveryStats) {
	img, err := os.ReadFile(s.path(jrnlPrefix, gen))
	if err != nil {
		s.log.Warn("journal unreadable", "gen", gen, "err", err)
		return
	}
	torn, herr := decodeJournal(img, func(rec journalRecord) {
		st.JournalRecords++
		switch rec.Op {
		case journalInsert:
			*seq++
			if re, ok := entries[rec.Key]; ok {
				if re.e.Version == rec.Version {
					// Overlap-window confirmation (or a re-insert after an
					// eviction also in this journal): the snapshot body is
					// this version; just refresh recency.
					re.seq = *seq
					return
				}
				// The document changed version after the snapshot; its
				// persisted body is stale. Drop it for refetch.
				st.StaleVersions++
				delete(entries, rec.Key)
				return
			}
			// Inserted after the snapshot was captured: no body anywhere on
			// disk. Not restored, not claimed — a safe under-claim the next
			// real fetch repairs.
			st.LostInserts++
		case journalEvict:
			if _, ok := entries[rec.Key]; ok {
				delete(entries, rec.Key)
				st.ReplayedEvicts++
			} else {
				st.DoubleEvicts++
			}
		}
	})
	if herr != nil {
		s.log.Warn("journal header invalid", "gen", gen, "err", herr)
	}
	if torn {
		st.TornTail = true
	}
}

// decodeJournal walks a journal file image — its header frame, then one
// record per frame — calling fn for each record. It stops at the clean
// end or at the first torn or corrupt frame (torn = true: the valid
// prefix has been delivered). An invalid header frame delivers nothing
// and is returned as err.
func decodeJournal(img []byte, fn func(journalRecord)) (torn bool, err error) {
	payload, rest, ferr := nextFrame(img)
	if ferr != nil || payload == nil {
		return ferr != nil, nil
	}
	if _, err := parseHeader(payload, frameJournalHdr, jrnlMagic); err != nil {
		return false, err
	}
	for {
		payload, rest, ferr = nextFrame(rest)
		if ferr != nil {
			return true, nil
		}
		if payload == nil {
			return false, nil
		}
		rec, derr := decodeJournalRecord(payload)
		if derr != nil {
			return true, nil
		}
		fn(rec)
	}
}
