package persist

import (
	"errors"
	"os"

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
	// Stats is the reconciliation accounting.
	Stats RecoveryStats
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

	// One replay state for the snapshot and the journals. slots holds
	// every entry in the order it was last used, least recent first; at
	// points at each live key's latest slot, so a key's older slots, and
	// those of a key evicted or dropped since, are not emitted.
	slots := make([]lru.Entry, 0, len(base.Entries))
	at := make(map[string]int, len(base.Entries))
	put := func(e lru.Entry) {
		at[e.Key] = len(slots)
		slots = append(slots, e)
	}
	for i := len(base.Entries) - 1; i >= 0; i-- { // least recently used first
		put(base.Entries[i])
	}
	apply := func(r record) {
		st.JournalRecords++
		j, live := at[r.Key]
		switch {
		case r.Op == journalEvict && live:
			st.ReplayedEvicts++
			delete(at, r.Key)
		case r.Op == journalEvict:
			// The overlap window can record an eviction twice.
			st.DoubleEvicts++
		case !live:
			// Inserted after the snapshot was captured, or re-inserted
			// after an eviction: no body anywhere on disk. Not restored,
			// not claimed — a safe under-claim the next real fetch repairs.
			st.LostInserts++
		case slots[j].Version == r.Version:
			// The overlap window's confirmation: the snapshot body is this
			// version; only its recency is refreshed.
			put(slots[j])
		default:
			// The document changed version after the snapshot; its
			// persisted body is stale. Drop it for refetch.
			st.StaleVersions++
			delete(at, r.Key)
		}
	}
	for _, gen := range jrnls {
		if gen < baseGen {
			continue
		}
		img, err := os.ReadFile(s.path(jrnlPrefix, gen))
		if err != nil {
			s.log.Warn("journal unreadable", "gen", gen, "err", err)
			continue
		}
		// A torn or corrupt frame ends the journal: the records before it
		// are kept.
		if _, err := readFile(img, frameJournalHdr, gen, apply); errors.Is(err, errBadHeader) {
			s.log.Warn("journal header invalid", "gen", gen, "err", err)
		} else if err != nil {
			st.TornTail = true
		}
	}

	// Emit most recently used first.
	if len(at) > 0 {
		out.Entries = make([]lru.Entry, 0, len(at))
	}
	for i := len(slots) - 1; i >= 0; i-- {
		if j, ok := at[slots[i].Key]; ok && j == i {
			out.Entries = append(out.Entries, slots[i])
		}
	}
	st.Entries = len(out.Entries)
	if st.JournalRecords > 0 {
		st.Recovered = true
	}
	if st.Recovered {
		s.log.Info("recovered persisted state",
			"snapshot_gen", baseGen, "snapshot_entries", st.SnapshotEntries,
			"entries", st.Entries, "journal_records", st.JournalRecords,
			"lost_inserts", st.LostInserts, "double_evicts", st.DoubleEvicts,
			"torn_tail", st.TornTail)
	}
	return out, nil
}
