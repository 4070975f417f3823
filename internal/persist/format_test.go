package persist

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"summarycache/internal/lru"
	"summarycache/internal/testutil/leakcheck"
)

// goldenData is the state testdata/snapshot-golden holds, most recently
// used first: an ordinary entry, one with an empty key, and one with an
// empty body and a negative version.
var goldenData = SnapshotData{Entries: []lru.Entry{
	entry(1),
	{Key: "", Size: 3, Version: 5, Body: []byte("abc")},
	{Key: "http://origin/empty", Size: 0, Version: -1},
}}

// appendGoldenJournal appends the records testdata/journal-golden holds:
// an insert confirming the empty key, an evict and a lost insert.
func appendGoldenJournal(t *testing.T, s *Store) {
	t.Helper()
	if err := s.AppendInsert("", 3, 5); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEvict(entry(1).Key); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendInsert("http://origin/late", 10, 2); err != nil {
		t.Fatal(err)
	}
}

func readGolden(t testing.TB, name string) []byte {
	img, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestFileFormatGolden: the file format is frozen. The snapshot encoder
// and the journal writer reproduce testdata/snapshot-golden and
// testdata/journal-golden byte for byte, and the two files recover to the
// state and accounting pinned here.
func TestFileFormatGolden(t *testing.T) {
	leakcheck.Install(t)
	dir := t.TempDir()
	snap := encodeSnapshot(fuzzGen, goldenData)
	if want := readGolden(t, "snapshot-golden"); !bytes.Equal(snap, want) {
		t.Fatalf("snapshot image changed:\n got  %x\n want %x", snap, want)
	}
	if err := os.WriteFile(filepath.Join(dir, genName(snapPrefix, fuzzGen)), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	// The store opens at the snapshot's generation, so its appends write
	// jrnl-<fuzzGen> with that generation in its header.
	s := openStore(t, dir)
	mustRecover(t, s)
	appendGoldenJournal(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	jrnl, err := os.ReadFile(filepath.Join(dir, genName(jrnlPrefix, fuzzGen)))
	if err != nil {
		t.Fatal(err)
	}
	if want := readGolden(t, "journal-golden"); !bytes.Equal(jrnl, want) {
		t.Fatalf("journal image changed:\n got  %x\n want %x", jrnl, want)
	}

	rec := mustRecover(t, openStore(t, dir))
	want := &Recovered{
		Entries: []lru.Entry{goldenData.Entries[1], goldenData.Entries[2]},
		Stats: RecoveryStats{
			Recovered: true, SnapshotGen: fuzzGen, SnapshotEntries: 3, Entries: 2,
			JournalRecords: 3, LostInserts: 1, ReplayedEvicts: 1,
		},
	}
	if !reflect.DeepEqual(rec, want) {
		t.Fatalf("recovered\n %+v\nwant\n %+v", rec, want)
	}
}

// TestReplayOutcomes: every way a journal record meets the snapshot, each
// recovered from a generation-1 snapshot and its journal.
func TestReplayOutcomes(t *testing.T) {
	a, b := entry(1), entry(2)
	ins := func(e lru.Entry, version int64) func(*Store) error {
		return func(s *Store) error { return s.AppendInsert(e.Key, e.Size, version) }
	}
	ev := func(e lru.Entry) func(*Store) error {
		return func(s *Store) error { return s.AppendEvict(e.Key) }
	}
	for _, tc := range []struct {
		name    string
		snap    []lru.Entry // most recently used first
		journal []func(*Store) error
		want    []lru.Entry
		stats   RecoveryStats // SnapshotGen, SnapshotEntries, Entries and JournalRecords are derived
	}{
		{name: "confirm refreshes recency", snap: []lru.Entry{b, a},
			journal: []func(*Store) error{ins(a, a.Version)}, want: []lru.Entry{a, b}},
		{name: "stale version", snap: []lru.Entry{a},
			journal: []func(*Store) error{ins(a, a.Version+1)},
			stats:   RecoveryStats{StaleVersions: 1}},
		{name: "lost insert", snap: []lru.Entry{a},
			journal: []func(*Store) error{ins(b, b.Version)}, want: []lru.Entry{a},
			stats: RecoveryStats{LostInserts: 1}},
		{name: "evict and double evict", snap: []lru.Entry{b, a},
			journal: []func(*Store) error{ev(a), ev(a)}, want: []lru.Entry{b},
			stats: RecoveryStats{ReplayedEvicts: 1, DoubleEvicts: 1}},
		{name: "evict then re-insert", snap: []lru.Entry{a},
			journal: []func(*Store) error{ev(a), ins(a, a.Version)},
			stats:   RecoveryStats{ReplayedEvicts: 1, LostInserts: 1}},
		{name: "confirm then evict", snap: []lru.Entry{a, b},
			journal: []func(*Store) error{ins(b, b.Version), ev(b)}, want: []lru.Entry{a},
			stats: RecoveryStats{ReplayedEvicts: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			leakcheck.Install(t)
			dir := t.TempDir()
			s := openStore(t, dir)
			mustRecover(t, s)
			if err := s.Checkpoint(SnapshotData{Entries: tc.snap}); err != nil {
				t.Fatal(err)
			}
			for _, op := range tc.journal {
				if err := op(s); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			want := &Recovered{Entries: tc.want, Stats: tc.stats}
			want.Stats.Recovered, want.Stats.SnapshotGen = true, 1
			want.Stats.SnapshotEntries, want.Stats.Entries = len(tc.snap), len(tc.want)
			want.Stats.JournalRecords = len(tc.journal)
			if rec := mustRecover(t, openStore(t, dir)); !reflect.DeepEqual(rec, want) {
				t.Fatalf("recovered\n %+v\nwant\n %+v", rec, want)
			}
		})
	}
}
