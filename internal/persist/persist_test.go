package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"summarycache/internal/core"
	"summarycache/internal/hashing"
	"summarycache/internal/lru"
	"summarycache/internal/testutil/leakcheck"
)

func entry(i int) lru.Entry {
	return lru.Entry{
		Key:     fmt.Sprintf("http://origin/doc%03d", i),
		Size:    64,
		Version: int64(1000 + i),
		Body:    []byte(fmt.Sprintf("body-%03d", i)),
	}
}

func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(Config{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func mustRecover(t *testing.T, s *Store) *Recovered {
	t.Helper()
	rec, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestCheckpointRecoverRoundTrip: snapshot + journal replay reproduces
// entries (bodies, versions, MRU order), the directory blob, and the
// replica set.
func TestCheckpointRecoverRoundTrip(t *testing.T) {
	leakcheck.Install(t)
	dir := t.TempDir()
	s := openStore(t, dir)
	if rec := mustRecover(t, s); rec.Stats.Recovered {
		t.Fatal("empty dir claimed recovery")
	}

	var entries []lru.Entry
	for i := 9; i >= 0; i-- { // MRU first
		entries = append(entries, entry(i))
	}
	replica := core.ReplicaState{
		Peer: "127.0.0.1:4001", Spec: hashing.DefaultSpec,
		Bits: 256, Generation: 42, Filter: make([]byte, 32),
	}
	replica.Filter[3] = 0xA5
	data := SnapshotData{Entries: entries, Directory: []byte("dirblob"), Replicas: []core.ReplicaState{replica}}
	if err := s.Checkpoint(data); err != nil {
		t.Fatal(err)
	}
	// Post-snapshot activity: a fresh insert, an eviction, a version bump.
	if err := s.AppendInsert("http://origin/new", 10, 5); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEvict(entries[9].Key); err != nil { // evict the LRU one (doc0)
		t.Fatal(err)
	}
	if err := s.AppendInsert(entries[8].Key, 64, 9999); err != nil { // doc1 version bump
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir)
	rec := mustRecover(t, s2)
	st := rec.Stats
	if !st.Recovered || st.TornTail {
		t.Fatalf("stats: %+v", st)
	}
	if st.SnapshotEntries != 10 || st.JournalRecords != 3 ||
		st.LostInserts != 1 || st.ReplayedEvicts != 1 || st.StaleVersions != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if len(rec.Entries) != 8 {
		t.Fatalf("recovered %d entries, want 8", len(rec.Entries))
	}
	// doc9..doc2 in MRU order; doc0 evicted, doc1 dropped stale.
	for i, e := range rec.Entries {
		want := entry(9 - i)
		if e.Key != want.Key || e.Version != want.Version || string(e.Body) != string(want.Body) {
			t.Fatalf("entry %d: got %+v want %+v", i, e, want)
		}
	}
	if len(rec.Removed) != 2 {
		t.Fatalf("removed %v, want doc0+doc1", rec.Removed)
	}
	if string(rec.Directory) != "dirblob" {
		t.Fatalf("directory blob %q", rec.Directory)
	}
	if len(rec.Replicas) != 1 || rec.Replicas[0].Peer != replica.Peer ||
		rec.Replicas[0].Generation != 42 || rec.Replicas[0].Filter[3] != 0xA5 {
		t.Fatalf("replicas: %+v", rec.Replicas)
	}
}

// TestCheckpointFuncRotatesBeforeCapture: a mutation that races the
// capture is journaled into the new generation, which recovery replays
// over the snapshot — here an eviction journaled while the capture still
// holds the document.
func TestCheckpointFuncRotatesBeforeCapture(t *testing.T) {
	leakcheck.Install(t)
	dir := t.TempDir()
	s := openStore(t, dir)
	mustRecover(t, s)
	doc := entry(1)
	if err := s.CheckpointFunc(func() SnapshotData {
		if err := s.AppendEvict(doc.Key); err != nil { // the racing mutation
			t.Error(err)
		}
		return SnapshotData{Entries: []lru.Entry{doc}}
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rec := mustRecover(t, openStore(t, dir))
	if len(rec.Entries) != 0 || rec.Stats.ReplayedEvicts != 1 {
		t.Fatalf("recovered %d entries (stats %+v); the racing eviction was lost", len(rec.Entries), rec.Stats)
	}
}

// TestRecoverTornJournalTail: truncating the journal mid-record keeps
// every record before the tear and flags TornTail.
func TestRecoverTornJournalTail(t *testing.T) {
	leakcheck.Install(t)
	dir := t.TempDir()
	s := openStore(t, dir)
	mustRecover(t, s)
	if err := s.Checkpoint(SnapshotData{Entries: []lru.Entry{entry(1)}}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEvict(entry(1).Key); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendInsert("http://late/doc", 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the last record.
	jpath := filepath.Join(dir, genName(jrnlPrefix, 1))
	fi, err := os.Stat(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(jpath, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	rec := mustRecover(t, openStore(t, dir))
	if !rec.Stats.TornTail {
		t.Fatal("torn tail not detected")
	}
	if rec.Stats.ReplayedEvicts != 1 || len(rec.Entries) != 0 {
		t.Fatalf("valid prefix lost: %+v entries=%d", rec.Stats, len(rec.Entries))
	}
}

// TestRecoverCorruptSnapshotFallsBack: a snapshot with a flipped byte is
// rejected whole; recovery falls back one generation and replays BOTH
// journals (the old generation's and the newer one's).
func TestRecoverCorruptSnapshotFallsBack(t *testing.T) {
	leakcheck.Install(t)
	dir := t.TempDir()
	s := openStore(t, dir)
	mustRecover(t, s)
	if err := s.Checkpoint(SnapshotData{Entries: []lru.Entry{entry(1)}}); err != nil { // gen 1
		t.Fatal(err)
	}
	if err := s.AppendInsert("http://gen1/extra", 3, 7); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(SnapshotData{Entries: []lru.Entry{entry(1), entry(2)}}); err != nil { // gen 2
		t.Fatal(err)
	}
	if err := s.AppendEvict(entry(1).Key); err != nil { // gen-2 journal
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt gen-2's snapshot body.
	spath := filepath.Join(dir, genName(snapPrefix, 2))
	img, err := os.ReadFile(spath)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)/2] ^= 0xFF
	if err := os.WriteFile(spath, img, 0o644); err != nil {
		t.Fatal(err)
	}

	rec := mustRecover(t, openStore(t, dir))
	if rec.Stats.SnapshotsSkipped != 1 || rec.Stats.SnapshotGen != 1 {
		t.Fatalf("stats: %+v", rec.Stats)
	}
	// Base gen-1 snapshot has doc1. Journal gen-1: lost insert (extra).
	// Journal gen-2: evict doc1. Final: empty, with doc1 removed.
	if len(rec.Entries) != 0 || len(rec.Removed) != 1 || rec.Removed[0] != entry(1).Key {
		t.Fatalf("entries=%v removed=%v", rec.Entries, rec.Removed)
	}
	if rec.Stats.LostInserts != 1 || rec.Stats.ReplayedEvicts != 1 {
		t.Fatalf("stats: %+v", rec.Stats)
	}
}

// TestRecoverZeroFilledSnapshotFallsBack: a snapshot whose body after the
// header reads as zeros (blocks allocated but never written before a
// crash) holds a zero-length frame whose CRC checks. Recovery must skip
// it for the previous generation, not panic on the empty payload.
func TestRecoverZeroFilledSnapshotFallsBack(t *testing.T) {
	leakcheck.Install(t)
	dir := t.TempDir()
	s := openStore(t, dir)
	mustRecover(t, s)
	if err := s.Checkpoint(SnapshotData{Entries: []lru.Entry{entry(1)}}); err != nil { // gen 1
		t.Fatal(err)
	}
	if err := s.Checkpoint(SnapshotData{Entries: []lru.Entry{entry(1), entry(2)}}); err != nil { // gen 2
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	spath := filepath.Join(dir, genName(snapPrefix, 2))
	img, err := os.ReadFile(spath)
	if err != nil {
		t.Fatal(err)
	}
	_, rest, err := nextFrame(img)
	if err != nil {
		t.Fatal(err)
	}
	clear(img[len(img)-len(rest):])
	if err := os.WriteFile(spath, img, 0o644); err != nil {
		t.Fatal(err)
	}

	rec := mustRecover(t, openStore(t, dir))
	if rec.Stats.SnapshotsSkipped != 1 || rec.Stats.SnapshotGen != 1 {
		t.Fatalf("stats: %+v", rec.Stats)
	}
	if len(rec.Entries) != 1 || rec.Entries[0].Key != entry(1).Key {
		t.Fatalf("entries: %+v", rec.Entries)
	}
}

// TestRecoverOverlapWindowIdempotent: a record present in both the
// snapshot and the rotated journal (the overlap window) replays as a
// no-op — same entries, and a doubled eviction surfaces as DoubleEvicts,
// not a lost document.
func TestRecoverOverlapWindowIdempotent(t *testing.T) {
	leakcheck.Install(t)
	dir := t.TempDir()
	s := openStore(t, dir)
	mustRecover(t, s)
	e1, e2 := entry(1), entry(2)
	if err := s.Checkpoint(SnapshotData{Entries: []lru.Entry{e2, e1}}); err != nil {
		t.Fatal(err)
	}
	// Overlap: the same inserts recorded again in the new journal, plus a
	// doubled eviction of a key the snapshot never had.
	if err := s.AppendInsert(e1.Key, e1.Size, e1.Version); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendInsert(e2.Key, e2.Size, e2.Version); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEvict("http://never/was"); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEvict("http://never/was"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	rec := mustRecover(t, openStore(t, dir))
	if len(rec.Entries) != 2 || len(rec.Removed) != 0 {
		t.Fatalf("entries=%d removed=%v", len(rec.Entries), rec.Removed)
	}
	// The re-inserts refreshed recency: e2 was journaled last, so it is MRU.
	if rec.Entries[0].Key != e2.Key || rec.Entries[1].Key != e1.Key {
		t.Fatalf("order: %q, %q", rec.Entries[0].Key, rec.Entries[1].Key)
	}
	if rec.Stats.DoubleEvicts != 2 || rec.Stats.LostInserts != 0 {
		t.Fatalf("stats: %+v", rec.Stats)
	}
}

// TestCheckpointPrunes: after the third checkpoint only the last two
// generation pairs remain on disk.
func TestCheckpointPrunes(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	mustRecover(t, s)
	for i := 0; i < 3; i++ {
		if err := s.Checkpoint(SnapshotData{Entries: []lru.Entry{entry(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	snaps, jrnls, err := s.scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 || snaps[0] != 2 || snaps[1] != 3 {
		t.Fatalf("snapshots on disk: %v", snaps)
	}
	if len(jrnls) != 2 || jrnls[0] != 2 || jrnls[1] != 3 {
		t.Fatalf("journals on disk: %v", jrnls)
	}
	if got := s.Stats().Snapshots; got != 3 {
		t.Fatalf("snapshot count %d", got)
	}
}

// TestFsyncPolicies: always syncs per append; interval syncs on its
// ticker and stops it at close; never leaves it to close.
func TestFsyncPolicies(t *testing.T) {
	always, err := Open(Config{Dir: t.TempDir(), Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer always.Close()
	if _, err := always.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := always.Checkpoint(SnapshotData{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := always.AppendInsert(fmt.Sprintf("k%d", i), 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := always.Stats().JournalFsyncs; got != 3 {
		t.Fatalf("always: %d fsyncs, want 3", got)
	}

	interval, err := Open(Config{Dir: t.TempDir(), Fsync: FsyncInterval, FsyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer interval.Close()
	mustRecover(t, interval)
	if err := interval.Checkpoint(SnapshotData{}); err != nil {
		t.Fatal(err)
	}
	if err := interval.AppendInsert("k", 1, 1); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); interval.Stats().JournalFsyncs == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("interval: the ticker never synced the appended record")
		}
	}

	never := openStore(t, t.TempDir())
	mustRecover(t, never)
	if err := never.Checkpoint(SnapshotData{}); err != nil {
		t.Fatal(err)
	}
	if err := never.AppendInsert("k", 1, 1); err != nil {
		t.Fatal(err)
	}
	if got := never.Stats().JournalFsyncs; got != 0 {
		t.Fatalf("never: %d fsyncs before close", got)
	}
}

// TestParseFsyncPolicy rejects unknown policies and defaults empty.
func TestParseFsyncPolicy(t *testing.T) {
	for _, ok := range []string{"always", "interval", "never", ""} {
		if _, err := ParseFsyncPolicy(ok); err != nil {
			t.Fatalf("%q: %v", ok, err)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}
