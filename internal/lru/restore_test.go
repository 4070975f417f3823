package lru

import (
	"fmt"
	"testing"
)

// TestRestoreRoundTrip: Entries() → Restore() on a fresh cache
// reproduces membership, bytes, and the global recency order, without
// firing callbacks.
func TestRestoreRoundTrip(t *testing.T) {
	src := MustNewCache(Config{Capacity: 1 << 20})
	for i := 0; i < 50; i++ {
		src.Put(Entry{Key: fmt.Sprintf("k%02d", i), Size: 100, Version: int64(i), Body: []byte{byte(i)}})
	}
	src.Get("k03") // promote so the order is not just insertion order
	src.Get("k07")
	snap := src.Entries()

	fired := 0
	dst := MustNewCache(Config{
		Capacity: 1 << 20,
		OnChange: func(Entry, Event) { fired++ },
	})
	stored, dropped := dst.Restore(snap)
	if stored != len(snap) || len(dropped) != 0 {
		t.Fatalf("stored %d dropped %d, want %d/0", stored, len(dropped), len(snap))
	}
	if fired != 0 {
		t.Fatalf("Restore fired %d callbacks", fired)
	}
	if dst.Bytes() != src.Bytes() || dst.Len() != src.Len() {
		t.Fatalf("bytes/len %d/%d want %d/%d", dst.Bytes(), dst.Len(), src.Bytes(), src.Len())
	}
	gotKeys, wantKeys := dst.Keys(), src.Keys()
	for i := range wantKeys {
		if gotKeys[i] != wantKeys[i] {
			t.Fatalf("recency order diverges at %d: got %q want %q", i, gotKeys[i], wantKeys[i])
		}
	}
	e, ok := dst.Peek("k07")
	if !ok || e.Version != 7 || len(e.Body) != 1 || e.Body[0] != 7 {
		t.Fatalf("restored entry lost payload: %+v %v", e, ok)
	}
}

// TestRestoreShrunkCapacity: when the snapshot no longer fits, the most
// recently used entries survive and the dropped tail is reported.
func TestRestoreShrunkCapacity(t *testing.T) {
	src := MustNewCache(Config{Capacity: 1000})
	for i := 0; i < 10; i++ {
		src.Put(Entry{Key: fmt.Sprintf("k%d", i), Size: 100})
	}
	dst := MustNewCache(Config{Capacity: 500})
	stored, dropped := dst.Restore(src.Entries())
	if stored != 5 || len(dropped) != 5 {
		t.Fatalf("stored %d dropped %d, want 5/5", stored, len(dropped))
	}
	// MRU half (k9..k5) kept, LRU half (k4..k0) dropped.
	for i := 5; i < 10; i++ {
		if !dst.Contains(fmt.Sprintf("k%d", i)) {
			t.Fatalf("MRU entry k%d was dropped", i)
		}
	}
	for _, k := range dropped {
		if dst.Contains(k) {
			t.Fatalf("dropped key %q still present", k)
		}
	}
	if dst.Bytes() != 500 {
		t.Fatalf("bytes %d, want 500", dst.Bytes())
	}
}

// TestRestoreSkipsPresent: a key already cached is left untouched and
// counted as stored, not dropped — the caller must not dir.Remove it.
func TestRestoreSkipsPresent(t *testing.T) {
	dst := MustNewCache(Config{Capacity: 1000})
	dst.Put(Entry{Key: "a", Size: 10, Version: 99})
	stored, dropped := dst.Restore([]Entry{{Key: "a", Size: 10, Version: 1}, {Key: "b", Size: 10, Version: 2}})
	if stored != 2 || len(dropped) != 0 {
		t.Fatalf("stored %d dropped %d, want 2/0", stored, len(dropped))
	}
	e, _ := dst.Peek("a")
	if e.Version != 99 {
		t.Fatalf("Restore overwrote a live entry: version %d", e.Version)
	}
}
