package lru

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestNewValidation(t *testing.T) {
	if _, err := NewCache(Config{Capacity: 0}); err != ErrBadCapacity {
		t.Fatalf("err = %v, want ErrBadCapacity", err)
	}
	if _, err := NewCache(Config{Capacity: -5}); err != ErrBadCapacity {
		t.Fatalf("err = %v, want ErrBadCapacity", err)
	}
}

func TestPutGet(t *testing.T) {
	c := MustNewCache(Config{Capacity: 1000})
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache returned a hit")
	}
	if !c.Put(Entry{Key: "a", Size: 100, Version: 1}) {
		t.Fatal("Put rejected cacheable entry")
	}
	e, ok := c.Get("a")
	if !ok || e.Size != 100 || e.Version != 1 {
		t.Fatalf("Get = %+v, %v", e, ok)
	}
	if c.Len() != 1 || c.Bytes() != 100 {
		t.Fatalf("len=%d bytes=%d", c.Len(), c.Bytes())
	}
	if cnt := c.Counters(); cnt.Hits != 1 || cnt.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", cnt.Hits, cnt.Misses)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	var evicted []string
	c := MustNewCache(Config{Capacity: 300, OnChange: func(e Entry, ev Event) {
		if ev == EvictCapacity {
			evicted = append(evicted, e.Key)
		}
	}})
	c.Put(Entry{Key: "a", Size: 100})
	c.Put(Entry{Key: "b", Size: 100})
	c.Put(Entry{Key: "c", Size: 100})
	c.Get("a") // promote a; LRU order is now b, c, a
	c.Put(Entry{Key: "d", Size: 100})
	if len(evicted) != 1 || evicted[0] != "b" {
		t.Fatalf("evicted = %v, want [b]", evicted)
	}
	if c.Contains("b") || !c.Contains("a") || !c.Contains("c") || !c.Contains("d") {
		t.Fatal("wrong survivors after eviction")
	}
}

func TestEvictionMultiple(t *testing.T) {
	c := MustNewCache(Config{Capacity: 250})
	for i := 0; i < 5; i++ {
		c.Put(Entry{Key: fmt.Sprintf("k%d", i), Size: 50})
	}
	// Inserting a 200-byte doc must displace several LRU entries.
	c.Put(Entry{Key: "big", Size: 200})
	if c.Bytes() > 250 {
		t.Fatalf("bytes %d exceeds capacity", c.Bytes())
	}
	if !c.Contains("big") || !c.Contains("k4") {
		t.Fatal("MRU entries should survive")
	}
	if c.Contains("k0") || c.Contains("k1") {
		t.Fatal("LRU entries should be gone")
	}
}

func TestMaxObjectSize(t *testing.T) {
	c := MustNewCache(Config{Capacity: 10 << 20}) // default 250 KB limit
	if c.Put(Entry{Key: "huge", Size: 251 * 1024}) {
		t.Fatal("accepted document over the 250 KB paper limit")
	}
	if !c.Put(Entry{Key: "ok", Size: 250 * 1024}) {
		t.Fatal("rejected document at the limit")
	}
	unlimited := MustNewCache(Config{Capacity: 10 << 20, MaxObjectSize: -1})
	if !unlimited.Put(Entry{Key: "huge", Size: 5 << 20}) {
		t.Fatal("unlimited cache rejected large doc")
	}
	custom := MustNewCache(Config{Capacity: 10 << 20, MaxObjectSize: 1000})
	if custom.Put(Entry{Key: "x", Size: 1001}) {
		t.Fatal("custom limit not applied")
	}
	if custom.Put(Entry{Key: "neg", Size: -1}) {
		t.Fatal("accepted negative size")
	}
	if c.Put(Entry{Key: "overcap", Size: 11 << 20}) {
		t.Fatal("accepted doc exceeding whole capacity")
	}
}

func TestUpdateSameKey(t *testing.T) {
	var events []Event
	var versions []int64
	c := MustNewCache(Config{
		Capacity: 1000,
		OnChange: func(e Entry, ev Event) {
			events = append(events, ev)
			versions = append(versions, e.Version)
		},
	})
	c.Put(Entry{Key: "a", Size: 100, Version: 1})
	c.Put(Entry{Key: "a", Size: 300, Version: 2}) // new version
	if c.Len() != 1 || c.Bytes() != 300 {
		t.Fatalf("len=%d bytes=%d after update", c.Len(), c.Bytes())
	}
	e, _ := c.Peek("a")
	if e.Version != 2 {
		t.Fatalf("version = %d, want 2", e.Version)
	}
	// Re-putting the identical version is still a stored Put: Replaced is
	// reported, but only the version change counts as an invalidation.
	c.Put(Entry{Key: "a", Size: 300, Version: 2})
	want := []Event{Inserted, Replaced, Replaced}
	if fmt.Sprint(events) != fmt.Sprint(want) || fmt.Sprint(versions) != "[1 2 2]" {
		t.Fatalf("events %v versions %v, want %v with the new entry's versions [1 2 2]", events, versions, want)
	}
	if got := c.Counters().Updated; got != 1 {
		t.Fatalf("Counters().Updated = %d, want 1", got)
	}
}

func TestTouch(t *testing.T) {
	c := MustNewCache(Config{Capacity: 200})
	c.Put(Entry{Key: "a", Size: 100})
	c.Put(Entry{Key: "b", Size: 100})
	if !c.Touch("a") {
		t.Fatal("Touch miss on present key")
	}
	if c.Touch("zzz") {
		t.Fatal("Touch hit on absent key")
	}
	c.Put(Entry{Key: "c", Size: 100}) // displaces LRU, which is now b
	if !c.Contains("a") || c.Contains("b") {
		t.Fatal("Touch did not promote")
	}
	// Touch must not affect hit accounting.
	if h := c.Counters().Hits; h != 0 {
		t.Fatalf("Touch counted as hit: %d", h)
	}
}

func TestRemove(t *testing.T) {
	var removed []Event
	c := MustNewCache(Config{Capacity: 1000, OnChange: func(_ Entry, ev Event) { removed = append(removed, ev) }})
	c.Put(Entry{Key: "a", Size: 10})
	removed = nil
	if !c.Remove("a") {
		t.Fatal("Remove missed present key")
	}
	if c.Remove("a") {
		t.Fatal("Remove hit absent key")
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatal("cache not empty after remove")
	}
	if len(removed) != 1 || removed[0] != EvictRemoved {
		t.Fatalf("events = %v", removed)
	}
}

func TestKeysOrder(t *testing.T) {
	c := MustNewCache(Config{Capacity: 1000})
	c.Put(Entry{Key: "a", Size: 1})
	c.Put(Entry{Key: "b", Size: 1})
	c.Put(Entry{Key: "c", Size: 1})
	c.Get("a")
	keys := c.Keys()
	if len(keys) != 3 || keys[0] != "a" || keys[1] != "c" || keys[2] != "b" {
		t.Fatalf("keys = %v, want [a c b] (MRU first)", keys)
	}
	entries := c.Entries()
	if len(entries) != 3 || entries[0].Key != "a" {
		t.Fatalf("entries = %v", entries)
	}
}

// A configuration that still asks for shards gets the one cache: Shards is
// ignored, and Keys and Entries report a single global MRU order.
func TestGlobalMRUOrderAcrossShards(t *testing.T) {
	c := MustNewCache(Config{Capacity: 64 << 10, MaxObjectSize: 1 << 10, Shards: 8})
	for i := 0; i < 10; i++ {
		c.Put(Entry{Key: fmt.Sprintf("k%d", i), Size: 100})
	}
	c.Get("k3") // most recent
	c.Touch("k5")
	keys := c.Keys()
	want := []string{"k5", "k3", "k9", "k8", "k7", "k6", "k4", "k2", "k1", "k0"}
	if fmt.Sprint(keys) != fmt.Sprint(want) {
		t.Fatalf("keys = %v, want %v (MRU first)", keys, want)
	}
	entries := c.Entries()
	if len(entries) != len(keys) {
		t.Fatalf("Entries has %d, Keys %d", len(entries), len(keys))
	}
	for i, e := range entries {
		if e.Key != keys[i] {
			t.Fatalf("Entries order diverges from Keys at %d: %s vs %s", i, e.Key, keys[i])
		}
	}
}

func TestClear(t *testing.T) {
	changes := 0
	c := MustNewCache(Config{Capacity: 1000, OnChange: func(Entry, Event) { changes++ }})
	c.Put(Entry{Key: "a", Size: 10})
	c.Clear()
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatal("Clear left state behind")
	}
	if changes != 1 {
		t.Fatalf("Clear reported departures: %d notifications, want only the insert", changes)
	}
}

// Invariant: bytes == sum of entry sizes, never exceeds capacity, and the
// entry set matches the key set — under arbitrary operation sequences.
func TestQuickInvariants(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := MustNewCache(Config{Capacity: 5000, MaxObjectSize: -1})
		for op := 0; op < 500; op++ {
			k := fmt.Sprintf("k%d", rng.Intn(60))
			switch rng.Intn(4) {
			case 0, 1:
				c.Put(Entry{Key: k, Size: int64(rng.Intn(500) + 1), Version: int64(rng.Intn(3))})
			case 2:
				c.Get(k)
			case 3:
				c.Remove(k)
			}
		}
		if c.Bytes() > c.Capacity() {
			return false
		}
		var sum int64
		seen := map[string]bool{}
		for _, e := range c.Entries() {
			sum += e.Size
			if seen[e.Key] {
				return false // duplicate key in list
			}
			seen[e.Key] = true
			if got, ok := c.Peek(e.Key); !ok || got.Key != e.Key || got.Size != e.Size || got.Version != e.Version {
				return false
			}
		}
		return sum == c.Bytes() && len(seen) == c.Len()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// keyMirror applies the OnChange stream to a key set, as a summary
// consumer does. A set, unlike a counter per key, is order-sensitive: an
// eviction reported before its key's insertion leaves the key behind.
type keyMirror struct {
	mu   sync.Mutex
	keys map[string]bool
}

func newKeyMirror() *keyMirror { return &keyMirror{keys: map[string]bool{}} }

func (m *keyMirror) apply(e Entry, ev Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch ev {
	case Inserted:
		m.keys[e.Key] = true
	case EvictCapacity, EvictRemoved:
		delete(m.keys, e.Key)
	}
}

// check fails t unless the mirror holds exactly the cache's keys.
func (m *keyMirror) check(t *testing.T, c *Cache) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := c.Keys()
	if len(m.keys) != len(keys) {
		t.Fatalf("mirror has %d keys, cache has %d", len(m.keys), len(keys))
	}
	for _, k := range keys {
		if !m.keys[k] {
			t.Fatalf("cache key %q missing from mirror", k)
		}
	}
}

// The change stream must balance: applying it to a set reproduces the
// cache contents. This is exactly what keeps a Bloom-filter summary
// consistent with the cache.
func TestCallbackStreamMirrorsCache(t *testing.T) {
	mirror := newKeyMirror()
	c := MustNewCache(Config{
		Capacity:      3000,
		MaxObjectSize: -1,
		OnChange:      mirror.apply,
	})
	rng := rand.New(rand.NewSource(99))
	for op := 0; op < 2000; op++ {
		k := fmt.Sprintf("k%d", rng.Intn(100))
		switch rng.Intn(3) {
		case 0, 1:
			c.Put(Entry{Key: k, Size: int64(rng.Intn(200) + 1)})
		case 2:
			c.Remove(k)
		}
	}
	mirror.check(t, c)
}

// TestChangeStreamOrderedAcrossWriters forces the interleaving that breaks
// an unordered stream: writer A's insert(k) notification is held inside the
// hook while writer B's Put evicts k from a one-document cache. B's
// eviction must not be reported before A's insertion, or the mirror keeps
// a key the cache no longer holds.
func TestChangeStreamOrderedAcrossWriters(t *testing.T) {
	mirror := newKeyMirror()
	entered, release := make(chan struct{}), make(chan struct{})
	c := MustNewCache(Config{Capacity: 100, OnChange: func(e Entry, ev Event) {
		if e.Key == "k" && ev == Inserted {
			close(entered)
			<-release
		}
		mirror.apply(e, ev)
	}})
	aDone, bDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(aDone)
		c.Put(Entry{Key: "k", Size: 100})
	}()
	<-entered
	go func() {
		defer close(bDone)
		c.Put(Entry{Key: "j", Size: 100}) // displaces k
	}()
	// An unordered cache lets B finish (and report evict(k)) right away;
	// an ordered one holds B until A's notifications are delivered.
	select {
	case <-bDone:
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-aDone
	<-bDone
	if keys := c.Keys(); len(keys) != 1 || keys[0] != "j" {
		t.Fatalf("keys = %v, want [j]", keys)
	}
	mirror.check(t, c)
}

func TestConcurrentAccess(t *testing.T) {
	c := MustNewCache(Config{Capacity: 100000})
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("g%d-%d", g, i%50)
				c.Put(Entry{Key: k, Size: 10})
				c.Get(k)
				c.Touch(k)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if c.Bytes() > c.Capacity() {
		t.Fatal("capacity violated under concurrency")
	}
}

// The eviction-callback accounting invariant under parallel load: each
// goroutine owns a disjoint key space (callback order per key is then
// well-defined), and after the storm the insert/evict stream must mirror
// the cache contents exactly — the property that keeps a Bloom-filter
// summary consistent with a live concurrent cache.
func TestParallelCallbackAccounting(t *testing.T) {
	mirror := newKeyMirror()
	c := MustNewCache(Config{
		Capacity:      256 << 10,
		MaxObjectSize: 4 << 10,
		OnChange:      mirror.apply,
	})
	workers := 4 * runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 3000; i++ {
				k := fmt.Sprintf("g%d-%d", g, rng.Intn(200))
				switch rng.Intn(4) {
				case 0, 1:
					c.Put(Entry{Key: k, Size: int64(rng.Intn(2048) + 1), Version: int64(rng.Intn(3))})
				case 2:
					c.Get(k)
				case 3:
					c.Remove(k)
				}
			}
		}(g)
	}
	wg.Wait()

	if c.Bytes() > c.Capacity() {
		t.Fatalf("bytes %d exceed capacity %d", c.Bytes(), c.Capacity())
	}
	mirror.check(t, c)
	var sum int64
	for _, e := range c.Entries() {
		sum += e.Size
	}
	if sum != c.Bytes() {
		t.Fatalf("entry sizes sum to %d, Bytes reports %d", sum, c.Bytes())
	}
}

// Shared-key stress under the race detector: Get/Put/Touch/Remove/iterate
// from many goroutines on overlapping keys.
func TestParallelSharedKeys(t *testing.T) {
	c := MustNewCache(Config{Capacity: 1 << 20, MaxObjectSize: 8 << 10})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) * 31))
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("k%d", rng.Intn(64))
				switch rng.Intn(5) {
				case 0:
					c.Put(Entry{Key: k, Size: int64(rng.Intn(4096) + 1)})
				case 1:
					c.Get(k)
				case 2:
					c.Touch(k)
				case 3:
					c.Remove(k)
				case 4:
					if i%500 == 0 {
						c.Keys()
						c.Counters()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Bytes() > c.Capacity() {
		t.Fatal("capacity violated under concurrency")
	}
	cnt := c.Counters()
	if cnt.Hits+cnt.Misses == 0 {
		t.Fatal("no accesses recorded")
	}
}

// TestLockContentionCounter: a Get that finds the cache lock held is
// counted once, and the count surfaces through Counters.
func TestLockContentionCounter(t *testing.T) {
	c := MustNewCache(Config{Capacity: 1 << 20})
	c.Put(Entry{Key: "hot", Size: 1})
	c.mu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Get("hot")
	}()
	for c.contended.Load() == 0 {
		runtime.Gosched() // until the Get has found the lock held
	}
	c.mu.Unlock()
	<-done
	if got := c.Counters().LockContentions; got != 1 {
		t.Fatalf("Counters().LockContentions = %d, want 1", got)
	}
}

// BenchmarkParallelGet measures the read path under contention.
func BenchmarkParallelGet(b *testing.B) {
	c := MustNewCache(Config{Capacity: 64 << 20})
	keys := make([]string, 8192)
	for i := range keys {
		keys[i] = fmt.Sprintf("http://bench/doc%d", i)
		c.Put(Entry{Key: keys[i], Size: 2048})
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			c.Get(keys[i%len(keys)])
			i++
		}
	})
}

func BenchmarkPutGet(b *testing.B) {
	c := MustNewCache(Config{Capacity: 1 << 24})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := fmt.Sprintf("k%d", i%10000)
		c.Put(Entry{Key: k, Size: 1024})
		c.Get(k)
	}
}
