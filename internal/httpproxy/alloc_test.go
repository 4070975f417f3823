package httpproxy

import (
	"fmt"
	"testing"

	"summarycache/internal/core"
	"summarycache/internal/persist"
)

// TestStoreAllocBudget pins what storing a document costs the write path of
// a full cache wired to the SC-ICP directory and the persist journal: one
// allocation, the cache node that holds the document. The eviction it
// forces, HandleInsert/HandleEvict's counting-filter and flip-journal
// updates, and both journal records reuse memory. AllocsPerRun counts every
// goroutine, so the publisher is kept asleep (MinUpdateFlips) and the
// journal is never fsynced.
func TestStoreAllocBudget(t *testing.T) {
	const docSize, docs = 1 << 10, 64
	p, err := Start(Config{
		Mode:           ModeSCICP,
		CacheBytes:     docs * docSize,
		Summary:        core.DirectoryConfig{ExpectedDocs: docs},
		MinUpdateFlips: 1 << 30,
		Persist:        &persist.Config{Dir: t.TempDir(), Fsync: persist.FsyncNever},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	body := make([]byte, docSize)
	keys := make([]string, 16*docs)
	for i := range keys {
		keys[i] = fmt.Sprintf("http://example.com/doc%d", i)
	}
	next := 0
	store := func() {
		p.storeBody(keys[next%len(keys)], 1, body)
		next++
	}
	for range keys {
		store() // fill the cache and size the flip journal
	}
	p.FlushSummary() // one publication; the journal keeps its array
	evicted := p.cache.Counters().EvictedCapacity
	const budget = 1
	if n := testing.AllocsPerRun(200, store); n != budget {
		t.Fatalf("storeBody allocated %v times per stored document, want %d", n, budget)
	}
	if got := p.cache.Counters().EvictedCapacity - evicted; got != 201 {
		t.Fatalf("%d evictions in 201 stores: the cache was not full", got)
	}
}
