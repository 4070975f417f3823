package httpproxy

import (
	"bytes"
	"fmt"
	"net/url"
	"testing"
	"time"

	"summarycache/internal/bloom"
	"summarycache/internal/persist"
)

// TestStoreAllocBudget pins what storing a document costs the write path of
// a cache wired to the SC-ICP directory and the persist journal. Into a
// full cache it allocates nothing: the node of the document it displaces
// holds the new one. Into a cache with room it allocates once, the node.
// The eviction, HandleInsert/HandleEvict's counting-filter and flip-journal
// updates, and both journal records reuse memory. AllocsPerRun counts
// every goroutine, so the publisher is kept asleep (Summary.MinPending)
// and the journal is never fsynced.
func TestStoreAllocBudget(t *testing.T) {
	const docSize, docs, fill = 1 << 10, 64, 16 * 64
	for _, tc := range []struct {
		name      string
		cacheDocs int
		budget    float64
		evictions uint64 // in the measured stores
	}{
		{"displacing", docs, 0, 201},
		{"with room", 2 * fill, 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Start(Config{
				Mode:       ModeSCICP,
				CacheBytes: int64(tc.cacheDocs * docSize),
				Summary:    bloom.DirectoryConfig{ExpectedDocs: uint64(tc.cacheDocs), MinPending: 1 << 30},
				Persist:    &persist.Config{Dir: t.TempDir(), Fsync: persist.FsyncNever},
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { p.Close() })
			body := make([]byte, docSize)
			keys := make([]string, fill+201)
			for i := range keys {
				keys[i] = fmt.Sprintf("http://example.com/doc%d", i)
			}
			next := 0
			store := func() {
				key := keys[next]
				p.storeBody(nil, key, p.signature(key), 1, body)
				next++
			}
			for range fill {
				store() // fill the cache and size the flip journal
			}
			p.FlushSummary() // one publication; the journal keeps its array
			evicted := p.cache.Counters().EvictedCapacity
			if n := testing.AllocsPerRun(200, store); n != tc.budget {
				t.Fatalf("storeBody allocated %v times per stored document, want %v", n, tc.budget)
			}
			if got := p.cache.Counters().EvictedCapacity - evicted; got != tc.evictions {
				t.Fatalf("%d evictions in 201 stores, want %d", got, tc.evictions)
			}
		})
	}
}

// TestRemoteHitAllocBudget pins what one 1 KiB inline remote hit costs two
// SC-ICP proxies under single-copy sharing, driven by a client that
// allocates nothing (rawClient). AllocsPerRun counts every goroutine, so
// both proxies' read loops are in the count; no insert happens on either
// side, so neither publisher wakes. Left per remote hit, two
// allocations:
//   - the asker's key, made from the url parameter on the local miss,
//     which its ICP query and its peer record keep;
//   - the holder's query URL, decoded from the datagram, which its handler
//     keeps (the icp.Handler contract).
//
// The target is in plainTarget's subset, so the asker builds no *url.URL,
// and its signature is computed on the stack. The HIT_OBJ's object lands
// in the asker's connection scratch, and the holder reads its cache with
// the query's string.
func TestRemoteHitAllocBudget(t *testing.T) {
	start := func() *Proxy {
		p, err := Start(Config{
			Mode:         ModeSCICP,
			CacheBytes:   1 << 20,
			SingleCopy:   true,
			Summary:      bloom.DirectoryConfig{ExpectedDocs: 1000, MinPending: 1},
			QueryTimeout: 2 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		return p
	}
	asker, holder := start(), start()
	if err := asker.AddPeer(holder.ICPAddr(), holder.URL()); err != nil {
		t.Fatal(err)
	}
	if err := holder.AddPeer(asker.ICPAddr(), asker.URL()); err != nil {
		t.Fatal(err)
	}
	const target = "http://origin.invalid/doc?size=1024"
	doc := bytes.Repeat([]byte("d"), 1<<10)
	holder.storeBody(nil, target, holder.signature(target), 0, doc)
	holder.FlushSummary()
	waitForCandidate(t, asker, target)
	get := rawClient(t, asker, ProxyPath+"?url="+url.QueryEscape(target), doc)
	const budget = 2
	if got := testing.AllocsPerRun(200, func() { get() }); got != budget {
		t.Fatalf("a remote hit allocated %v times in the proxies, want %d", got, budget)
	}
	if st := asker.Stats(); st.RemoteHits != 202 || st.PeerFetches != 0 || st.OriginFetches != 0 || asker.CacheLen() != 0 {
		t.Fatalf("asker stats = %+v, %d cached, want 202 inline remote hits and nothing cached", st, asker.CacheLen())
	}
}
