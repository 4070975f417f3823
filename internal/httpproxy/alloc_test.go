package httpproxy

import (
	"bytes"
	"fmt"
	"net"
	"net/url"
	"testing"
	"time"

	"summarycache/internal/bloom"
	"summarycache/internal/icp"
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
				p.storeBody(nil, key, signature(p, key), 1, body)
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
// side, so neither publisher wakes. Left per remote hit, one allocation:
// the holder's query URL, decoded from the datagram, which its handler
// keeps (the icp.Handler contract) and reads its cache with.
//
// The asker keeps nothing, so it makes no string of the target: it probes
// the summaries with the signature of the url parameter's bytes, encodes
// its ICP query from them and matches the reply's URL against them. The
// target is in plainTarget's subset, so it builds no *url.URL, and the
// HIT_OBJ's object lands in its connection scratch.
// TestAskerRemoteHitAllocBudget measures the asker alone.
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
	holder.storeBody(nil, target, signature(holder, target), 0, doc)
	holder.FlushSummary()
	waitForCandidate(t, asker, target)
	get := rawClient(t, asker, ProxyPath+"?url="+url.QueryEscape(target), doc)
	const budget = 1
	if got := testing.AllocsPerRun(200, func() { get() }); got != budget {
		t.Fatalf("a remote hit allocated %v times in the proxies, want %d", got, budget)
	}
	if st := asker.Stats(); st.RemoteHits != 202 || st.PeerFetches != 0 || st.OriginFetches != 0 || asker.CacheLen() != 0 {
		t.Fatalf("asker stats = %+v, %d cached, want 202 inline remote hits and nothing cached", st, asker.CacheLen())
	}
}

// TestAskerRemoteHitAllocBudget pins what a single-copy inline remote hit
// costs the asking proxy alone. Its sibling is a bare socket that ships a
// summary naming the key and answers every query with one prebuilt
// HIT_OBJ, allocating nothing, so AllocsPerRun counts the asker and the
// client that allocates nothing (rawClient). A plain asker keeps nothing
// and allocates nothing. A version-aware one makes the target a string and
// its key, the target with its version stripped, once as bytes and once as
// a string (splitVersion): 3.
func TestAskerRemoteHitAllocBudget(t *testing.T) {
	doc := bytes.Repeat([]byte("d"), 1<<10)
	for _, tc := range []struct {
		name         string
		versionAware bool
		target, key  string
		version      int64
		budget       float64
	}{
		{"plain", false, "http://origin.invalid/doc?size=1024", "http://origin.invalid/doc?size=1024", 0, 0},
		{"version-aware", true, "http://origin.invalid/doc?size=1024&v=3", "http://origin.invalid/doc?size=1024", 3, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			asker, err := Start(Config{
				Mode:         ModeSCICP,
				CacheBytes:   1 << 20,
				SingleCopy:   true,
				VersionAware: tc.versionAware,
				Summary:      bloom.DirectoryConfig{ExpectedDocs: 1000, MinPending: 1},
				QueryTimeout: 2 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { asker.Close() })
			holder := bareHolder(t, asker, tc.key, doc, tc.version)
			if err := asker.AddPeer(holder, "http://127.0.0.1:9"); err != nil {
				t.Fatal(err)
			}
			waitForCandidate(t, asker, tc.key)
			get := rawClient(t, asker, ProxyPath+"?url="+url.QueryEscape(tc.target), doc)
			if got := testing.AllocsPerRun(200, func() { get() }); got != tc.budget {
				t.Fatalf("a remote hit allocated %v times in the asker, want %v", got, tc.budget)
			}
			if st := asker.Stats(); st.RemoteHits != 202 || st.PeerFetches != 0 || st.OriginFetches != 0 || asker.CacheLen() != 0 {
				t.Fatalf("asker stats = %+v, %d cached, want 202 inline remote hits and nothing cached", st, asker.CacheLen())
			}
		})
	}
}

// bareHolder is a sibling of p that holds target at version: a UDP socket
// that sends p one full-state summary naming target, then answers every
// ICP query with a HIT_OBJ of doc for target, built once, without
// allocating. It returns the socket's address.
func bareHolder(t *testing.T, p *Proxy, target string, doc []byte, version int64) *net.UDPAddr {
	t.Helper()
	sock, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	hit, ok := icp.NewHitObj(0, target, doc, version)
	if !ok {
		t.Fatal("the document does not fit a HIT_OBJ")
	}
	reply, err := hit.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, icp.MaxDatagram)
		for {
			n, from, err := sock.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			if n >= icp.HeaderLen && icp.Opcode(buf[0]) == icp.OpQuery {
				copy(reply[4:8], buf[4:8]) // the query's request number
				if _, err := sock.WriteToUDPAddrPort(reply, from); err != nil {
					return
				}
			}
		}
	}()
	t.Cleanup(func() {
		sock.Close()
		<-done
	})
	dir, err := bloom.NewDirectory(bloom.DirectoryConfig{ExpectedDocs: 1000})
	if err != nil {
		t.Fatal(err)
	}
	dir.Insert(target)
	update := icp.NewDirUpdate(1, dir.Spec(), uint32(dir.Bits()), dir.SnapshotFlips())
	update.Options |= icp.OptionFullUpdate
	b, err := update.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	addr := sock.LocalAddr().(*net.UDPAddr)
	go func() {
		// Until the asker has registered the socket, it refuses the update.
		for i := 0; i < 300 && len(p.node.Candidates(target)) == 0; i++ {
			if _, err := sock.WriteToUDP(b, p.ICPAddr()); err != nil {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()
	return addr
}
