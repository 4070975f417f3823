package summarycache_test

import (
	"context"
	"testing"
	"time"

	"summarycache"
)

// The facade must expose a working end-to-end protocol path: two nodes,
// directory summaries, replication, and lookup — all through the public
// aliases.
func TestPublicAPIEndToEnd(t *testing.T) {
	docs := map[string]bool{}
	a, err := summarycache.NewNode(summarycache.NodeConfig{
		ListenAddr:        "127.0.0.1:0",
		Directory:         summarycache.DirectoryConfig{ExpectedDocs: 100},
		HasDocument:       func(u string) bool { return docs[u] },
		MinFlipsToPublish: 1,
		QueryTimeout:      2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := summarycache.NewNode(summarycache.NodeConfig{
		ListenAddr:        "127.0.0.1:0",
		Directory:         summarycache.DirectoryConfig{ExpectedDocs: 100},
		HasDocument:       func(string) bool { return false },
		MinFlipsToPublish: 1,
		QueryTimeout:      2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.AddPeer(b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer(a.Addr()); err != nil {
		t.Fatal(err)
	}

	const url = "http://public-api/doc"
	docs[url] = true
	a.HandleInsert(url)
	a.PublishNow()

	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if len(b.Candidates(url)) > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	hit, _, err := b.Lookup(context.Background(), url)
	if err != nil {
		t.Fatal(err)
	}
	if hit == nil || hit.String() != a.Addr().String() {
		t.Fatalf("lookup through public API: hit=%v", hit)
	}
}

func TestPublicAPIFilters(t *testing.T) {
	f, err := summarycache.NewFilter(1024, summarycache.DefaultHashSpec)
	if err != nil {
		t.Fatal(err)
	}
	f.Add("key")
	if !f.Test("key") {
		t.Fatal("filter through facade broken")
	}
	c, err := summarycache.NewCountingFilter(1024, 4, summarycache.DefaultHashSpec)
	if err != nil {
		t.Fatal(err)
	}
	var flips []summarycache.Flip
	flips = c.Add("key", flips)
	if len(flips) == 0 {
		t.Fatal("counting filter through facade broken")
	}
	if summarycache.OptimalK(16<<20, 1<<20) != 11 {
		t.Fatal("math through facade broken")
	}
	if p := summarycache.FalsePositiveRate(8<<20, 1<<20, 4); p < 0.02 || p > 0.03 {
		t.Fatalf("fp rate through facade: %v", p)
	}
}

func TestPublicAPICacheAndRecommend(t *testing.T) {
	cache, err := summarycache.NewCache(summarycache.CacheConfig{Capacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	cache.Put(summarycache.CacheEntry{Key: "k", Size: 100})
	if !cache.Contains("k") {
		t.Fatal("cache through facade broken")
	}
	rec, err := summarycache.Recommend(8<<30, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.SummaryBytesPerPeer != 2<<20 {
		t.Fatalf("recommendation through facade: %+v", rec)
	}
}

func TestPublicAPIWire(t *testing.T) {
	m := summarycache.ICPMessage{}
	_ = m
	if _, err := summarycache.ParseICP([]byte{1, 2}); err == nil {
		t.Fatal("parse accepted garbage")
	}
}
