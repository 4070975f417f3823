package httpproxy

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"testing"
	"time"

	"summarycache/internal/bloom"
	"summarycache/internal/origin"
	"summarycache/internal/persist"
	"summarycache/internal/testutil/leakcheck"
)

// TestDirectoryMatchesCacheUnderStorm drives 8 concurrent clients over
// overlapping keys into one proxy whose small cache evicts constantly,
// with purges mixed in and the snapshot loop checkpointing throughout.
// After the storm the directory summary must equal, key for key, one
// rebuilt from the cache's contents, with no counter underflow; and after
// a crash (no final checkpoint) the restarted proxy may claim only
// documents the cache held at the crash.
func TestDirectoryMatchesCacheUnderStorm(t *testing.T) {
	leakcheck.Install(t)
	org, err := origin.Start(origin.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { org.Close() })
	cfg := Config{
		Mode:       ModeSCICP,
		CacheBytes: 48 << 10,
		Summary:    bloom.DirectoryConfig{ExpectedDocs: 500, UpdateThreshold: 0.01},
		Persist: &persist.Config{
			Dir:              t.TempDir(),
			Fsync:            persist.FsyncNever,
			SnapshotInterval: 20 * time.Millisecond,
		},
	}
	p, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const (
		workers = 8
		ops     = 250
		docs    = 60
	)
	docURL := func(i int) string {
		return origin.DocURL(org.URL(), fmt.Sprintf("storm/doc%d", i), int64(1024+(i%4)*1024), 0)
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < ops; i++ {
				u := docURL(rng.Intn(docs))
				if rng.Intn(8) == 0 {
					p.Purge(u)
					continue
				}
				resp, err := http.Get(p.URL() + ProxyPath + "?url=" + url.QueryEscape(u))
				if err != nil {
					t.Errorf("worker %d: %v", g, err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("worker %d: status %d", g, resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	// Quiesced: a response is written only after its document was stored
	// and reported, and Purge returns after its removal was reported.
	if st := p.Stats(); st.Misses == 0 || p.cache.Counters().EvictedCapacity == 0 {
		t.Fatalf("storm neither missed nor evicted (misses %d): the check is vacuous", st.Misses)
	}

	keys := p.cache.Keys()
	rebuilt, err := bloom.NewDirectory(cfg.Summary)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		rebuilt.Insert(k)
	}
	live := p.node.Directory()
	if live.Docs() != len(keys) || !bytes.Equal(live.StateSnapshot(), rebuilt.StateSnapshot()) {
		t.Fatalf("directory (%d docs) differs from one rebuilt from the cache's %d keys", live.Docs(), len(keys))
	}
	if u := p.Stats().Node.DirectoryUnderflows; u != 0 {
		t.Fatalf("directory underflows = %d, want 0", u)
	}

	atCrash := make(map[string]int64, len(keys))
	for _, e := range p.cache.Entries() {
		atCrash[e.Key] = e.Version
	}
	if err := p.CloseAbrupt(); err != nil {
		t.Fatal(err)
	}
	p2, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p2.Close() })
	if !p2.Recovery().Recovered {
		t.Fatalf("nothing recovered: %+v", p2.Recovery())
	}
	for _, e := range p2.cache.Entries() {
		if v, ok := atCrash[e.Key]; !ok || v != e.Version {
			t.Fatalf("recovery claims %q (version %d), which the cache did not hold at the crash", e.Key, e.Version)
		}
	}
}
