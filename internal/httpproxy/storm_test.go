package httpproxy

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"summarycache/internal/bloom"
	"summarycache/internal/obs"
	"summarycache/internal/origin"
	"summarycache/internal/persist"
	"summarycache/internal/testutil/leakcheck"
)

// stormConfig is a proxy whose small cache evicts constantly under a storm,
// persisting into dir with a checkpoint every snapshotEvery.
func stormConfig(dir string, snapshotEvery time.Duration) Config {
	return Config{
		Mode:       ModeSCICP,
		CacheBytes: 48 << 10,
		Summary:    bloom.DirectoryConfig{ExpectedDocs: 500, UpdateThreshold: 0.01},
		Persist: &persist.Config{
			Dir:              dir,
			Fsync:            persist.FsyncNever,
			SnapshotInterval: snapshotEvery,
		},
	}
}

// storm drives workers concurrent clients, ops requests each, over docs
// overlapping 1–4 KB documents of org, with purges mixed in. It returns once
// every request is answered: a response is written only after its document
// was stored and reported, and Purge returns after its removal was
// reported, so the proxy is quiesced.
func storm(t *testing.T, p *Proxy, org *origin.Server, seed int64, workers, ops, docs int) {
	t.Helper()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*int64(workers) + int64(g)))
			for i := 0; i < ops; i++ {
				d := rng.Intn(docs)
				u := origin.DocURL(org.URL(), fmt.Sprintf("storm/doc%d", d), int64(1024+(d%4)*1024), 0)
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
}

// directoryMismatch describes how p's directory differs from one rebuilt
// from its cache's keys, counter for counter, or reports a counter
// underflow; it returns "" when neither holds.
func directoryMismatch(t *testing.T, p *Proxy, cfg bloom.DirectoryConfig) string {
	t.Helper()
	keys := p.cache.Keys()
	rebuilt, err := bloom.NewDirectory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		rebuilt.Insert(k)
	}
	if live := p.node.Directory(); !live.Equal(rebuilt) {
		return fmt.Sprintf("directory (%d docs) differs from one rebuilt from the cache's %d keys", live.Docs(), len(keys))
	}
	if u := p.Stats().Node.DirectoryUnderflows; u != 0 {
		return fmt.Sprintf("directory underflows = %d, want 0", u)
	}
	return ""
}

// TestDirectoryMatchesCacheUnderStorm drives 8 concurrent clients over
// overlapping keys into one proxy whose small cache evicts constantly,
// with purges mixed in and the snapshot loop checkpointing throughout.
// After the storm the directory summary must equal, counter for counter,
// one rebuilt from the cache's contents, with no counter underflow; and
// after a crash (no final checkpoint) the restarted proxy may claim only
// documents the cache held at the crash, and its directory must again
// equal one rebuilt from its cache.
func TestDirectoryMatchesCacheUnderStorm(t *testing.T) {
	leakcheck.Install(t)
	org, err := origin.Start(origin.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { org.Close() })
	cfg := stormConfig(t.TempDir(), 20*time.Millisecond)
	p, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	storm(t, p, org, 0, 8, 250, 60)
	if st := p.Stats(); st.Misses == 0 || p.cache.Counters().EvictedCapacity == 0 {
		t.Fatalf("storm neither missed nor evicted (misses %d): the check is vacuous", st.Misses)
	}
	if msg := directoryMismatch(t, p, cfg.Summary); msg != "" {
		t.Fatal(msg)
	}

	atCrash := make(map[string]int64)
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
	if msg := directoryMismatch(t, p2, cfg.Summary); msg != "" {
		t.Fatal(msg)
	}
}

// TestRestartAfterCrashMidCheckpoint crashes a proxy round after round,
// each time right after a storm that a 1 ms snapshot loop checkpointed
// throughout, so the last snapshot was captured while traffic raced it.
// Every restart must recover a directory equal, counter for counter, to one
// rebuilt from the cache it recovered, with no counter underflow.
func TestRestartAfterCrashMidCheckpoint(t *testing.T) {
	leakcheck.Install(t)
	org, err := origin.Start(origin.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { org.Close() })
	cfg := stormConfig(t.TempDir(), time.Millisecond)
	p, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() }) // the proxy of the last restart
	const rounds = 30
	var failed []string
	for round := 1; round <= rounds; round++ {
		storm(t, p, org, int64(round), 8, 40, 60)
		if err := p.CloseAbrupt(); err != nil {
			t.Fatal(err)
		}
		if p, err = Start(cfg); err != nil {
			t.Fatal(err)
		}
		if !p.Recovery().Recovered {
			t.Fatalf("restart %d recovered nothing: %+v", round, p.Recovery())
		}
		if msg := directoryMismatch(t, p, cfg.Summary); msg != "" {
			failed = append(failed, fmt.Sprintf("restart %d: %s", round, msg))
		}
	}
	if len(failed) > 0 {
		t.Fatalf("%d of %d restarts recovered a directory that is not the cache's:\n%s",
			len(failed), rounds, strings.Join(failed, "\n"))
	}
}

// TestRecoveredEntriesCountsReadmitted: a restart into a quarter of the
// capacity readmits only the documents that fit, and the recovered-entries
// gauge and the mesh report count those, not the ones the snapshot held.
func TestRecoveredEntriesCountsReadmitted(t *testing.T) {
	leakcheck.Install(t)
	org, err := origin.Start(origin.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { org.Close() })
	cfg := stormConfig(t.TempDir(), 0)
	cfg.CacheBytes = 64 << 10
	p, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const docs = 24 // 2 KB each: 48 KB fits the first boot's cache
	for i := 0; i < docs; i++ {
		u := origin.DocURL(org.URL(), fmt.Sprintf("shrink/doc%d", i), 2048, 0)
		resp, err := http.Get(p.URL() + ProxyPath + "?url=" + url.QueryEscape(u))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.CacheBytes /= 4
	cfg.Metrics = obs.NewRegistry()
	p2, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p2.Close() })
	kept := p2.CacheLen()
	if p2.Recovery().Entries != docs || kept == 0 || kept >= docs {
		t.Fatalf("snapshot held %d docs, cache readmitted %d: want all %d held and some dropped",
			p2.Recovery().Entries, kept, docs)
	}
	want := fmt.Sprintf("summarycache_persist_recovered_entries{proxy=%q} %d\n", p2.ln.Addr().String(), kept)
	if body := scrape(t, cfg.Metrics); !strings.Contains(body, want) {
		t.Fatalf("scrape lacks %q:\n%s", want, body)
	}
	if got := p2.MeshReport().Local.RecoveredEntries; got != kept {
		t.Fatalf("mesh report recovered entries = %d, want %d", got, kept)
	}
	if msg := directoryMismatch(t, p2, cfg.Summary); msg != "" {
		t.Fatal(msg)
	}
}

// TestDirectoryMatchesKeysUnderChurn walks a small-cache proxy through
// every way a document enters or leaves its cache, one phase at a time:
// origin inserts, capacity evictions, purges, Replaced re-stores, simple
// sharing's remote-hit stores and a warm restart, whose restored documents
// are then evicted. After each phase its directory, fed only the
// signatures its cache entries carry, must equal one rebuilt from the
// cache's keys through the key-taking Insert, so a missing or wrong
// signature on any entry fails the phase that exposes it.
func TestDirectoryMatchesKeysUnderChurn(t *testing.T) {
	leakcheck.Install(t)
	org, err := origin.Start(origin.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { org.Close() })
	const docSize = 1 << 10
	cfg := Config{
		Mode:       ModeSCICP,
		CacheBytes: 16 * docSize,
		Summary:    bloom.DirectoryConfig{ExpectedDocs: 200, UpdateThreshold: 0.01},
		Persist:    &persist.Config{Dir: t.TempDir(), Fsync: persist.FsyncNever},
	}
	p, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sib, err := Start(Config{Mode: ModeSCICP, CacheBytes: 1 << 20, Summary: cfg.Summary})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sib.Close() })
	if err := p.AddPeer(sib.ICPAddr(), sib.URL()); err != nil {
		t.Fatal(err)
	}
	if err := sib.AddPeer(p.ICPAddr(), p.URL()); err != nil {
		t.Fatal(err)
	}
	doc := func(name string) string { return origin.DocURL(org.URL(), "churn/"+name, docSize, 0) }
	get := func(p *Proxy, u string) {
		t.Helper()
		resp, err := http.Get(p.URL() + ProxyPath + "?url=" + url.QueryEscape(u))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", u, resp.StatusCode)
		}
	}
	check := func(phase string, moved bool) {
		t.Helper()
		if !moved {
			t.Fatalf("%s: the phase did not happen", phase)
		}
		if msg := directoryMismatch(t, p, cfg.Summary); msg != "" {
			t.Fatalf("after %s: %s", phase, msg)
		}
	}

	for i := 0; i < 8; i++ {
		get(p, doc(fmt.Sprintf("a%d", i)))
	}
	check("inserts", p.CacheLen() == 8 && p.cache.Counters().EvictedCapacity == 0)

	for i := 8; i < 32; i++ {
		get(p, doc(fmt.Sprintf("a%d", i)))
	}
	check("capacity evictions", p.cache.Counters().EvictedCapacity == 16)

	purged := 0
	for _, k := range p.cache.Keys()[:3] {
		if p.Purge(k) {
			purged++
		}
	}
	check("purges", purged == 3)

	updated := p.cache.Counters().Updated
	keys := p.cache.Keys()
	for _, k := range keys {
		p.storeBody(nil, k, signature(p, k), 7, make([]byte, docSize))
	}
	p.Purge(keys[0]) // a re-stored entry's signature leaves with it
	check("Replaced re-stores", p.cache.Counters().Updated-updated == uint64(len(keys)))

	remote := p.Stats().RemoteHits
	var shared []string
	for i := 0; i < 20; i++ {
		u := doc(fmt.Sprintf("s%d", i))
		get(sib, u)
		shared = append(shared, u)
	}
	sib.FlushSummary()
	for _, u := range shared {
		waitForCandidate(t, p, u)
		get(p, u) // a remote hit, stored here under simple sharing
	}
	check("remote-hit stores", p.Stats().RemoteHits-remote == 20 && p.CacheLen() == 16)

	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if p, err = Start(cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	check("warm restart", p.Recovery().Recovered && p.CacheLen() == 16)
	evicted := p.cache.Counters().EvictedCapacity
	for i := 0; i < 16; i++ {
		get(p, doc(fmt.Sprintf("b%d", i)))
	}
	check("evicting the restored documents", p.cache.Counters().EvictedCapacity-evicted == 16)
}
