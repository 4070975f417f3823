package httpproxy

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"path/filepath"
	"testing"
	"time"

	"summarycache/internal/bloom"
	"summarycache/internal/faultnet"
	"summarycache/internal/origin"
	"summarycache/internal/persist"
	"summarycache/internal/testutil/leakcheck"
)

// TestChaosWarmRestartSCICP is the warm-restart soak: a 2-proxy SC-ICP
// mesh runs under injected faults, one proxy is killed mid-soak without
// a shutdown checkpoint (the in-process kill -9), and a replacement is
// booted on the same persist directory. The replacement must (a) serve
// the original working set from its recovered cache at least as well as
// the cold boot did, (b) restore a directory that exactly matches the
// recovered cache, and (c) reconverge bit-exactly with its sibling in
// both directions after re-peering — all with zero client-visible
// errors.
func TestChaosWarmRestartSCICP(t *testing.T) {
	leakcheck.Install(t)
	org, err := origin.Start(origin.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { org.Close() })

	base := chaosScenario()
	persistDir := filepath.Join(t.TempDir(), "nodeA")
	mkConfig := func(inj *faultnet.Injector, withPersist bool) Config {
		cfg := Config{
			Mode: ModeSCICP, CacheBytes: 32 << 20,
			Summary:          bloom.DirectoryConfig{ExpectedDocs: 2000, UpdateThreshold: 0.01},
			QueryTimeout:     300 * time.Millisecond,
			FetchTimeout:     2 * time.Second,
			FetchRetries:     8,
			FetchBackoff:     2 * time.Millisecond,
			BreakerThreshold: 10,
			BreakerCooldown:  200 * time.Millisecond,
			Faults:           inj,
		}
		if withPersist {
			cfg.Persist = &persist.Config{
				Dir:              persistDir,
				Fsync:            persist.FsyncInterval,
				FsyncInterval:    20 * time.Millisecond,
				SnapshotInterval: 50 * time.Millisecond,
			}
		}
		return cfg
	}

	injA := faultnet.New(base.Fork(1))
	injB := faultnet.New(base.Fork(2))
	a, err := Start(mkConfig(injA, true))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Start(mkConfig(injB, false))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	if err := a.AddPeer(b.ICPAddr(), b.URL()); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer(a.ICPAddr(), a.URL()); err != nil {
		t.Fatal(err)
	}
	oldAAddr := a.ICPAddr()

	const (
		docs    = 25
		docSize = 2048
	)
	get := func(p *Proxy, r int) {
		t.Helper()
		path := fmt.Sprintf("restart/doc%d", r%docs)
		u := origin.DocURL(org.URL(), path, docSize, 0)
		resp, err := http.Get(p.URL() + ProxyPath + "?url=" + url.QueryEscape(u))
		if err != nil {
			t.Fatalf("request %d: client-visible transport error: %v", r, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("request %d: body read: %v", r, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: client-visible status %d: %s", r, resp.StatusCode, body)
		}
		if len(body) != docSize {
			t.Fatalf("request %d: body %d bytes, want %d", r, len(body), docSize)
		}
	}

	// Cold soak: every document through A twice (miss then hit), with B
	// pulling a share so both summaries carry state.
	for r := 0; r < 2*docs; r++ {
		get(a, r)
	}
	for r := 0; r < docs; r += 3 {
		get(b, r)
	}
	coldHits := a.Stats().LocalHits
	if coldHits == 0 {
		t.Fatal("cold soak produced no local hits; the warm comparison is vacuous")
	}

	// Let the periodic snapshot loop capture the populated cache, then
	// keep mutating so the journal tail has records newer than the last
	// checkpoint: a purge (an evict record) and a re-fetch (an insert).
	time.Sleep(120 * time.Millisecond)
	purged := origin.DocURL(org.URL(), "restart/doc0", docSize, 0)
	if !a.Purge(purged) {
		t.Fatal("purge found nothing; doc0 should be cached")
	}
	get(a, 0)
	if a.PersistStats().Snapshots < 2 {
		t.Fatalf("snapshot loop never ticked: %+v", a.PersistStats())
	}

	// The crash: no final checkpoint. Recovery must reassemble the state
	// from the last periodic snapshot plus the journal tail.
	if err := a.CloseAbrupt(); err != nil {
		t.Fatal(err)
	}

	a2, err := Start(mkConfig(nil, true))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a2.Close() })
	rec := a2.Recovery()
	if !rec.Recovered || rec.Entries == 0 {
		t.Fatalf("nothing recovered: %+v", rec)
	}
	// The restored directory must agree exactly with the restored cache —
	// the invariant every summary the node now advertises rests on.
	if got, want := int(a2.node.Directory().Docs()), a2.CacheLen(); got != want {
		t.Fatalf("restored directory claims %d docs, cache holds %d (recovery %+v)", got, want, rec)
	}

	// Re-peer both directions (A2's ports are new) and let the mesh
	// settle with faults off.
	injB.SetEnabled(false)
	b.RemovePeer(oldAAddr)
	if err := a2.AddPeer(b.ICPAddr(), b.URL()); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer(a2.ICPAddr(), a2.URL()); err != nil {
		t.Fatal(err)
	}
	if err := a2.Resync(); err != nil {
		t.Fatal(err)
	}
	if err := b.Resync(); err != nil {
		t.Fatal(err)
	}

	// Warm soak: the same working set again. The recovered cache must do
	// at least as well as the cold boot did on identical traffic.
	for r := 0; r < 2*docs; r++ {
		get(a2, r)
	}
	warmHits := a2.Stats().LocalHits
	if warmHits < coldHits {
		t.Fatalf("warm restart served fewer local hits than the cold boot: warm %d < cold %d (recovery %+v)",
			warmHits, coldHits, rec)
	}

	// Bit-exact reconvergence, both directions: each side's replica must
	// equal the other side's authoritative filter once updates drain.
	a2.FlushSummary()
	b.FlushSummary()
	deadline := time.Now().Add(10 * time.Second)
	converged := func(p, q *Proxy) bool {
		snap, ok := p.node.ReplicaSnapshot(q.ICPAddr())
		return ok && bytes.Equal(snap, q.node.Directory().FilterSnapshot())
	}
	for !converged(a2, b) || !converged(b, a2) {
		if time.Now().After(deadline) {
			t.Fatalf("mesh never reconverged bit-exactly after the restart (a2->b %v, b->a2 %v)",
				converged(a2, b), converged(b, a2))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosWarmRestartCleanShutdown: a clean Close checkpoints the
// complete final state, so the next boot recovers everything without
// replaying a single journal record beyond the overlap window — and a
// second boot generation after that still works (generation chaining).
func TestChaosWarmRestartCleanShutdown(t *testing.T) {
	leakcheck.Install(t)
	org, err := origin.Start(origin.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { org.Close() })
	dir := t.TempDir()
	cfg := Config{
		Mode: ModeSCICP, CacheBytes: 8 << 20,
		Summary: bloom.DirectoryConfig{ExpectedDocs: 500, UpdateThreshold: 0.01},
		Persist: &persist.Config{Dir: dir, Fsync: persist.FsyncNever},
	}
	p, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const docs = 10
	for i := 0; i < docs; i++ {
		u := origin.DocURL(org.URL(), fmt.Sprintf("clean/doc%d", i), 512, 0)
		resp, err := http.Get(p.URL() + ProxyPath + "?url=" + url.QueryEscape(u))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	for boot := 0; boot < 2; boot++ {
		p2, err := Start(cfg)
		if err != nil {
			t.Fatalf("boot %d: %v", boot, err)
		}
		rec := p2.Recovery()
		if !rec.Recovered || rec.Entries != docs {
			t.Fatalf("boot %d recovered %+v, want %d entries", boot, rec, docs)
		}
		if got := p2.CacheLen(); got != docs {
			t.Fatalf("boot %d cache holds %d docs, want %d", boot, got, docs)
		}
		if got, want := int(p2.node.Directory().Docs()), docs; got != want {
			t.Fatalf("boot %d directory claims %d docs, want %d", boot, got, want)
		}
		if err := p2.Close(); err != nil {
			t.Fatalf("boot %d close: %v", boot, err)
		}
	}
}
