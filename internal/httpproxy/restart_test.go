package httpproxy

import (
	"bytes"
	"fmt"
	"net"
	"path/filepath"
	"testing"
	"time"

	"summarycache/internal/bloom"
	"summarycache/internal/origin"
	"summarycache/internal/persist"
	"summarycache/internal/testutil/leakcheck"
)

// converged reports whether p's replica of q is bit-exact with q's own
// summary.
func converged(p, q *Proxy) bool {
	snap, ok := p.node.ReplicaSnapshot(q.ICPAddr())
	return ok && bytes.Equal(snap, q.node.Directory().FilterSnapshot())
}

// TestRestartInsideProberWindow: A restarts on the same ICP address and
// persist directory while B, which runs no prober, never notices. While A
// is down B inserts, evicts and publishes, so whatever A knew of B is
// stale. A's AddPeer alone, with nothing called on B, must leave exact
// replicas in both directions: A's of B comes from B's full state, asked
// for by A's bootstrap, and B's of A from that bootstrap. With exact
// replicas A's first lookups after the restart see no false hit (B's
// purged documents) and no false miss (B's new ones); the false-miss audit
// runs on every lookup.
func TestRestartInsideProberWindow(t *testing.T) {
	leakcheck.Install(t)
	org, err := origin.Start(origin.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { org.Close() })
	m := &mesh{origin: org}

	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	icpAddr := pc.LocalAddr().String()
	pc.Close()
	cfg := Config{
		Mode: ModeSCICP, CacheBytes: 8 << 20,
		Summary:      bloom.DirectoryConfig{ExpectedDocs: 2000, UpdateThreshold: 0.01},
		QueryTimeout: 200 * time.Millisecond,
	}
	aCfg := cfg
	aCfg.ICPAddr = icpAddr
	aCfg.FalseMissAuditEvery = 1
	aCfg.Persist = &persist.Config{Dir: filepath.Join(t.TempDir(), "a"), Fsync: persist.FsyncNever}
	a, err := Start(aCfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Start(cfg)
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

	const docs = 10
	doc := func(owner string, i int) string { return m.docURL(fmt.Sprintf("window/%s%d", owner, i), 512) }
	for i := 0; i < docs; i++ {
		m.fetch(t, a, doc("a", i))
		m.fetch(t, b, doc("b", i))
	}
	a.FlushSummary()
	b.FlushSummary()
	waitForCandidate(t, a, doc("b", 0))
	waitForCandidate(t, b, doc("a", 0))
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := a.CloseAbrupt(); err != nil {
		t.Fatal(err)
	}

	// A is down: B evicts half its documents, caches as many new ones and
	// publishes, all to nobody.
	var purged, added []string
	for i := 0; i < docs/2; i++ {
		purged = append(purged, doc("b", i))
		if !b.Purge(doc("b", i)) {
			t.Fatalf("B holds no %s", doc("b", i))
		}
		added = append(added, doc("b", docs+i))
		m.fetch(t, b, doc("b", docs+i))
	}
	b.FlushSummary()

	a2, err := Start(aCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a2.Close() })
	if got := a2.CacheLen(); got != docs {
		t.Fatalf("A recovered %d documents, want %d", got, docs)
	}
	if err := a2.AddPeer(b.ICPAddr(), b.URL()); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); !converged(b, a2); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("B's replica of A never took A's bootstrap")
		}
	}
	waitQuiesce(t, []*Proxy{a2, b})

	before := a2.Stats().Node
	for _, u := range append(purged, added...) {
		m.fetch(t, a2, u)
	}
	after := a2.Stats().Node
	falseHits, falseMisses := after.FalseHits-before.FalseHits, after.FalseMisses-before.FalseMisses
	t.Logf("first %d lookups after the restart: %d false hits, %d false misses",
		len(purged)+len(added), falseHits, falseMisses)
	if falseHits != 0 || falseMisses != 0 {
		t.Errorf("first %d lookups after the restart: %d false hits, %d false misses, want none from an exact replica",
			len(purged)+len(added), falseHits, falseMisses)
	}

	a2.FlushSummary()
	b.FlushSummary()
	for deadline := time.Now().Add(5 * time.Second); !converged(a2, b) || !converged(b, a2); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("replicas not exact after the restart (A's of B %v, B's of A %v)",
				converged(a2, b), converged(b, a2))
		}
	}
}
