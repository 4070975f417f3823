package core

import (
	"net"
	"sync"
	"testing"
	"time"
)

// newHealthNode builds a node with fast health probing for tests.
func newHealthNode(t *testing.T, docs map[string]bool, mu *sync.Mutex) *Node {
	t.Helper()
	n, err := NewNode(NodeConfig{
		ListenAddr: "127.0.0.1:0",
		Directory:  DirectoryConfig{ExpectedDocs: 200},
		HasDocument: func(u string) bool {
			mu.Lock()
			defer mu.Unlock()
			return docs[u]
		},
		MinFlipsToPublish: 1,
		QueryTimeout:      time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestHealthDetectsFailureAndRecovery(t *testing.T) {
	var muA, muB sync.Mutex
	docsA, docsB := map[string]bool{}, map[string]bool{}
	a := newHealthNode(t, docsA, &muA)
	b := newHealthNode(t, docsB, &muB)
	if err := a.AddPeer(b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer(a.Addr()); err != nil {
		t.Fatal(err)
	}

	// b caches a doc; a learns about it.
	const url = "http://health/doc"
	muB.Lock()
	docsB[url] = true
	muB.Unlock()
	b.HandleInsert(url)
	b.PublishNow()
	waitFor(t, "replication", func() bool {
		return len(a.PeerSummaries().Candidates(url)) == 1
	})

	var mu sync.Mutex
	events := []bool{}
	stop := a.StartHealthChecks(HealthConfig{
		Interval:         50 * time.Millisecond,
		Timeout:          40 * time.Millisecond,
		FailureThreshold: 2,
		OnChange: func(_ *net.UDPAddr, up bool) {
			mu.Lock()
			events = append(events, up)
			mu.Unlock()
		},
	})
	defer stop()

	// Kill b: a must mark it down and drop its summary.
	bAddr := b.Addr()
	b.Close()
	waitFor(t, "failure detection", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(events) >= 1 && !events[0]
	})
	waitFor(t, "summary drop", func() bool {
		return len(a.PeerSummaries().Candidates(url)) == 0
	})

	// Restart a node on the same UDP address ("recovery").
	b2, err := NewNode(NodeConfig{
		ListenAddr: bAddr.String(),
		Directory:  DirectoryConfig{ExpectedDocs: 200},
		HasDocument: func(string) bool {
			return false
		},
		MinFlipsToPublish: 1,
	})
	if err != nil {
		t.Skipf("could not rebind %v: %v", bAddr, err)
	}
	defer b2.Close()

	waitFor(t, "recovery detection", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(events) >= 2 && events[len(events)-1]
	})
	// On recovery, a re-ships its full state to b2: b2's replica of a gets
	// initialized even though b2 never called AddPeer.
	muA.Lock()
	docsA["http://a-doc/"] = true
	muA.Unlock()
	a.HandleInsert("http://a-doc/")
	a.PublishNow()
	waitFor(t, "reinitialization", func() bool {
		return len(b2.PeerSummaries().Candidates("http://a-doc/")) == 1
	})
}

// TestRemovedPeerForgetsProbeState: a peer the prober marked down, then
// removed and re-added while still dead, is presumed up by AddPeer and found
// down again. Its probe verdict left with it, so the prober judges it
// afresh.
func TestRemovedPeerForgetsProbeState(t *testing.T) {
	var mu sync.Mutex
	a := newHealthNode(t, map[string]bool{}, &mu)
	b := newHealthNode(t, map[string]bool{}, &mu)
	bAddr := b.Addr()
	if err := a.AddPeer(bAddr); err != nil {
		t.Fatal(err)
	}
	b.Close()
	stop := a.StartHealthChecks(HealthConfig{
		Interval:         20 * time.Millisecond,
		Timeout:          10 * time.Millisecond,
		FailureThreshold: 2,
	})
	defer stop()
	down := func() bool {
		_, down := a.Health().Snapshot()
		return len(down) == 1
	}
	waitFor(t, "the dead peer marked down", down)

	a.RemovePeer(bAddr)
	if err := a.AddPeer(bAddr); err != nil {
		t.Fatal(err)
	}
	if a.Health().UpCount() != 1 && !down() {
		t.Fatal("re-added peer is neither up nor already found down")
	}
	waitFor(t, "the re-added dead peer marked down again", down)
}

func TestHealthStopIdempotent(t *testing.T) {
	var mu sync.Mutex
	n := newHealthNode(t, map[string]bool{}, &mu)
	stop := n.StartHealthChecks(HealthConfig{Interval: 20 * time.Millisecond})
	stop()
	stop() // must not panic or deadlock
}

func TestHealthConfigDefaults(t *testing.T) {
	cfg := HealthConfig{}
	cfg.applyDefaults()
	if cfg.Interval <= 0 || cfg.Timeout <= 0 || cfg.FailureThreshold <= 0 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if cfg.Timeout >= cfg.Interval {
		t.Fatalf("timeout %v should be below interval %v", cfg.Timeout, cfg.Interval)
	}
}
