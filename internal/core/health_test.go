package core

import (
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
		return len(a.Candidates(url)) == 1
	})

	stop := a.StartHealthChecks(HealthConfig{
		Interval:         50 * time.Millisecond,
		FailureThreshold: 2,
	})
	defer stop()

	// Kill b: a must mark it down and drop its summary.
	bAddr := b.Addr()
	b.Close()
	waitFor(t, "failure detection", func() bool {
		return a.PeerState(bAddr) == PeerDown
	})
	waitFor(t, "summary drop", func() bool {
		return len(a.Candidates(url)) == 0
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
	// A restarted node registers its peers again; until then it answers
	// none of a's probes.
	if err := b2.AddPeer(a.Addr()); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "recovery detection", func() bool {
		return a.PeerState(bAddr) == PeerUp
	})
	// On recovery, a re-ships its full state to b2, so later deltas land on
	// a replica that starts correct.
	muA.Lock()
	docsA["http://a-doc/"] = true
	muA.Unlock()
	a.HandleInsert("http://a-doc/")
	a.PublishNow()
	waitFor(t, "reinitialization", func() bool {
		return len(b2.Candidates("http://a-doc/")) == 1
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
		FailureThreshold: 2,
	})
	defer stop()
	down := func() bool {
		_, down := a.Health()
		return len(down) == 1
	}
	waitFor(t, "the dead peer marked down", down)

	a.RemovePeer(bAddr)
	if err := a.AddPeer(bAddr); err != nil {
		t.Fatal(err)
	}
	if up, _ := a.Health(); len(up) != 1 && !down() {
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
	if cfg.Interval <= 0 || cfg.FailureThreshold <= 0 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

// TestRevivedPeerFoundDownAgain: a peer the prober took down and a
// delivered fetch brought back up is judged afresh, so a peer that is
// still dead is found down again.
func TestRevivedPeerFoundDownAgain(t *testing.T) {
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
		FailureThreshold: 2,
	})
	defer stop()
	waitFor(t, "the dead peer marked down", func() bool { return a.PeerState(bAddr) == PeerDown })

	a.FetchDone(bAddr, true)
	if got := a.PeerState(bAddr); got != PeerUp {
		t.Fatalf("after a delivered fetch the peer is %v, want up", got)
	}
	deadline := time.Now().Add(500 * time.Millisecond)
	for a.PeerState(bAddr) != PeerDown {
		if time.Now().After(deadline) {
			t.Fatal("the revived dead peer was not found down again within 500ms")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPeerStateMachine walks one peer through every liveness transition,
// from both evidence sources: fetch failures trip it at the threshold,
// a down peer admits exactly one probing fetch per cooldown, a failed
// probing fetch takes it back down and a delivered one brings it up;
// missed probes take it down, and a probe answer revives only a peer the
// prober took down. Every revival re-ships the full state.
func TestPeerStateMachine(t *testing.T) {
	const cooldown = 50 * time.Millisecond
	n, err := NewNode(NodeConfig{
		ListenAddr:       "127.0.0.1:0",
		HasDocument:      func(string) bool { return false },
		BreakerThreshold: 3,
		BreakerCooldown:  cooldown,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	n.StartHealthChecks(HealthConfig{Interval: time.Hour, FailureThreshold: 2})() // sets the probe threshold only
	addr := sinkAddr(t)
	if err := n.AddPeer(addr); err != nil {
		t.Fatal(err)
	}
	p := n.member(addr)

	steps := []struct {
		op    string // admit, refuse, ok, fail, wait, miss, answer, readd
		want  PeerState
		ships bool // the step re-shipped the full state
	}{
		{"admit", PeerUp, false},
		{"fail", PeerUp, false},
		{"fail", PeerUp, false},
		{"ok", PeerUp, false}, // restarts the run; not a recovery
		{"fail", PeerUp, false},
		{"fail", PeerUp, false},
		{"fail", PeerDown, false}, // the third consecutive failure trips
		{"refuse", PeerDown, false},
		{"wait", PeerDown, false},
		{"admit", PeerProbing, false}, // one probing fetch after the cooldown
		{"refuse", PeerProbing, false},
		{"fail", PeerDown, false}, // a failed probing fetch re-opens
		{"refuse", PeerDown, false},
		{"answer", PeerDown, false}, // fetch-down: an ICP answer does not revive
		{"wait", PeerDown, false},
		{"admit", PeerProbing, false},
		{"ok", PeerUp, true}, // a delivered probing fetch closes
		{"admit", PeerUp, false},
		{"miss", PeerUp, false},
		{"miss", PeerDown, false}, // FailureThreshold missed probes
		{"refuse", PeerDown, false},
		{"answer", PeerUp, true}, // prober-down: an answer revives
		{"miss", PeerUp, false},  // both counts restarted
		{"fail", PeerUp, false},
		{"fail", PeerUp, false},
		{"miss", PeerDown, false},
		{"wait", PeerDown, false},
		{"admit", PeerProbing, false},
		{"ok", PeerUp, true}, // a delivered fetch revives a prober-down peer
		{"fail", PeerUp, false},
		{"fail", PeerUp, false},
		{"fail", PeerDown, false},
		{"readd", PeerUp, true}, // AddPeer resets it
		{"fail", PeerUp, false},
	}
	for i, s := range steps {
		sent := n.Stats().UpdatesSent
		switch s.op {
		case "admit", "refuse":
			if got := n.AdmitFetch(addr); got != (s.op == "admit") {
				t.Fatalf("step %d: AdmitFetch = %v, want %s", i, got, s.op)
			}
		case "ok", "fail":
			n.FetchDone(addr, s.op == "ok")
		case "wait":
			time.Sleep(cooldown + 10*time.Millisecond)
		case "miss":
			n.observe(p, probeMissed)
		case "answer":
			n.observe(p, probeAnswered)
		case "readd":
			if err := n.AddPeer(addr); err != nil {
				t.Fatal(err)
			}
		}
		if got := n.PeerState(addr); got != s.want {
			t.Fatalf("step %d (%s): state %v, want %v", i, s.op, got, s.want)
		}
		if shipped := n.Stats().UpdatesSent > sent; shipped != s.ships {
			t.Fatalf("step %d (%s): re-shipped %v, want %v", i, s.op, shipped, s.ships)
		}
		if up, down := n.Health(); (len(up) == 1) != (s.want == PeerUp) || len(up)+len(down) != 1 {
			t.Fatalf("step %d (%s): health up=%v down=%v disagrees with %v", i, s.op, up, down, s.want)
		}
	}
	for _, s := range []PeerState{PeerUp, PeerDown, PeerProbing, PeerState(7)} {
		if s.String() == "" {
			t.Errorf("empty string for state %d", int(s))
		}
	}
}
