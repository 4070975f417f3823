package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"summarycache/internal/bloom"
	"summarycache/internal/icp"
	"summarycache/internal/testutil/leakcheck"
)

// TestNodeCloseConcurrent races Close against every caller of the
// publisher goroutine — PublishNow, AddPeer, threshold trips from
// HandleInsert and a 1 ms PublishInterval. Every call must return, every
// Close must report the first one's result, no goroutine may outlive the
// node, and PublishNow and AddPeer after Close must return at once.
func TestNodeCloseConcurrent(t *testing.T) {
	leakcheck.Install(t)
	peer := sinkAddr(t)
	for i := 0; i < 20; i++ {
		n, err := NewNode(NodeConfig{
			ListenAddr:      "127.0.0.1:0",
			Directory:       bloom.DirectoryConfig{ExpectedDocs: 100, MinPending: 1},
			HasDocument:     func(string) bool { return false },
			PublishInterval: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.AddPeer(peer); err != nil {
			t.Fatal(err)
		}
		closeErrs := make(chan error, 2)
		calls := []func(){
			func() { closeErrs <- n.Close() },
			func() { closeErrs <- n.Close() },
			n.PublishNow,
			func() { _ = n.AddPeer(peer) }, // icp.ErrClosed once Close has won
			func() {
				for j := 0; j < 100; j++ {
					n.HandleInsert(fmt.Sprintf("http://close/%d/%d", i, j))
				}
			},
		}
		var wg sync.WaitGroup
		for _, call := range calls {
			wg.Add(1)
			go func() {
				defer wg.Done()
				call()
			}()
		}
		returns(t, "the calls racing Close", wg.Wait)
		first, second := <-closeErrs, <-closeErrs
		if second != first {
			t.Fatalf("concurrent Close calls returned %v and %v", first, second)
		}
		if err := n.Close(); err != first {
			t.Fatalf("repeated Close returned %v, want the first result %v", err, first)
		}
		returns(t, "PublishNow after Close", n.PublishNow)
		returns(t, "AddPeer after Close", func() {
			if err := n.AddPeer(peer); !errors.Is(err, icp.ErrClosed) {
				t.Errorf("AddPeer after Close: %v, want icp.ErrClosed", err)
			}
		})
	}
}

// returns fails t unless f returns within five seconds.
func returns(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not return within 5s", what)
	}
}

// TestNodeCloseWithoutTimer covers the PublishInterval=0 path (a publisher
// with no ticker) under the same concurrent shutdown.
func TestNodeCloseWithoutTimer(t *testing.T) {
	n, err := NewNode(NodeConfig{
		ListenAddr:  "127.0.0.1:0",
		Directory:   bloom.DirectoryConfig{ExpectedDocs: 100},
		HasDocument: func(string) bool { return false },
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.Close()
		}()
	}
	wg.Wait()
	if err := n.Close(); err != nil {
		t.Errorf("repeated Close: %v", err)
	}
}

// TestMarkPeerDownUp exercises the fetch verdicts the HTTP layer reports:
// a failed fetch at the threshold takes the peer down, which drops the
// replica (no more nominations) and flips health; a delivered one brings
// it up, restoring health and re-shipping full state so the peer's
// replica of us reconverges.
func TestMarkPeerDownUp(t *testing.T) {
	mk := func() *Node {
		n, err := NewNode(NodeConfig{
			ListenAddr:       "127.0.0.1:0",
			Directory:        bloom.DirectoryConfig{ExpectedDocs: 200, UpdateThreshold: 0.01},
			HasDocument:      func(string) bool { return true },
			BreakerThreshold: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		return n
	}
	a, b := mk(), mk()
	if err := a.AddPeer(b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer(a.Addr()); err != nil {
		t.Fatal(err)
	}
	const doc = "http://example.test/doc"
	b.HandleInsert(doc)
	b.PublishNow()
	waitFor(t, "b's summary to reach a", func() bool {
		return len(a.Candidates(doc)) == 1
	})

	bID := b.Addr().String()
	a.FetchDone(b.Addr(), false)
	if got := a.Candidates(doc); len(got) != 0 {
		t.Fatalf("candidates after a failed fetch = %v, want none", got)
	}
	if up, down := a.Health(); len(down) != 1 || down[0] != bID {
		t.Fatalf("health after down: up=%v down=%v", up, down)
	}

	a.FetchDone(b.Addr(), true)
	if up, _ := a.Health(); len(up) != 1 {
		t.Fatal("health not restored by a delivered fetch")
	}
	// Coming up re-ships A's full state: B's replica of A must converge
	// to A's own filter.
	waitFor(t, "b's replica of a to converge", func() bool {
		snap, ok := b.ReplicaSnapshot(a.Addr())
		if !ok {
			return false
		}
		want := a.Directory().FilterSnapshot()
		return string(snap) == string(want)
	})
}
