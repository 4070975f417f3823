package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"summarycache/internal/icp"
	"summarycache/internal/lru"
)

// sinkAddr returns the address of a UDP socket that nobody reads: a peer
// that accepts updates and never answers.
func sinkAddr(t *testing.T) *net.UDPAddr {
	t.Helper()
	pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.Close() })
	return pc.LocalAddr().(*net.UDPAddr)
}

// gatedSocket holds every transmission while its gate is shut, and
// records the request number of each DIRUPDATE in the order it left.
type gatedSocket struct {
	icp.PacketConn

	mu   sync.Mutex
	open chan struct{} // closed while the gate is open

	wmu     sync.Mutex // one write at a time, so reqNums is the wire order
	reqNums []uint32
}

func (g *gatedSocket) WriteToUDP(b []byte, to *net.UDPAddr) (int, error) {
	g.mu.Lock()
	open := g.open
	g.mu.Unlock()
	<-open
	g.wmu.Lock()
	defer g.wmu.Unlock()
	if m, err := icp.Parse(b); err == nil && m.Op == icp.OpDirUpdate {
		g.reqNums = append(g.reqNums, m.ReqNum)
	}
	return g.PacketConn.WriteToUDP(b, to)
}

// setGate opens or shuts the gate; it must alternate.
func (g *gatedSocket) setGate(open bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if open {
		close(g.open)
	} else {
		g.open = make(chan struct{})
	}
}

func (g *gatedSocket) sent() []uint32 {
	g.wmu.Lock()
	defer g.wmu.Unlock()
	return append([]uint32(nil), g.reqNums...)
}

// TestGatedSocketNeverBlocksPuts wires a small cache to a node the way
// httpproxy does (the change hook feeds HandleInsert/HandleEvict under the
// cache's writer lock), shuts the node's socket, and drives Puts, capacity
// evictions and purges from 8 goroutines with every change tripping the
// publication threshold. No cache write may wait for the socket, the
// directory must still equal the cache key for key, and once the gate
// opens and PublishNow returns the peer's replica must be bit-exact, with
// every DIRUPDATE on the wire in increasing ReqNum order.
func TestGatedSocketNeverBlocksPuts(t *testing.T) {
	dirCfg := DirectoryConfig{ExpectedDocs: 500, UpdateThreshold: 0.01}
	gs := &gatedSocket{open: make(chan struct{})}
	close(gs.open)
	sender, err := NewNode(NodeConfig{
		ListenAddr:        "127.0.0.1:0",
		Directory:         dirCfg,
		HasDocument:       func(string) bool { return false },
		MinFlipsToPublish: 1,
		SocketWrapper: func(pc icp.PacketConn) icp.PacketConn {
			gs.PacketConn = pc
			return gs
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sender.Close() })
	receiver, err := NewNode(NodeConfig{
		ListenAddr:  "127.0.0.1:0",
		Directory:   dirCfg,
		HasDocument: func(string) bool { return false },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { receiver.Close() })
	if err := receiver.AddPeer(sender.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := sender.AddPeer(receiver.Addr()); err != nil {
		t.Fatal(err)
	}
	cache, err := lru.NewCache(lru.Config{
		Capacity: 48 << 10,
		OnChange: func(e lru.Entry, ev lru.Event) {
			switch ev {
			case lru.Inserted:
				sender.HandleInsert(e.Key)
			case lru.EvictCapacity, lru.EvictRemoved:
				sender.HandleEvict(e.Key)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	sentBefore := sender.Stats().UpdatesSent
	gs.setGate(false)
	var opened sync.Once
	open := func() { opened.Do(func() { gs.setGate(true) }) }
	t.Cleanup(open) // runs before the nodes close

	const (
		workers = 8
		puts    = 260 // per worker: 2,080 in all
		keys    = 40
	)
	key := func(i int) string { return fmt.Sprintf("http://gated/doc%d", i) }
	var slowest atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < puts; i++ {
				k := rng.Intn(keys)
				start := time.Now()
				cache.Put(lru.Entry{Key: key(k), Size: int64(1024 + k%4*1024)})
				if i%4 == 0 {
					cache.Remove(key(rng.Intn(keys)))
				}
				for d := int64(time.Since(start)); ; {
					cur := slowest.Load()
					if d <= cur || slowest.CompareAndSwap(cur, d) {
						break
					}
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		open() // let the blocked writers finish before failing
		<-done
		t.Fatal("cache writers still blocked after 10s with the socket gated shut")
	}
	if d := time.Duration(slowest.Load()); d > 2*time.Second {
		t.Fatalf("slowest Put took %v with the socket gated shut, want under 2s", d)
	}
	if cache.Counters().EvictedCapacity == 0 || cache.Counters().Removed == 0 {
		t.Fatalf("no evictions or purges (%+v): the check is vacuous", cache.Counters())
	}
	if sent := sender.Stats().UpdatesSent; sent != sentBefore || sender.Directory().PendingFlips() == 0 {
		t.Fatalf("updates sent %d → %d, pending flips %d: the gate never held a publication back",
			sentBefore, sent, sender.Directory().PendingFlips())
	}

	// directory == cache, key for key, while the publisher is still stuck.
	cached := cache.Keys()
	rebuilt, err := NewDirectory(dirCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range cached {
		rebuilt.Insert(k)
	}
	live := sender.Directory()
	if live.Docs() != len(cached) || !bytes.Equal(live.StateSnapshot(), rebuilt.StateSnapshot()) {
		t.Fatalf("directory (%d docs) differs from one rebuilt from the cache's %d keys", live.Docs(), len(cached))
	}
	if u := sender.Stats().DirectoryUnderflows; u != 0 {
		t.Fatalf("directory underflows = %d, want 0", u)
	}

	open()
	sender.PublishNow()
	waitFor(t, "the receiver to apply every update", func() bool {
		return receiver.Stats().UpdatesReceived == sender.Stats().UpdatesSent
	})
	replica, ok := receiver.ReplicaSnapshot(sender.Addr())
	if !ok || !bytes.Equal(replica, live.FilterSnapshot()) {
		t.Fatal("the receiver's replica differs from the sender's filter")
	}
	nums := gs.sent()
	for i := 1; i < len(nums); i++ {
		if nums[i] <= nums[i-1] {
			t.Fatalf("DIRUPDATE %d left with ReqNum %d after %d: out of publication order", i, nums[i], nums[i-1])
		}
	}
	if uint64(len(nums)) != sender.Stats().UpdatesSent {
		t.Fatalf("captured %d DIRUPDATEs, node counted %d", len(nums), sender.Stats().UpdatesSent)
	}
}

// slowSocket delays every transmission and refuses those to one address,
// so a publication call that returned before its datagrams were written
// would find the counters unmoved.
type slowSocket struct {
	icp.PacketConn
	refuse *net.UDPAddr
}

func (s slowSocket) WriteToUDP(b []byte, to *net.UDPAddr) (int, error) {
	time.Sleep(2 * time.Millisecond)
	if to.String() == s.refuse.String() {
		return 0, errors.New("refused")
	}
	return s.PacketConn.WriteToUDP(b, to)
}

// TestPublicationCallsReturnAfterSending pins the flush barrier that the
// benchmark and the e2e tests rely on (FlushSummary, then wait until
// updates received ≥ updates sent): PublishNow, AddPeer, a peer's revival
// by a delivered fetch (FetchDone) and ResyncPeers return only once every datagram of their publication is
// written and counted, and a refused send is AddPeer's error.
func TestPublicationCallsReturnAfterSending(t *testing.T) {
	const maxFlips = 16
	refused := sinkAddr(t)
	n, err := NewNode(NodeConfig{
		ListenAddr:        "127.0.0.1:0",
		Directory:         DirectoryConfig{ExpectedDocs: 1000},
		HasDocument:       func(string) bool { return false },
		MaxFlipsPerUpdate: maxFlips,
		MinFlipsToPublish: 1 << 30, // only PublishNow ships deltas
		SocketWrapper: func(pc icp.PacketConn) icp.PacketConn {
			return slowSocket{PacketConn: pc, refuse: refused}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	for i := 0; i < 20; i++ {
		n.HandleInsert(fmt.Sprintf("http://barrier/doc%d", i))
	}
	messages := func(flips int) uint64 { return uint64((flips + maxFlips - 1) / maxFlips) }
	full := messages(len(n.Directory().SnapshotFlips()))
	if full < 2 {
		t.Fatalf("full state fits %d message(s); want several", full)
	}
	a, b := sinkAddr(t), sinkAddr(t)
	check := func(what string, call func() error, want uint64) {
		t.Helper()
		before := n.Stats()
		if err := call(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		after := n.Stats()
		if got, udp := after.UpdatesSent-before.UpdatesSent, after.UDP.Sent-before.UDP.Sent; got != want || udp != want {
			t.Fatalf("%s returned with %d updates and %d datagrams counted, want %d", what, got, udp, want)
		}
	}
	check("AddPeer(a)", func() error { return n.AddPeer(a) }, full)
	check("AddPeer(b)", func() error { return n.AddPeer(b) }, full)
	for i := 0; i < DefaultBreakerThreshold; i++ {
		n.FetchDone(a, false) // takes a down; going down sends nothing
	}
	check("FetchDone(a, true)", func() error { n.FetchDone(a, true); return nil }, full)
	check("ResyncPeers", n.ResyncPeers, 2*full)
	check("PublishNow", func() error { n.PublishNow(); return nil }, 2*messages(n.Directory().PendingFlips()))

	before := n.Stats().UDP.SendErrors
	if err := n.AddPeer(refused); err == nil {
		t.Fatal("AddPeer to a refusing address returned no error")
	}
	if n.Stats().UDP.SendErrors != before+1 {
		t.Fatal("the refused send was not counted")
	}
}
