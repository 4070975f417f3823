package icp

import (
	"context"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"summarycache/internal/bloom"
	"summarycache/internal/hashing"
	"summarycache/internal/tracing"
)

// echoResponder answers queries with HIT for URLs in its set, MISS
// otherwise.
func echoResponder(t *testing.T, hits map[string]bool) *Conn {
	t.Helper()
	var c *Conn
	var err error
	c, err = Listen("127.0.0.1:0", func(from *net.UDPAddr, m Message) {
		if m.Op != OpQuery {
			return
		}
		op := OpMiss
		if hits[m.URL] {
			op = OpHit
		}
		if err := c.Send(from, NewReply(op, m.ReqNum, m.URL)); err != nil {
			t.Logf("reply failed: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(func() { c.Close() })
	return c
}

func client(t *testing.T) *Conn {
	t.Helper()
	c, err := Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(func() { c.Close() })
	return c
}

func TestQueryHitMiss(t *testing.T) {
	srv := echoResponder(t, map[string]bool{"http://hit/": true})
	cli := client(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()

	m, err := cli.Query(ctx, srv.Addr(), "http://hit/")
	if err != nil {
		t.Fatal(err)
	}
	if m.Op != OpHit || m.URL != "http://hit/" {
		t.Fatalf("got %+v, want HIT", m)
	}
	m, err = cli.Query(ctx, srv.Addr(), "http://miss/")
	if err != nil {
		t.Fatal(err)
	}
	if m.Op != OpMiss {
		t.Fatalf("got %+v, want MISS", m)
	}
	st := cli.Stats()
	if st.Sent != 2 || st.Received != 2 {
		t.Fatalf("client stats = %+v, want 2 sent / 2 received", st)
	}
}

func TestQueryTimeout(t *testing.T) {
	// A peer that never answers: queries must fail with ctx expiry.
	silent, err := Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	silent.Start()
	defer silent.Close()
	cli := client(t)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := cli.Query(ctx, silent.Addr(), "http://x/"); err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

func TestQueryAll(t *testing.T) {
	miss1 := echoResponder(t, nil)
	miss2 := echoResponder(t, nil)
	hitSrv := echoResponder(t, map[string]bool{"http://doc/": true})
	cli := client(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()

	_, from, req1, err := cli.QueryAllFunc(ctx, 2*time.Second, []*net.UDPAddr{miss1.Addr(), hitSrv.Addr(), miss2.Addr()}, "http://doc/", 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if from == nil || from.Port != hitSrv.Addr().Port {
		t.Fatalf("from=%v, want a hit from %v", from, hitSrv.Addr())
	}

	_, from, req2, err := cli.QueryAllFunc(ctx, 2*time.Second, []*net.UDPAddr{miss1.Addr(), miss2.Addr()}, "http://doc/", 0, nil, nil)
	if err != nil || from != nil {
		t.Fatalf("from=%v err=%v, want miss", from, err)
	}
	if req2 == req1 {
		t.Fatalf("consecutive fan-outs share RequestNumber %d", req1)
	}

	// No peers: trivially a miss.
	_, from, _, err = cli.QueryAllFunc(ctx, 2*time.Second, nil, "http://doc/", 0, nil, nil)
	if err != nil || from != nil {
		t.Fatal("empty peer set should be a clean miss")
	}
}

func TestQueryAllTimeoutsAreMisses(t *testing.T) {
	silent, err := Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	silent.Start()
	defer silent.Close()
	cli := client(t)
	_, from, _, err := cli.QueryAllFunc(context.Background(), 50*time.Millisecond, []*net.UDPAddr{silent.Addr()}, "http://x/", 0, nil, nil)
	if err != nil {
		t.Fatalf("timeout should be a miss, got error %v", err)
	}
	if from != nil {
		t.Fatal("silent peer produced a hit")
	}
}

// TestRequestNumberWraparound crosses the 2^32 request-number boundary
// and checks that query bookkeeping (reply routing, pending-table cleanup)
// and trace-ID correlation both survive: reqNum 0 is an ordinary value,
// not a sentinel.
func TestRequestNumberWraparound(t *testing.T) {
	hitSrv := echoResponder(t, map[string]bool{"http://doc/": true})
	missSrv := echoResponder(t, nil)
	cli := client(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// Position the counter so the six fan-outs below carry reqNums
	// MaxUint32-2, MaxUint32-1, MaxUint32, 0, 1, 2 — straddling the wrap.
	cli.SeedReqNum(math.MaxUint32 - 3)

	querier := cli.Addr().String()
	seenReq := make(map[uint32]bool)
	seenID := make(map[tracing.ID]bool)
	for i := 0; i < 6; i++ {
		_, from, reqNum, err := cli.QueryAllFunc(ctx, 5*time.Second,
			[]*net.UDPAddr{missSrv.Addr(), hitSrv.Addr()}, "http://doc/", 0, nil, nil)
		if err != nil {
			t.Fatalf("fan-out %d: %v", i, err)
		}
		if from == nil || from.Port != hitSrv.Addr().Port {
			t.Fatalf("fan-out %d: from=%v, want a hit from %v",
				i, from, hitSrv.Addr())
		}
		if seenReq[reqNum] {
			t.Fatalf("fan-out %d: reqNum %d reused within the window", i, reqNum)
		}
		seenReq[reqNum] = true
		id := tracing.IDFromICP(querier, reqNum)
		if seenID[id] {
			t.Fatalf("fan-out %d: trace ID %v collides across the wrap", i, id)
		}
		seenID[id] = true
	}
	if !seenReq[0] || !seenReq[math.MaxUint32] {
		t.Fatalf("window %v did not straddle the wrap", seenReq)
	}

	// Every fan-out unregistered itself: a wrapped reqNum must not leak
	// or clobber pending-table entries.
	cli.mu.Lock()
	leaked := len(cli.pending)
	cli.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("pending table leaked %d entries across the wrap", leaked)
	}
}

func TestDirUpdateDelivery(t *testing.T) {
	var mu sync.Mutex
	received := bloom.MustNewFilter(1<<12, hashing.DefaultSpec)
	gotUpdate := make(chan struct{}, 16)
	srv, err := Listen("127.0.0.1:0", func(from *net.UDPAddr, m Message) {
		if m.Op != OpDirUpdate {
			return
		}
		mu.Lock()
		if err := m.Update.ApplyTo(received); err != nil {
			t.Errorf("apply: %v", err)
		}
		mu.Unlock()
		gotUpdate <- struct{}{}
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Close()
	cli := client(t)

	// Build a local directory and ship its journal in chunks.
	counting := bloom.MustNewCountingFilter(1<<12, 4, hashing.DefaultSpec)
	var journal []bloom.Flip
	urls := []string{"http://a/", "http://b/", "http://c/"}
	for _, u := range urls {
		journal = counting.Add(u, journal)
	}
	msgs := SplitUpdate(1, hashing.DefaultSpec, 1<<12, journal, 5)
	for _, m := range msgs {
		if err := cli.Send(srv.Addr(), m); err != nil {
			t.Fatal(err)
		}
	}
	for range msgs {
		select {
		case <-gotUpdate:
		case <-time.After(2 * time.Second):
			t.Fatal("update not delivered")
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, u := range urls {
		if !received.Test(u) {
			t.Fatalf("receiver filter missing %s", u)
		}
	}
}

func TestGarbageDatagramCounted(t *testing.T) {
	srv := echoResponder(t, nil)
	raw, err := net.Dial("udp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write([]byte("not icp")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if srv.Stats().Dropped >= 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("garbage not counted as dropped: %+v", srv.Stats())
}

func TestClosedConnOperations(t *testing.T) {
	c, err := Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	addr := c.Addr()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal("double close must be a no-op")
	}
	ctx := context.Background()
	if _, err := c.Query(ctx, addr, "http://x/"); err != ErrClosed {
		t.Fatalf("query on closed conn: err = %v, want ErrClosed", err)
	}
}

func TestCloseFailsInflightQueries(t *testing.T) {
	silent, err := Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	silent.Start()
	defer silent.Close()
	cli, err := Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	cli.Start()
	errCh := make(chan error, 1)
	go func() {
		_, err := cli.Query(context.Background(), silent.Addr(), "http://x/")
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the query register
	cli.Close()
	select {
	case err := <-errCh:
		if err != ErrClosed {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight query not released by Close")
	}
}

func TestConcurrentQueries(t *testing.T) {
	srv := echoResponder(t, map[string]bool{"http://hot/": true})
	cli := client(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			url := "http://miss/"
			wantHit := i%2 == 0
			if wantHit {
				url = "http://hot/"
			}
			m, err := cli.Query(ctx, srv.Addr(), url)
			if err != nil {
				errs <- err
				return
			}
			if wantHit != (m.Op == OpHit) {
				t.Errorf("url %s: op %v", url, m.Op)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestDropReasonsCountedApart sends one hostile datagram, one late reply
// and one reply from an address the query did not ask: each moves only
// its own counter, and Dropped is their sum.
func TestDropReasonsCountedApart(t *testing.T) {
	cli := client(t)
	outsider, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { outsider.Close() })
	send := func(b []byte) {
		t.Helper()
		if _, err := outsider.WriteToUDP(b, cli.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	// The read loop counts a datagram as received before it classifies
	// it, and an unasked reply is counted on the querier's goroutine, so
	// expect waits for both counts to arrive before it reads the rest.
	expect := func(what string, received uint64, want Stats) {
		t.Helper()
		dropped := want.Undecodable + want.LateReplies + want.Unasked
		for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if st := cli.Stats(); st.Received >= received && st.Dropped >= dropped {
				break
			}
		}
		got := cli.Stats()
		if got.Received != received || got.Undecodable != want.Undecodable || got.LateReplies != want.LateReplies ||
			got.Unasked != want.Unasked || got.Dropped != want.Undecodable+want.LateReplies+want.Unasked {
			t.Fatalf("after %s: stats %+v, want %d received and drops %+v", what, got, received, want)
		}
	}

	send([]byte("not icp"))
	expect("a hostile datagram", 1, Stats{Undecodable: 1})

	send(mustWire(t, NewReply(OpHit, cli.NextReqNum(), "http://doc/"))) // no query waits on this number
	expect("a late reply", 2, Stats{Undecodable: 1, LateReplies: 1})

	// The asked peer has the outsider answer the live request number first,
	// and answers only once the client has read the forgery: datagrams
	// from two sockets can reach the client in either order, and a MISS
	// read first would resolve the query and make the forgery late.
	asked := rawResponder(t, func(q Message) []byte {
		before := cli.Stats().Received
		_, _ = outsider.WriteToUDP(mustWire(t, NewReply(OpHit, q.ReqNum, q.URL)), cli.Addr()) // a lost forgery fails the count below
		for deadline := time.Now().Add(2 * time.Second); cli.Stats().Received == before && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		return mustWire(t, NewReply(OpMiss, q.ReqNum, q.URL))
	})
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	if _, from, _, err := cli.QueryAllFunc(ctx, 500*time.Millisecond, []*net.UDPAddr{asked}, "http://doc/", 0, nil, nil); err != nil || from != nil {
		t.Fatalf("from=%v err=%v, want no hit: only the asked peer counts, and it missed", from, err)
	}
	expect("a reply from an unasked address", 4, Stats{Undecodable: 1, LateReplies: 1, Unasked: 1})
}

// TestQueryOnlyFromAskedPeer: Query takes its answer only from the address
// it asked. A second socket answers the live request number first with a
// HIT; it is counted as unasked, and the asked peer's MISS is the answer.
// Otherwise a stray or spoofed datagram could answer a liveness probe.
func TestQueryOnlyFromAskedPeer(t *testing.T) {
	cli := client(t)
	outsider, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { outsider.Close() })
	// As in TestDropReasonsCountedApart, the asked peer answers only once
	// the client has read the forgery.
	asked := rawResponder(t, func(q Message) []byte {
		before := cli.Stats().Received
		_, _ = outsider.WriteToUDP(mustWire(t, NewReply(OpHit, q.ReqNum, q.URL)), cli.Addr()) // a lost forgery fails the count below
		for deadline := time.Now().Add(2 * time.Second); cli.Stats().Received == before && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		return mustWire(t, NewReply(OpMiss, q.ReqNum, q.URL))
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	m, err := cli.Query(ctx, asked, "http://doc/")
	if err != nil || m.Op != OpMiss {
		t.Fatalf("op %v err %v, want the asked peer's MISS", m.Op, err)
	}
	if st := cli.Stats(); st.Received != 2 || st.Unasked != 1 || st.LateReplies != 0 {
		t.Fatalf("stats %+v, want 2 received and the forgery counted as unasked", st)
	}
}

// TestSenderMapBounded: the read loop names each sender with one
// *net.UDPAddr, handed to every Handler call for that sender, and keeps at
// most maxSenders of them. maxSenders+8 sockets, one after another, each
// send two queries: both reach the handler with the same pointer, naming
// the socket, and the map never holds more than its bound.
func TestSenderMapBounded(t *testing.T) {
	type call struct {
		from    *net.UDPAddr
		senders int // the map's size during the call
	}
	calls := make(chan call, 2)
	var srv *Conn
	srv, err := Listen("127.0.0.1:0", func(from *net.UDPAddr, m Message) {
		calls <- call{from, len(srv.senders)} // the handler runs on the read loop, which owns the map
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(func() { srv.Close() })
	query := mustWire(t, NewQuery(1, "http://sender/doc"))
	peak, emptied := 0, false
	for i := 0; i < maxSenders+8; i++ {
		pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pc.Close() }) // held open, so no later socket reuses its port
		var got [2]call
		for j := range got {
			if _, err := pc.WriteToUDP(query, srv.Addr()); err != nil {
				t.Fatal(err)
			}
			select {
			case got[j] = <-calls:
			case <-time.After(2 * time.Second):
				t.Fatalf("socket %d's query %d never reached the handler", i, j)
			}
		}
		if got[0].from != got[1].from || got[0].from.String() != pc.LocalAddr().String() {
			t.Fatalf("socket %v was handed %p (%v) and %p (%v), want one address naming it",
				pc.LocalAddr(), got[0].from, got[0].from, got[1].from, got[1].from)
		}
		for _, c := range got {
			if c.senders > maxSenders {
				t.Fatalf("sender map holds %d addresses, bound %d", c.senders, maxSenders)
			}
			emptied = emptied || c.senders < peak
			peak = max(peak, c.senders)
		}
	}
	if peak != maxSenders || !emptied {
		t.Fatalf("sender map peaked at %d (emptied: %v), want it to reach %d and be emptied", peak, emptied, maxSenders)
	}
}
