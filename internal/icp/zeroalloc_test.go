package icp

import (
	"context"
	"errors"
	"net"
	"net/netip"
	"testing"
	"time"

	"summarycache/internal/bloom"
	"summarycache/internal/hashing"
)

// someFlips builds a deterministic flip batch for encode/decode guards.
func someFlips(n int) []bloom.Flip {
	flips := make([]bloom.Flip, n)
	for i := range flips {
		flips[i] = bloom.Flip{Index: uint32(i * 37), Set: i%3 != 0}
	}
	return flips
}

// The encode path must not allocate once the destination buffer exists:
// Conn.Send appends into pooled buffers, so a
// hidden allocation here would silently tax every datagram.
func TestAppendZeroAlloc(t *testing.T) {
	m := NewDirUpdate(7, hashing.DefaultSpec, 1<<20, someFlips(360))
	buf := make([]byte, 0, MaxDatagram)
	if n := testing.AllocsPerRun(100, func() {
		var err error
		buf, err = m.Append(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Append allocated %v times per run, want 0", n)
	}

	q := NewQuery(9, "http://example.com/some/doc")
	if n := testing.AllocsPerRun(100, func() {
		var err error
		buf, err = q.Append(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("query Append allocated %v times per run, want 0", n)
	}
}

// A Decoder must decode DIRUPDATE datagrams — the mesh's volume driver —
// with zero steady-state allocations, reusing its flip scratch across
// messages.
func TestDecoderDirUpdateZeroAlloc(t *testing.T) {
	m := NewDirUpdate(7, hashing.DefaultSpec, 1<<20, someFlips(360))
	wire, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var dec Decoder
	if _, err := dec.Decode(wire); err != nil { // first call may grow scratch
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		got, err := dec.Decode(wire)
		if err != nil {
			t.Fatal(err)
		}
		if got.Update.Len() != 360 {
			t.Fatal("bad decode")
		}
	}); n != 0 {
		t.Fatalf("Decode allocated %v times per run, want 0", n)
	}
}

// URL-carrying opcodes pay exactly one allocation — the URL string itself,
// which handlers retain past the datagram's lifetime by design.
func TestDecoderURLSingleAlloc(t *testing.T) {
	wire, err := NewQuery(3, "http://example.com/doc").MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var dec Decoder
	if n := testing.AllocsPerRun(100, func() {
		if _, err := dec.Decode(wire); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Fatalf("URL decode allocated %v times per run, want <= 1", n)
	}
}

// discardPacketConn satisfies PacketConn with no real socket, so the send
// path's allocation behavior is measured without syscall noise.
type discardPacketConn struct{}

func (discardPacketConn) ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error) {
	return 0, netip.AddrPort{}, errors.New("not readable")
}
func (discardPacketConn) WriteToUDPAddrPort(b []byte, addr netip.AddrPort) (int, error) {
	return len(b), nil
}
func (discardPacketConn) Close() error        { return nil }
func (discardPacketConn) LocalAddr() net.Addr { return &net.UDPAddr{} }

// stubConn builds a Conn over a stub socket without binding anything; the
// send path needs no running loops.
func stubConn() *Conn {
	return &Conn{
		pc:      discardPacketConn{},
		pending: make(map[uint32]*waiter),
		done:    make(chan struct{}),
	}
}

// The synchronous UDP send path must be allocation-free steady-state: the
// encode buffer comes from the pool and returns to it after the write.
func TestSendZeroAlloc(t *testing.T) {
	c := stubConn()
	to := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 4827}
	m := NewDirUpdate(7, hashing.DefaultSpec, 1<<20, someFlips(360))
	if err := c.Send(to, m); err != nil { // prime the pool
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := c.Send(to, m); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Send allocated %v times per run, want 0", n)
	}
	if got := c.Stats().Sent; got == 0 {
		t.Fatal("sends not counted")
	}
}

// TestQueryAllAllocBudget pins what one fan-out over loopback allocates.
// The flagged peer answers MISS and the other a plain HIT, so every run
// waits for both replies: the HIT is served only after the earlier peer's
// MISS. The reply channel, the timer and the encoding buffers are reused,
// receive addresses are netip.AddrPort values and a reply naming the asked
// URL shares the asker's string, so only the query URLs remain.
// AllocsPerRun counts every goroutine, the responders' read loops included.
func TestQueryAllAllocBudget(t *testing.T) {
	const url = "http://example.com/doc"
	miss := echoResponder(t, nil)
	hit := echoResponder(t, map[string]bool{url: true})
	cli := client(t)
	peers := []*net.UDPAddr{miss.Addr(), hit.Addr()}
	ctx := context.Background()
	query := func() {
		win, from, _, err := cli.QueryAllFunc(ctx, 2*time.Second, peers, url, FlagHitObj, nil, nil)
		if err != nil || from != peers[1] || win.Op != OpHit {
			t.Fatalf("%v from %v (%v), want the HIT from %v", win.Op, from, err, peers[1])
		}
	}
	query() // the first fan-out makes the reply channel and timer
	// Left per fan-out, two allocations: each responder's read loop
	// decodes its query's URL string for its handler.
	const budget = 2
	if n := testing.AllocsPerRun(200, query); n != budget {
		t.Fatalf("QueryAllFunc allocated %v times per fan-out, want %d", n, budget)
	}
}

// TestQueryAllHitObjAllocBudget pins what one fan-out that the flagged
// holder answers with a HIT_OBJ allocates over loopback, given a
// destination for the object: the object lands in it, so only the query
// URL the responder's read loop decodes for its handler remains.
func TestQueryAllHitObjAllocBudget(t *testing.T) {
	const url = "http://example.com/doc"
	body := make([]byte, 4<<10)
	holder := hitObjResponder(t, url, body)
	cli := client(t)
	peers := []*net.UDPAddr{holder.Addr()}
	obj := make([]byte, 0, MaxHitObjLen)
	ctx := context.Background()
	query := func() {
		win, from, _, err := cli.QueryAllFunc(ctx, 2*time.Second, peers, url, FlagHitObj, obj, nil)
		if err != nil || from != peers[0] || win.Op != OpHitObj || len(win.Object) != len(body) || &win.Object[0] != &obj[:1][0] {
			t.Fatalf("%v of %d bytes from %v (%v), want the holder's object in the destination", win.Op, len(win.Object), from, err)
		}
	}
	query() // the first fan-out makes the reply channel and timer
	const budget = 1
	if n := testing.AllocsPerRun(200, query); n != budget {
		t.Fatalf("QueryAllFunc allocated %v times per inline fan-out, want %d", n, budget)
	}
}
