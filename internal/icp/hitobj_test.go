package icp

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"

	"summarycache/internal/faultnet"
)

// mustHitObj builds a HIT_OBJ reply, failing the test when it cannot carry
// body.
func mustHitObj(tb testing.TB, reqNum uint32, url string, body []byte, version int64) Message {
	tb.Helper()
	m, ok := NewHitObj(reqNum, url, body, version)
	if !ok {
		tb.Fatalf("NewHitObj refused %d bytes at version %d", len(body), version)
	}
	return m
}

// hitObjSizeAt is the offset of a well-formed HIT_OBJ's object-size field.
func hitObjSizeAt(b []byte) int { return HeaderLen + bytes.IndexByte(b[HeaderLen:], 0) + 1 }

// setLen rewrites the header's message length so that a tampered payload
// reaches the HIT_OBJ checks rather than failing the length check.
func setLen(b []byte) []byte {
	binary.BigEndian.PutUint16(b[2:4], uint16(len(b)))
	return b
}

// hitObjTampers turn a well-formed HIT_OBJ datagram into hostile ones, each
// with a consistent header length, that both decoders must reject.
var hitObjTampers = []func([]byte) []byte{
	func(b []byte) []byte { // size field claims one byte more than present
		at := hitObjSizeAt(b)
		binary.BigEndian.PutUint16(b[at:], binary.BigEndian.Uint16(b[at:])+1)
		return b
	},
	func(b []byte) []byte { // size field claims one byte less than present
		at := hitObjSizeAt(b)
		binary.BigEndian.PutUint16(b[at:], binary.BigEndian.Uint16(b[at:])-1)
		return b
	},
	func(b []byte) []byte { // size field cut off
		return setLen(b[:hitObjSizeAt(b)+1])
	},
	func(b []byte) []byte { // no NUL after the URL
		at := hitObjSizeAt(b)
		b[at-1] = 'x'
		return setLen(b[:at])
	},
	func(b []byte) []byte { // consistent, but over MaxHitObjLen
		at := hitObjSizeAt(b)
		obj := make([]byte, MaxHitObjLen-at-hitObjSizeLen+1)
		b = binary.BigEndian.AppendUint16(b[:at], uint16(len(obj)))
		return setLen(append(b, obj...))
	},
}

func TestHitObjRoundTrip(t *testing.T) {
	body := []byte("<html>inline</html>")
	m := mustHitObj(t, 5, "http://a/doc", body, 1<<32-1)
	buf, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Payload: URL, NUL, 16-bit object size, object.
	if want := HeaderLen + len(m.URL) + 1 + 2 + len(body); len(buf) != want || m.EncodedLen() != want {
		t.Fatalf("encoded %d bytes (EncodedLen %d), want %d", len(buf), m.EncodedLen(), want)
	}
	var dec Decoder
	for name, decode := range map[string]func([]byte) (Message, error){"Parse": Parse, "Decoder": dec.Decode} {
		wire := append([]byte(nil), buf...)
		got, err := decode(wire)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Op != OpHitObj || got.URL != m.URL || got.OptionData != 1<<32-1 || !bytes.Equal(got.Object, body) {
			t.Fatalf("%s: round trip mismatch: %+v", name, got)
		}
		// The object is owned: reusing the receive buffer leaves it intact.
		clear(wire)
		if !bytes.Equal(got.Object, body) {
			t.Fatalf("%s: decoded object aliases the datagram", name)
		}
	}
}

func TestNewHitObjLimits(t *testing.T) {
	const url = "http://a/doc"
	fit := MaxHitObjLen - HeaderLen - len(url) - 1 - hitObjSizeLen
	if m, ok := NewHitObj(1, url, make([]byte, fit), 0); !ok || m.EncodedLen() != MaxHitObjLen {
		t.Fatalf("a reply of exactly MaxHitObjLen was refused (len %d)", m.EncodedLen())
	}
	if _, ok := NewHitObj(1, url, make([]byte, fit+1), 0); ok {
		t.Fatal("a reply one byte over MaxHitObjLen was accepted")
	}
	for _, v := range []int64{-1, 1 << 32} {
		if _, ok := NewHitObj(1, url, nil, v); ok {
			t.Fatalf("version %d does not fit OptionData but was accepted", v)
		}
	}
	over := Message{Op: OpHitObj, Version: Version, URL: url, Object: make([]byte, fit+1)}
	if _, err := over.MarshalBinary(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("encoding an over-limit HIT_OBJ: err = %v, want ErrTooLarge", err)
	}
}

func TestHitObjHostileRejected(t *testing.T) {
	for i, tamper := range hitObjTampers {
		wire := tamper(mustWire(t, mustHitObj(t, 3, "http://a/doc", []byte("payload"), 1)))
		if _, err := Parse(wire); err == nil {
			t.Errorf("tamper %d: Parse accepted %x", i, wire)
		}
		var dec Decoder
		if _, err := dec.Decode(wire); err == nil {
			t.Errorf("tamper %d: Decoder accepted %x", i, wire)
		}
	}
}

func TestAnswer(t *testing.T) {
	const url = "http://a/doc"
	small, big := []byte("small"), make([]byte, MaxHitObjLen)
	has := func(u string) bool { return u == url }
	read := func(body []byte) func(string) ([]byte, int64, bool) {
		return func(u string) ([]byte, int64, bool) { return body, 9, u == url }
	}
	flagged := NewQuery(1, url)
	flagged.Options = FlagHitObj
	absent := flagged
	absent.URL = "http://a/other"
	for _, c := range []struct {
		name string
		q    Message
		read func(string) ([]byte, int64, bool)
		want Opcode
	}{
		{"flagged, small", flagged, read(small), OpHitObj},
		{"flagged, over the limit", flagged, read(big), OpHit},
		{"flagged, absent", absent, read(small), OpMiss},
		{"flagged, cache never inlines", flagged, nil, OpHit},
		{"unflagged", NewQuery(1, url), read(small), OpHit},
		{"unflagged, absent", NewQuery(1, "http://a/other"), read(small), OpMiss},
	} {
		r := Answer(c.q, has, c.read)
		if r.Op != c.want || r.ReqNum != c.q.ReqNum || r.URL != c.q.URL {
			t.Errorf("%s: reply %v for %q, want %v", c.name, r.Op, r.URL, c.want)
		}
		if c.want == OpHitObj && (!bytes.Equal(r.Object, small) || r.OptionData != 9) {
			t.Errorf("%s: HIT_OBJ carries %q at version %d", c.name, r.Object, r.OptionData)
		}
	}
}

// hitObjResponder answers flagged queries for url inline with body.
func hitObjResponder(t *testing.T, url string, body []byte) *Conn {
	t.Helper()
	var c *Conn
	c, err := Listen("127.0.0.1:0", func(from *net.UDPAddr, m Message) {
		if m.Op == OpQuery {
			reply := Answer(m, func(u string) bool { return u == url },
				func(u string) ([]byte, int64, bool) { return body, 4, u == url })
			if err := c.Send(from, reply); err != nil {
				t.Logf("reply failed: %v", err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(func() { c.Close() })
	return c
}

// TestQueryAllInlineObject: only the first peer is asked for the object;
// a plain HIT from another peer wins only once the first has no copy, or
// has not answered in time.
func TestQueryAllInlineObject(t *testing.T) {
	body := []byte("the document itself")
	holder := hitObjResponder(t, "http://doc/", body)
	other := hitObjResponder(t, "http://doc/", body)
	miss := echoResponder(t, nil)
	cli := client(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for _, c := range []struct {
		name  string
		peers []*net.UDPAddr
		opts  uint32
		want  Opcode
		from  *net.UDPAddr
	}{
		{"asked peer holds it", []*net.UDPAddr{holder.Addr(), miss.Addr()}, FlagHitObj, OpHitObj, holder.Addr()},
		{"asked peer has no copy", []*net.UDPAddr{miss.Addr(), holder.Addr()}, FlagHitObj, OpHit, holder.Addr()},
		{"unflagged", []*net.UDPAddr{holder.Addr(), miss.Addr()}, 0, OpHit, holder.Addr()},
	} {
		for i := 0; i < 20; i++ { // reply order varies; the outcome must not
			win, from, _, err := QueryAll(ctx, cli, 2*time.Second, c.peers, "http://doc/", c.opts, nil, nil)
			if err != nil || from == nil || from.Port != c.from.Port || win.Op != c.want {
				t.Fatalf("%s: %v from %v (%v), want %v from %v", c.name, win.Op, from, err, c.want, c.from)
			}
			if inline := win.Op == OpHitObj; inline != (bytes.Equal(win.Object, body) && win.OptionData == 4) {
				t.Fatalf("%s: winning reply = %+v", c.name, win)
			}
		}
	}
	// Two holders: only the flagged one can have sent the object.
	for i := 0; i < 20; i++ {
		win, from, _, err := QueryAll(ctx, cli, 2*time.Second, []*net.UDPAddr{holder.Addr(), other.Addr()}, "http://doc/", FlagHitObj, nil, nil)
		if err != nil || from == nil {
			t.Fatalf("two holders: from=%v err=%v, want a hit", from, err)
		}
		if want := OpHit; from.Port == holder.Addr().Port {
			want = OpHitObj
			if win.Op != want {
				t.Fatalf("two holders: %v from the flagged holder, want %v", win.Op, want)
			}
		} else if win.Op != want || win.Object != nil {
			t.Fatalf("two holders: %+v from the unflagged holder, want a plain HIT", win)
		}
	}
}

// TestQueryAllSilentFlaggedPeer: a flagged peer that never answers holds a
// later peer's HIT until the deadline; the HIT is served then.
func TestQueryAllSilentFlaggedPeer(t *testing.T) {
	silent, err := Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	silent.Start()
	t.Cleanup(func() { silent.Close() })
	holder := hitObjResponder(t, "http://doc/", []byte("x"))
	cli := client(t)
	const deadline = 200 * time.Millisecond
	start := time.Now()
	win, from, _, err := QueryAll(context.Background(), cli, deadline, []*net.UDPAddr{silent.Addr(), holder.Addr()}, "http://doc/", FlagHitObj, nil, nil)
	if err != nil || from == nil || from.Port != holder.Addr().Port || win.Op != OpHit {
		t.Fatalf("%v from %v (%v), want a HIT from %v", win.Op, from, err, holder.Addr())
	}
	if waited := time.Since(start); waited < deadline {
		t.Fatalf("the HIT was served after %v, before the silent flagged peer's deadline", waited)
	}
}

// delayedReply answers every query after delay with the reply op builds,
// carrying body when op is HIT_OBJ.
func delayedReply(t *testing.T, delay time.Duration, op Opcode, body []byte) *net.UDPAddr {
	return rawResponder(t, func(q Message) []byte {
		time.Sleep(delay)
		if op == OpHitObj {
			return mustWire(t, mustHitObj(t, q.ReqNum, q.URL, body, 1))
		}
		return mustWire(t, NewReply(op, q.ReqNum, q.URL))
	})
}

// TestQueryAllGraceForFlaggedPeer: a plain HIT from a later peer waits for
// the flagged peer's object until the deadline, and no longer.
func TestQueryAllGraceForFlaggedPeer(t *testing.T) {
	body := []byte("inline")
	for _, c := range []struct {
		name     string
		objDelay time.Duration
		deadline time.Duration
		want     Opcode
	}{
		// HIT at 40ms: the object at 300ms still wins.
		{"object before the deadline", 300 * time.Millisecond, 2 * time.Second, OpHitObj},
		// The object at 1s misses the 300ms deadline; the HIT is served then.
		{"object after the deadline", time.Second, 300 * time.Millisecond, OpHit},
	} {
		flagged := delayedReply(t, c.objDelay, OpHitObj, body)
		other := delayedReply(t, 40*time.Millisecond, OpHit, nil)
		cli := client(t)
		start := time.Now()
		win, from, _, err := QueryAll(context.Background(), cli, c.deadline, []*net.UDPAddr{flagged, other}, "http://doc/", FlagHitObj, nil, nil)
		took := time.Since(start)
		if err != nil || from == nil || win.Op != c.want {
			t.Fatalf("%s: %v from %v (%v), want %v", c.name, win.Op, from, err, c.want)
		}
		if took < min(c.objDelay, c.deadline) || took >= max(c.objDelay, c.deadline) {
			t.Fatalf("%s: resolved after %v, want the earlier of the object (%v) and the deadline (%v)", c.name, took, c.objDelay, c.deadline)
		}
	}
}

// faultyResponder answers every query with op through a socket whose
// outbound datagrams go through a faultnet schedule of out.
func faultyResponder(t *testing.T, op Opcode, out faultnet.Rates) *net.UDPAddr {
	t.Helper()
	inj := faultnet.New(faultnet.Scenario{Seed: 1, Outbound: out})
	var c *Conn
	c, err := ListenWith("127.0.0.1:0", ListenConfig{
		Handler: func(from *net.UDPAddr, m Message) {
			if m.Op == OpQuery {
				_ = c.Send(from, NewReply(op, m.ReqNum, m.URL))
			}
		},
		Wrap: func(pc PacketConn) PacketConn { return inj.WrapUDP(pc) },
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(func() { c.Close() })
	return c.Addr()
}

// TestQueryAllWaitsForEarlierPeers: the winner is the earliest peer that
// answers HIT. With the first peer's reply delayed by faultnet, the later
// peers' HITs arrive first but are not served before that reply, or before
// the deadline when the reply is lost.
func TestQueryAllWaitsForEarlierPeers(t *testing.T) {
	const delay, deadline = 100 * time.Millisecond, 400 * time.Millisecond
	delayed := faultnet.Rates{Delay: 1, DelayMin: delay, DelayMax: delay}
	for _, c := range []struct {
		name      string
		first     *net.UDPAddr
		wantFirst bool
		notBefore time.Duration
	}{
		{"delayed HIT", faultyResponder(t, OpHit, delayed), true, delay},
		{"delayed MISS", faultyResponder(t, OpMiss, delayed), false, delay},
		{"lost reply", faultyResponder(t, OpHit, faultnet.Rates{Drop: 1}), false, deadline},
	} {
		later := []*net.UDPAddr{echoResponder(t, map[string]bool{"http://doc/": true}).Addr(), echoResponder(t, map[string]bool{"http://doc/": true}).Addr()}
		peers := append([]*net.UDPAddr{c.first}, later...)
		var order []*net.UDPAddr
		start := time.Now()
		win, from, _, err := QueryAll(context.Background(), client(t), deadline, peers, "http://doc/", 0, nil,
			func(from *net.UDPAddr, _ Opcode) { order = append(order, from) })
		took := time.Since(start)
		want := later[0]
		if c.wantFirst {
			want = c.first
		}
		if err != nil || win.Op != OpHit || from == nil || from.Port != want.Port {
			t.Fatalf("%s: %v from %v (%v), want a HIT from %v", c.name, win.Op, from, err, want)
		}
		if took < c.notBefore {
			t.Fatalf("%s: served after %v, before %v", c.name, took, c.notBefore)
		}
		if len(order) == 0 || order[0].Port == c.first.Port {
			t.Fatalf("%s: replies arrived in order %v; the first peer's was not the late one", c.name, order)
		}
	}
}

// TestQueryAllForgedHitObj: an object is used only from the flagged peer.
// An unflagged peer's HIT_OBJ counts as a plain HIT, and a HIT_OBJ from an
// address that was not asked is ignored, even with the right request
// number and URL.
func TestQueryAllForgedHitObj(t *testing.T) {
	forged := []byte("poison")
	liar := rawResponder(t, func(q Message) []byte {
		return mustWire(t, mustHitObj(t, q.ReqNum, q.URL, forged, 1))
	})
	miss := echoResponder(t, nil)
	cli := client(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for i := 0; i < 20; i++ {
		win, from, _, err := QueryAll(ctx, cli, 2*time.Second, []*net.UDPAddr{miss.Addr(), liar}, "http://doc/", FlagHitObj, nil, nil)
		if err != nil || from == nil || from.Port != liar.Port {
			t.Fatalf("unflagged liar: from=%v err=%v, want its HIT", from, err)
		}
		if win.Op != OpHit || win.Object != nil || win.OptionData != 0 {
			t.Fatalf("unflagged liar: its object surfaced as %+v, want a plain HIT", win)
		}
	}

	// The asked peer has the forger inject a HIT_OBJ for the live request
	// number just before its own MISS, so the forgery arrives first.
	forger, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { forger.Close() })
	victim := client(t)
	asked := rawResponder(t, func(q Message) []byte {
		_, _ = forger.WriteToUDP(mustWire(t, mustHitObj(t, q.ReqNum, q.URL, forged, 1)), victim.Addr())
		return mustWire(t, NewReply(OpMiss, q.ReqNum, q.URL))
	})
	var seen []string
	win, from, _, err := QueryAll(ctx, victim, 2*time.Second, []*net.UDPAddr{asked}, "http://doc/", FlagHitObj, nil,
		func(from *net.UDPAddr, op Opcode) { seen = append(seen, from.String()+" "+op.String()) })
	if err != nil || from != nil || win.Object != nil {
		t.Fatalf("outside forger: %+v from %v (%v), want an ordinary miss", win, from, err)
	}
	if want := asked.String() + " " + OpMiss.String(); len(seen) != 1 || seen[0] != want {
		t.Fatalf("replies seen: %q, want only %q", seen, want)
	}
	if st := victim.Stats(); st.Received != 2 {
		t.Fatalf("client received %d datagrams, want the forgery and the MISS", st.Received)
	}
}

// rawResponder answers every query with the datagram reply builds from it.
func rawResponder(t *testing.T, reply func(q Message) []byte) *net.UDPAddr {
	t.Helper()
	pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.Close() })
	go func() {
		buf := make([]byte, MaxDatagram)
		for {
			n, from, err := pc.ReadFromUDP(buf)
			if err != nil {
				return
			}
			if q, err := Parse(buf[:n]); err == nil && q.Op == OpQuery {
				_, _ = pc.WriteToUDP(reply(q), from) // a lost reply fails the test's expectation
			}
		}
	}()
	return pc.LocalAddr().(*net.UDPAddr)
}

// TestQueryAllHitObjWrongURL: an object for another URL than the one asked
// for is never used; the reply counts as a plain HIT (the HTTP path).
func TestQueryAllHitObjWrongURL(t *testing.T) {
	peer := rawResponder(t, func(q Message) []byte {
		return mustWire(t, mustHitObj(t, q.ReqNum, q.URL+"-other", []byte("wrong"), 1))
	})
	cli := client(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	win, from, _, err := QueryAll(ctx, cli, 2*time.Second, []*net.UDPAddr{peer}, "http://doc/", FlagHitObj, nil, nil)
	if err != nil || from == nil {
		t.Fatalf("from=%v err=%v, want a hit", from, err)
	}
	if win.Op != OpHit || win.Object != nil || win.OptionData != 0 {
		t.Fatalf("mismatched HIT_OBJ surfaced as %+v, want a plain HIT", win)
	}
}

// TestHostileHitObjDropped: malformed or oversized HIT_OBJ replies are
// counted as dropped and resolve the query as a miss.
func TestHostileHitObjDropped(t *testing.T) {
	for i, tamper := range hitObjTampers {
		peer := rawResponder(t, func(q Message) []byte {
			return tamper(mustWire(t, mustHitObj(t, q.ReqNum, q.URL, []byte("payload"), 1)))
		})
		cli := client(t)
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		_, from, _, err := QueryAll(ctx, cli, 200*time.Millisecond, []*net.UDPAddr{peer}, "http://doc/", FlagHitObj, nil, nil)
		cancel()
		if err != nil || from != nil {
			t.Fatalf("tamper %d: from=%v err=%v, want an ordinary miss", i, from, err)
		}
		if st := cli.Stats(); st.Received != 1 || st.Undecodable != 1 || st.Dropped != 1 {
			t.Fatalf("tamper %d: stats %+v, want the one reply received and dropped as undecodable", i, st)
		}
	}
}

// TestQueryAllDuplicateReply: a repeated reply (a duplicated datagram) does
// not count as another peer's answer. The flagged peer's MISS arrives twice
// before the holder's HIT; the HIT must still win, and the copy is counted
// as a late reply.
func TestQueryAllDuplicateReply(t *testing.T) {
	pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.Close() })
	go func() {
		buf := make([]byte, MaxDatagram)
		n, from, err := pc.ReadFromUDP(buf)
		if err != nil {
			return
		}
		if q, err := Parse(buf[:n]); err == nil {
			miss := mustWire(t, NewReply(OpMiss, q.ReqNum, q.URL))
			_, _ = pc.WriteToUDP(miss, from) // a lost copy fails the count below
			_, _ = pc.WriteToUDP(miss, from)
		}
	}()
	twice := pc.LocalAddr().(*net.UDPAddr)
	holder := delayedReply(t, 50*time.Millisecond, OpHit, nil)
	cli := client(t)
	before := cli.Stats().LateReplies
	win, from, _, err := QueryAll(context.Background(), cli, 2*time.Second,
		[]*net.UDPAddr{twice, holder}, "http://doc/", FlagHitObj, nil, nil)
	if err != nil || from == nil || from.Port != holder.Port || win.Op != OpHit {
		t.Fatalf("%v from=%v (%v), want the holder's HIT", win.Op, from, err)
	}
	if late := cli.Stats().LateReplies - before; late != 1 {
		t.Fatalf("late replies moved by %d, want 1 (the duplicated MISS)", late)
	}
}

// TestStrayHitObjAllocatesNothing: a HIT_OBJ the asker did not ask for is
// dropped without its object being copied, so whoever can reach the socket
// cannot make the asker allocate. While a fan-out waits for its flagged
// peer, an unasked, a late and a repeated HIT_OBJ of the largest object,
// the repeat from the unflagged peer, allocate nothing, and each is still
// counted. The flagged peer's object then lands in the destination, and a
// repeat of it after the fan-out resolved leaves the destination alone.
func TestStrayHitObjAllocatesNothing(t *testing.T) {
	const url = "http://doc/"
	socket := func() *net.UDPConn {
		pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pc.Close() })
		return pc
	}
	flagged, unflagged, outsider := socket(), socket(), socket()
	cli := client(t)
	obj := make([]byte, 0, MaxHitObjLen)
	type result struct {
		win  Message
		from *net.UDPAddr
		err  error
	}
	done := make(chan result, 1)
	peers := []*net.UDPAddr{flagged.LocalAddr().(*net.UDPAddr), unflagged.LocalAddr().(*net.UDPAddr)}
	go func() {
		win, from, _, err := QueryAll(context.Background(), cli, 10*time.Second, peers, url, FlagHitObj, obj, nil)
		done <- result{win, from, err}
	}()
	buf := make([]byte, MaxDatagram)
	n, _, err := flagged.ReadFromUDP(buf)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Parse(buf[:n])
	if err != nil || q.Options&FlagHitObj == 0 {
		t.Fatalf("the flagged peer read %+v (%v), want a query asking for the object", q, err)
	}
	body := bytes.Repeat([]byte("o"), MaxHitObjLen-HeaderLen-len(url)-1-hitObjSizeLen)
	poison := bytes.Repeat([]byte("p"), len(body))
	live := mustWire(t, mustHitObj(t, q.ReqNum, url, body, 1))
	stray := mustWire(t, mustHitObj(t, q.ReqNum, url, poison, 1))
	dead := mustWire(t, mustHitObj(t, q.ReqNum+1, url, poison, 1)) // no query waits on this number
	to := addrPort(cli.Addr())
	send := func(pc *net.UDPConn, b []byte) {
		if _, err := pc.WriteToUDPAddrPort(b, to); err != nil {
			t.Fatal(err)
		}
	}
	// settle waits until the client has read received datagrams and
	// counted unasked and late drops in all, without allocating.
	settle := func(received, unasked, late uint64) {
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(20 * time.Microsecond) {
			st := cli.Stats()
			if st.Received >= received && st.Unasked >= unasked && st.LateReplies >= late {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("stats %+v, want %d received, %d unasked and %d late", st, received, unasked, late)
			}
		}
	}
	// The unflagged peer's first HIT_OBJ is its answer, taken as a plain
	// HIT: the fan-out keeps waiting for the earlier, flagged peer.
	send(unflagged, stray)
	settle(1, 0, 0)
	runs := uint64(0)
	strays := func() {
		send(outsider, stray)  // from an address the query did not ask
		send(outsider, dead)   // late: its query is gone
		send(unflagged, stray) // a repeat from the unflagged peer
		runs++
		settle(1+3*runs, runs, 2*runs)
	}
	if got := testing.AllocsPerRun(100, strays); got != 0 {
		t.Fatalf("a stray HIT_OBJ allocated %v times on the asker, want 0", got)
	}
	if st := cli.Stats(); st.Received != 1+3*runs || st.Unasked != runs || st.LateReplies != 2*runs {
		t.Fatalf("stats %+v after %d rounds, want %d received, %d unasked and %d late", st, runs, 1+3*runs, runs, 2*runs)
	}
	send(flagged, live)
	r := <-done
	if r.err != nil || r.from != peers[0] || r.win.Op != OpHitObj || !bytes.Equal(r.win.Object, body) || &r.win.Object[0] != &obj[:1][0] {
		t.Fatalf("%v of %d bytes from %v (%v), want the flagged peer's object in the destination", r.win.Op, len(r.win.Object), r.from, r.err)
	}
	late := cli.Stats().LateReplies
	send(flagged, stray)
	settle(3+3*runs, runs, late+1)
	if !bytes.Equal(obj[:len(body)], body) {
		t.Fatal("a repeat of the flagged peer's HIT_OBJ after the fan-out resolved overwrote the destination")
	}
}

// TestFlaggedObjectCopiedOnce: deliver copies the flagged peer's object
// into the destination once, from the first HIT_OBJ naming the URL asked.
// A second one, which could overwrite the object the first reply's
// Message holds before the querier reads it, becomes a plain HIT, and so
// does one naming another URL, whose URL is not copied either. After
// release nothing lands in the destination.
func TestFlaggedObjectCopiedOnce(t *testing.T) {
	const url = "http://doc/"
	c := stubConn()
	peer := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 4827}
	obj := make([]byte, 0, 64)
	w, err := c.register(1, 3, url, nil, obj)
	if err != nil {
		t.Fatal(err)
	}
	c.flag(w, peer)
	from := addrPort(peer)
	hitObj := Message{Op: OpHitObj, ReqNum: 1, OptionData: 3}
	c.deliver(hitObj, []byte(url+"other"), []byte("elsewhere"), from)
	c.deliver(hitObj, []byte(url), []byte("first"), from)
	c.deliver(hitObj, []byte(url), []byte("2nd"), from)
	other, first, second := <-w.ch, <-w.ch, <-w.ch
	if m := other.m; m.Op != OpHit || m.Object != nil || m.OptionData != 0 || m.URL != "" {
		t.Fatalf("a HIT_OBJ naming another URL surfaced as %+v, want a plain HIT with no URL", m)
	}
	if m := first.m; m.Op != OpHitObj || string(m.Object) != "first" || &m.Object[0] != &obj[:1][0] || m.URL != url || m.OptionData != 3 {
		t.Fatalf("the first HIT_OBJ surfaced as %+v, want its object in the destination", m)
	}
	if m := second.m; m.Op != OpHit || m.Object != nil || m.OptionData != 0 {
		t.Fatalf("the second HIT_OBJ surfaced as %+v, want a plain HIT", m)
	}
	c.release(1, w)
	c.deliver(hitObj, []byte(url), []byte("late"), from)
	if string(obj[:5]) != "first" {
		t.Fatalf("the destination holds %q after release, want the first object", obj[:5])
	}
}
