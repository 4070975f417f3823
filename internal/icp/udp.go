package icp

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Stats counts datagrams through a Conn; the networked benchmark's analog
// of the paper's netstat UDP counters.
type Stats struct {
	Sent      uint64
	Received  uint64
	SentBytes uint64
	RecvBytes uint64
	// Dropped is Undecodable + LateReplies + Unasked.
	Dropped     uint64
	Undecodable uint64 // datagrams that failed to decode
	LateReplies uint64 // replies whose query was no longer waiting
	Unasked     uint64 // replies to a live query from an address it did not ask
	SendErrors  uint64 // transmissions the network layer rejected
}

// Handler consumes unsolicited inbound messages (queries from peers,
// directory updates). Replies to in-flight queries are routed internally
// and never reach the handler. Handlers run on the receive goroutine;
// blocking ones stall the socket.
//
// The Message is decoded in place: its Update field (and the Flips inside)
// borrow scratch owned by the receive loop and are only valid for the
// duration of the call. A handler that needs the update past its return
// must copy it (URL strings are owned and safe to retain).
type Handler func(from *net.UDPAddr, m Message)

// ListenConfig parameterizes ListenWith — the canonical configured form of
// opening an ICP endpoint.
type ListenConfig struct {
	// Handler consumes unsolicited inbound messages (may be nil to ignore
	// them).
	Handler Handler
	// Wrap, when set, decorates the bound socket before use — the
	// fault-injection hook. Nil: the raw socket, with no interposed call.
	Wrap SocketWrapper
}

// ErrClosed is returned by operations on a closed Conn.
var ErrClosed = errors.New("icp: connection closed")

// PacketConn is the UDP socket surface a Conn drives. *net.UDPConn
// implements it; fault-injection wrappers (internal/faultnet) decorate it
// to impose loss, delay, duplication and reordering on the ICP traffic
// without the endpoint knowing.
type PacketConn interface {
	ReadFromUDP(b []byte) (int, *net.UDPAddr, error)
	WriteToUDP(b []byte, addr *net.UDPAddr) (int, error)
	Close() error
	LocalAddr() net.Addr
}

// SocketWrapper decorates the bound socket before the Conn uses it — the
// fault-injection hook. Nil means the raw socket.
type SocketWrapper func(PacketConn) PacketConn

// reply is one routed response to an in-flight query, attributed to its
// sender so a shared-RequestNumber fan-out can tell the peers apart.
type reply struct {
	m    Message
	from *net.UDPAddr
}

// Conn is an ICP endpoint over UDP: it serves peer queries via a Handler
// and issues queries with request-number matching and timeouts.
type Conn struct {
	pc      PacketConn
	handler Handler

	sent, recv, sentB, recvB, sendErrs atomic.Uint64
	undecodable, late, unasked         atomic.Uint64
	nextReq                            atomic.Uint32

	mu      sync.Mutex
	pending map[uint32]chan reply
	closed  bool
	started bool
	done    chan struct{}
}

// Listen opens an ICP endpoint on addr ("127.0.0.1:0" for an ephemeral
// test port) with handler (which may be nil to ignore unsolicited
// traffic). The receive loop does NOT run until Start is called: callers
// typically finish wiring the state their handler closes over first —
// starting to serve inside the constructor would race with those
// assignments.
func Listen(addr string, handler Handler) (*Conn, error) {
	return ListenWith(addr, ListenConfig{Handler: handler})
}

// ListenWith is the configured form of Listen: the handler and the socket
// wrapper (fault injection) ride one struct.
func ListenWith(addr string, cfg ListenConfig) (*Conn, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("icp: resolve %q: %w", addr, err)
	}
	pc, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("icp: listen %q: %w", addr, err)
	}
	var sock PacketConn = pc
	if cfg.Wrap != nil {
		sock = cfg.Wrap(sock)
	}
	c := &Conn{
		pc:      sock,
		handler: cfg.Handler,
		pending: make(map[uint32]chan reply),
		done:    make(chan struct{}),
	}
	return c, nil
}

// Start begins the receive loop. It must be called exactly once, after
// the handler's dependencies are fully initialized. Datagrams arriving
// before Start sit in the socket buffer and are processed once it runs.
func (c *Conn) Start() {
	c.mu.Lock()
	if c.started || c.closed {
		c.mu.Unlock()
		return
	}
	c.started = true
	c.mu.Unlock()
	go c.readLoop()
}

// Addr returns the bound UDP address.
func (c *Conn) Addr() *net.UDPAddr { return c.pc.LocalAddr().(*net.UDPAddr) }

// Stats snapshots the traffic counters.
func (c *Conn) Stats() Stats {
	s := Stats{
		Sent:        c.sent.Load(),
		Received:    c.recv.Load(),
		SentBytes:   c.sentB.Load(),
		RecvBytes:   c.recvB.Load(),
		Undecodable: c.undecodable.Load(),
		LateReplies: c.late.Load(),
		Unasked:     c.unasked.Load(),
		SendErrors:  c.sendErrs.Load(),
	}
	s.Dropped = s.Undecodable + s.LateReplies + s.Unasked
	return s
}

// Close shuts the endpoint down and fails all in-flight queries.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	for _, ch := range c.pending {
		close(ch)
	}
	c.pending = make(map[uint32]chan reply)
	started := c.started
	c.mu.Unlock()
	err := c.pc.Close()
	if started {
		<-c.done
	}
	return err
}

// Send encodes and transmits m to the peer synchronously. The encoding
// buffer comes from the shared pool, so a steady-state send allocates
// nothing.
func (c *Conn) Send(to *net.UDPAddr, m Message) error {
	bp := getBuf()
	buf, err := m.Append(*bp)
	if err != nil {
		putBuf(bp)
		return err
	}
	*bp = buf
	err = c.write(to, bp)
	putBuf(bp)
	return err
}

// SendAsync sends m synchronously, exactly as Send does.
//
// Deprecated: use Send.
func (c *Conn) SendAsync(to *net.UDPAddr, m Message) error { return c.Send(to, m) }

// write transmits one encoded datagram and maintains the counters.
func (c *Conn) write(to *net.UDPAddr, bp *[]byte) error {
	n, err := c.pc.WriteToUDP(*bp, to)
	if err != nil {
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if closed {
			return ErrClosed
		}
		// A rejected transmission is the only trace a flaky peer link
		// leaves on the sender; count it rather than losing it with the
		// discarded error.
		c.sendErrs.Add(1)
		return fmt.Errorf("icp: send to %v: %w", to, err)
	}
	c.sent.Add(1)
	c.sentB.Add(uint64(n))
	return nil
}

// NextReqNum returns a fresh request number. The 32-bit counter wraps
// naturally; reply routing keys on the number alone, so correctness only
// requires that concurrently in-flight queries carry distinct numbers —
// a node would need 2^32 simultaneous queries to collide.
func (c *Conn) NextReqNum() uint32 { return c.nextReq.Add(1) }

// SeedReqNum positions the request-number counter so the next allocation
// returns v+1. Tests use it to exercise the 2^32 wraparound without
// issuing four billion queries.
func (c *Conn) SeedReqNum(v uint32) { c.nextReq.Store(v) }

// register enrolls a pending query channel under reqNum.
func (c *Conn) register(reqNum uint32, ch chan reply) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	c.pending[reqNum] = ch
	return nil
}

func (c *Conn) unregister(reqNum uint32) {
	c.mu.Lock()
	delete(c.pending, reqNum)
	c.mu.Unlock()
}

// Query sends an ICP query for url to the peer and waits for its reply
// (HIT, HIT_OBJ, MISS, MISS_NOFETCH, DENIED or ERR) until ctx is done. A lost
// datagram surfaces as ctx expiry — the caller treats it as a miss,
// exactly as Squid does.
func (c *Conn) Query(ctx context.Context, to *net.UDPAddr, url string) (Message, error) {
	reqNum := c.NextReqNum()
	ch := make(chan reply, 1)
	if err := c.register(reqNum, ch); err != nil {
		return Message{}, err
	}
	defer c.unregister(reqNum)

	if err := c.Send(to, NewQuery(reqNum, url)); err != nil {
		return Message{}, err
	}
	select {
	case r, ok := <-ch:
		if !ok {
			return Message{}, ErrClosed
		}
		return r.m, nil
	case <-ctx.Done():
		return Message{}, ctx.Err()
	}
}

// QueryAllFunc fans one query out to several peers and returns the first
// HIT or HIT_OBJ reply as win, from its sender; from is nil when every
// peer replied MISS-class or the context expired (a timeout is an
// ordinary miss, as in Squid). The whole fan-out shares a single
// RequestNumber, as Squid's sibling queries do; reqNum reports it so
// callers can correlate the exchange (the tracing layer derives the
// cross-proxy trace ID from it).
//
// options are the query's. With FlagHitObj only the first peer is asked
// for the object itself, the rest only whether they hold it. A flagged
// holder reads — and so refreshes — its copy to answer; if a plain HIT
// from another sibling won, that sibling would be fetched from and
// refreshed too, and the hit ratio would drift from a one-sibling-fetch
// mesh's. So a plain HIT from another peer waits for the flagged peer's
// answer, but only as long again as it took to arrive: a dead or lossy
// flagged peer costs at most one more round trip, never the deadline. A
// winning HIT_OBJ carries the document (Object, version in OptionData).
// An object is used only when it comes from the flagged peer and names
// the URL asked for; any other HIT_OBJ is taken as a plain HIT, its object
// dropped. A reply from an address that was not asked is ignored and
// counted (Stats.Unasked): reply routing keys on the request number alone,
// which anyone reaching the socket can guess. onReply (when non-nil) is
// invoked on the caller's goroutine for every reply that arrives before
// the fan-out resolves, attributed to its sender; the tracing layer uses
// it to record each peer's actual answer.
func (c *Conn) QueryAllFunc(ctx context.Context, peers []*net.UDPAddr, url string, options uint32, onReply func(from *net.UDPAddr, op Opcode)) (win Message, from *net.UDPAddr, reqNum uint32, err error) {
	if len(peers) == 0 {
		return Message{}, nil, 0, nil
	}
	reqNum = c.NextReqNum()
	ch := make(chan reply, len(peers))
	if err := c.register(reqNum, ch); err != nil {
		return Message{}, nil, reqNum, err
	}
	defer c.unregister(reqNum)

	q := NewQuery(reqNum, url)
	q.Options = options
	var objPeer *net.UDPAddr // the one peer asked for the object, until it answers
	start := time.Now()
	sent := 0
	var lastErr error
	for _, p := range peers {
		if err := c.Send(p, q); err != nil {
			lastErr = err
			continue
		}
		if q.Options&FlagHitObj != 0 {
			objPeer = p
			q.Options &^= FlagHitObj
		}
		sent++
	}
	if sent == 0 {
		return Message{}, nil, reqNum, lastErr
	}
	var held reply             // a plain HIT waiting on objPeer
	var grace <-chan time.Time // fires when held stops waiting
	for sent > 0 {
		select {
		case r, ok := <-ch:
			if !ok {
				return Message{}, nil, reqNum, ErrClosed
			}
			p := findAddr(peers, r.from)
			if p == nil {
				c.unasked.Add(1)
				continue
			}
			sent--
			if r.m.Op == OpHitObj && (p != objPeer || r.m.URL != url) {
				r.m.Op, r.m.Object, r.m.OptionData = OpHit, nil, 0
			}
			if onReply != nil {
				onReply(p, r.m.Op)
			}
			switch {
			case r.m.Op == OpHitObj || (r.m.Op == OpHit && (objPeer == nil || p == objPeer)):
				return r.m, p, reqNum, nil
			case r.m.Op == OpHit:
				if held.from == nil {
					held = reply{m: r.m, from: p}
					t := time.NewTimer(time.Since(start))
					defer t.Stop()
					grace = t.C
				}
			case p == objPeer:
				objPeer = nil
				if held.from != nil {
					return held.m, held.from, reqNum, nil
				}
			}
		case <-grace:
			return held.m, held.from, reqNum, nil
		case <-ctx.Done():
			return held.m, held.from, reqNum, nil // a timeout without a HIT is an ordinary miss
		}
	}
	return held.m, held.from, reqNum, nil
}

// findAddr returns the entry of peers that addr names, nil if none does.
func findAddr(peers []*net.UDPAddr, addr *net.UDPAddr) *net.UDPAddr {
	for _, p := range peers {
		if p.Port == addr.Port && p.IP.Equal(addr.IP) {
			return p
		}
	}
	return nil
}

func (c *Conn) readLoop() {
	defer close(c.done)
	buf := make([]byte, MaxDatagram)
	var dec Decoder
	for {
		n, from, err := c.pc.ReadFromUDP(buf)
		if err != nil {
			c.mu.Lock()
			closed := c.closed
			c.mu.Unlock()
			if closed {
				return
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			// Socket gone for another reason: stop the loop.
			return
		}
		c.recv.Add(1)
		c.recvB.Add(uint64(n))
		m, err := dec.Decode(buf[:n])
		if err != nil {
			c.undecodable.Add(1)
			continue
		}
		if isReply(m.Op) {
			// Reply opcodes carry no DirUpdate payload, so the Message
			// crossing to the waiting goroutine holds only owned data (the
			// URL string and a HIT_OBJ's object, both copied out of buf);
			// the decoder scratch never escapes.
			c.mu.Lock()
			ch := c.pending[m.ReqNum]
			c.mu.Unlock()
			if ch != nil {
				select {
				//lint:ignore sclint/borrow-escape reply opcodes carry no DirUpdate; only the owned URL string and copied HIT_OBJ object cross, never decoder scratch
				case ch <- reply{m: m, from: from}:
				default:
				}
				continue
			}
			c.late.Add(1) // its query already resolved or timed out
			continue
		}
		if c.handler != nil {
			c.handler(from, m)
		}
	}
}

func isReply(op Opcode) bool {
	switch op {
	case OpHit, OpMiss, OpMissNoFetch, OpDenied, OpErr, OpHitObj:
		return true
	}
	return false
}
