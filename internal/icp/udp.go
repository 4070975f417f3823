package icp

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
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
	// LateReplies counts replies whose query was no longer waiting, and
	// repeat copies of a reply a waiting fan-out already counted (a
	// duplicated datagram).
	LateReplies uint64
	Unasked     uint64 // replies to a live query from an address it did not ask
	SendErrors  uint64 // transmissions the network layer rejected
}

// Handler consumes unsolicited inbound messages (queries from peers,
// directory updates). Replies to in-flight queries are routed internally
// and never reach the handler. Handlers run on the receive goroutine;
// blocking ones stall the socket.
//
// The Message is decoded in place: a DIRUPDATE's flip records borrow
// scratch owned by the receive loop and are readable only during the call.
// Read after the next datagram is decoded, a kept copy of the Message or
// its Update panics (see DirUpdate); a handler that needs the records
// later copies them out. Every other field, URL strings included, is owned
// and safe to retain.
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

// maxFree bounds each of a Conn's free lists (retired waiters, encoding
// buffers): a burst of concurrent queries or sends beyond it allocates, and
// the extras are dropped when they retire.
const maxFree = 16

// sendBufLen is a fresh encoding buffer's capacity: one MTU-sized datagram
// (a query, a MISS or HIT, a DIRUPDATE of DefaultMaxFlipsPerUpdate flips).
// A buffer grows to encode a HIT_OBJ and is recycled at its grown size.
const sendBufLen = 2048

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
	free    []*waiter // retired waiters, ready for reuse (see release)
	closed  bool
	started bool
	done    chan struct{}

	bufMu sync.Mutex
	bufs  [][]byte // Send's retired encoding buffers
}

// waiter is one in-flight query's reply channel and timer. Retired waiters
// are reused, so a steady-state query allocates neither.
type waiter struct {
	ch    chan reply
	timer *time.Timer // QueryAllFunc's deadline, then grace; nil until first armed
}

// arm (re)starts w's timer to fire after d and returns the arming time. The
// timer must be stopped with its channel drained, or freshly made.
func (w *waiter) arm(d time.Duration) time.Time {
	now := time.Now()
	if w.timer == nil {
		w.timer = time.NewTimer(d)
	} else {
		w.timer.Reset(d)
	}
	return now
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
// buffer is recycled through a free list on the Conn, not a sync.Pool, so a
// steady-state send allocates nothing even under the race detector, which
// drops a quarter of a Pool's Puts.
func (c *Conn) Send(to *net.UDPAddr, m Message) error {
	buf, err := m.Append(c.getBuf(m.EncodedLen()))
	if err == nil {
		err = c.write(to, buf)
	}
	c.putBuf(buf)
	return err
}

// getBuf returns an empty encoding buffer with room for n bytes.
func (c *Conn) getBuf(n int) []byte {
	var buf []byte
	c.bufMu.Lock()
	if k := len(c.bufs); k > 0 {
		buf = c.bufs[k-1]
		c.bufs = c.bufs[:k-1]
	}
	c.bufMu.Unlock()
	if buf == nil {
		buf = make([]byte, 0, max(n, sendBufLen))
	}
	return slices.Grow(buf[:0], n)
}

// putBuf retires an encoding buffer for reuse.
func (c *Conn) putBuf(buf []byte) {
	c.bufMu.Lock()
	if len(c.bufs) < maxFree {
		c.bufs = append(c.bufs, buf)
	}
	c.bufMu.Unlock()
}

// SendAsync sends m synchronously, exactly as Send does.
//
// Deprecated: use Send.
func (c *Conn) SendAsync(to *net.UDPAddr, m Message) error { return c.Send(to, m) }

// write transmits one encoded datagram and maintains the counters. The
// datagram is counted before it is written: its receiver may act on it —
// and a client see the result — before this goroutine runs again, and a
// Stats read at that point must already include it.
func (c *Conn) write(to *net.UDPAddr, buf []byte) error {
	c.sent.Add(1)
	c.sentB.Add(uint64(len(buf)))
	if _, err := c.pc.WriteToUDP(buf, to); err != nil {
		c.sent.Add(^uint64(0))
		c.sentB.Add(-uint64(len(buf)))
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

// register enrolls a waiter for reqNum whose channel holds at least n
// replies, reusing a retired one when it is big enough.
func (c *Conn) register(reqNum uint32, n int) (*waiter, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	var w *waiter
	if k := len(c.free); k > 0 && cap(c.free[k-1].ch) >= n {
		w = c.free[k-1]
		c.free = c.free[:k-1]
	} else {
		w = &waiter{ch: make(chan reply, max(n, 8))}
	}
	c.pending[reqNum] = w.ch
	return w, nil
}

// release retires reqNum's waiter. The read loop sends replies only under
// c.mu, so once the entry is deleted nothing more reaches w.ch: drained, w
// is as good as new. A waiter Close has closed is never reused.
func (c *Conn) release(reqNum uint32, w *waiter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.pending, reqNum)
	if w.timer != nil && !w.timer.Stop() {
		// With go.mod at 1.22 a timer's channel is buffered: a tick may be
		// waiting in it. One still in flight after this drain is stamped
		// before the next arming, and QueryAllFunc skips it.
		select {
		case <-w.timer.C:
		default:
		}
	}
	if c.closed || len(c.free) >= maxFree {
		return
	}
	for len(w.ch) > 0 {
		<-w.ch
	}
	c.free = append(c.free, w)
}

// Query sends an ICP query for url to the peer and waits for its reply
// (HIT, HIT_OBJ, MISS, MISS_NOFETCH, DENIED or ERR) until ctx is done. A lost
// datagram surfaces as ctx expiry — the caller treats it as a miss,
// exactly as Squid does.
func (c *Conn) Query(ctx context.Context, to *net.UDPAddr, url string) (Message, error) {
	reqNum := c.NextReqNum()
	w, err := c.register(reqNum, 1)
	if err != nil {
		return Message{}, err
	}
	defer c.release(reqNum, w)

	if err := c.Send(to, NewQuery(reqNum, url)); err != nil {
		return Message{}, err
	}
	select {
	case r, ok := <-w.ch:
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
// peer replied MISS-class, timeout passed or ctx was done (a timeout is an
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
// which anyone reaching the socket can guess. Only a peer's first reply
// counts; a repeat (a duplicated datagram) is ignored and counted as late
// (Stats.LateReplies), so it cannot end the wait for the others. onReply
// (when non-nil) is invoked on the caller's goroutine for every counted
// reply that arrives before the fan-out resolves, attributed to its sender
// (the entry of peers); the tracing layer uses it to record each peer's
// actual answer.
//
// A steady-state fan-out to at most 16 peers allocates nothing: its reply
// channel and timer are reused across queries.
func (c *Conn) QueryAllFunc(ctx context.Context, timeout time.Duration, peers []*net.UDPAddr, url string, options uint32, onReply func(from *net.UDPAddr, op Opcode)) (win Message, from *net.UDPAddr, reqNum uint32, err error) {
	if len(peers) == 0 {
		return Message{}, nil, 0, nil
	}
	reqNum = c.NextReqNum()
	w, err := c.register(reqNum, len(peers))
	if err != nil {
		return Message{}, nil, reqNum, err
	}
	defer c.release(reqNum, w)
	start := w.arm(timeout)
	armed := start // a timer tick stamped before this is left from an earlier arming

	// answered marks the peers whose reply was counted; a peer whose query
	// could not be sent is marked up front, so nothing is awaited from it.
	var answeredBuf [16]bool
	answered := answeredBuf[:min(len(peers), len(answeredBuf))]
	if len(peers) > len(answeredBuf) {
		answered = make([]bool, len(peers))
	}
	q := NewQuery(reqNum, url)
	q.Options = options
	objPeer := -1 // index of the one peer asked for the object, until it answers
	waiting := 0
	var lastErr error
	for i, p := range peers {
		if err := c.Send(p, q); err != nil {
			lastErr = err
			answered[i] = true
			continue
		}
		if q.Options&FlagHitObj != 0 {
			objPeer = i
			q.Options &^= FlagHitObj
		}
		waiting++
	}
	if waiting == 0 {
		return Message{}, nil, reqNum, lastErr
	}
	var held reply // a plain HIT waiting on objPeer
	for waiting > 0 {
		select {
		case r, ok := <-w.ch:
			if !ok {
				return Message{}, nil, reqNum, ErrClosed
			}
			i := findAddr(peers, r.from)
			if i < 0 {
				c.unasked.Add(1)
				continue
			}
			if answered[i] {
				c.late.Add(1)
				continue
			}
			answered[i] = true
			waiting--
			p := peers[i]
			if r.m.Op == OpHitObj && (i != objPeer || r.m.URL != url) {
				r.m.Op, r.m.Object, r.m.OptionData = OpHit, nil, 0
			}
			if onReply != nil {
				onReply(p, r.m.Op)
			}
			switch {
			case r.m.Op == OpHitObj || (r.m.Op == OpHit && (objPeer < 0 || i == objPeer)):
				return r.m, p, reqNum, nil
			case r.m.Op == OpHit:
				if held.from == nil {
					held = reply{m: r.m, from: p}
					// Hold it as long again as it took to arrive, unless the
					// deadline comes first (or its tick already has).
					if grace := time.Since(start); 2*grace < timeout && w.timer.Stop() {
						armed = w.arm(grace)
					}
				}
			case i == objPeer:
				objPeer = -1
				if held.from != nil {
					return held.m, held.from, reqNum, nil
				}
			}
		case t := <-w.timer.C:
			if t.Before(armed) {
				continue
			}
			return held.m, held.from, reqNum, nil // deadline or grace: a timeout without a HIT is an ordinary miss
		case <-ctx.Done():
			return held.m, held.from, reqNum, nil
		}
	}
	return held.m, held.from, reqNum, nil
}

// findAddr returns the index of the entry of peers that addr names, -1 if
// none does.
func findAddr(peers []*net.UDPAddr, addr *net.UDPAddr) int {
	for i, p := range peers {
		if p.Port == addr.Port && p.IP.Equal(addr.IP) {
			return i
		}
	}
	return -1
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
			// URL string and a HIT_OBJ's object, both copied out of buf).
			// The send happens under c.mu, so a query's release knows no
			// reply reaches its channel once the entry is gone. It never
			// blocks: a full channel drops the surplus copy.
			c.mu.Lock()
			ch := c.pending[m.ReqNum]
			if ch != nil {
				select {
				case ch <- reply{m: m, from: from}:
				default:
				}
			}
			c.mu.Unlock()
			if ch == nil {
				c.late.Add(1) // its query already resolved or timed out
			}
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
