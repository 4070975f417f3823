package icp

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/netip"
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
	// duplicated datagram). A reply still queued when its query resolves
	// is late too.
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
//
// from is shared: every datagram from one sender is handed the same
// *net.UDPAddr (until the read loop's sender map, bounded at maxSenders,
// fills and is emptied), so a handler must not modify it. An IPv4 sender
// reaching a dual-stack socket is named in its 4-byte form.
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
// without the endpoint knowing. Addresses travel as netip.AddrPort values,
// which *net.UDPConn reads and writes without allocating.
type PacketConn interface {
	ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error)
	WriteToUDPAddrPort(b []byte, addr netip.AddrPort) (int, error)
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

// maxSenders bounds the read loop's map from a datagram's source to the
// *net.UDPAddr the Handler is given. A source not in the map costs one
// address; a full map is emptied first. A mesh member's queries and
// DIRUPDATEs thus share one pointer, and spoofed sources cannot grow the
// map past the bound.
const maxSenders = 64

// reply is one routed response to an in-flight query, attributed to its
// sender (in addrPort's form) so a shared-RequestNumber fan-out can tell
// the peers apart.
type reply struct {
	m    Message
	from netip.AddrPort
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
	pending map[uint32]*waiter
	free    []*waiter // retired waiters, ready for reuse (see release)
	closed  bool
	started bool
	done    chan struct{}

	// senders names each datagram source for the Handler (see maxSenders).
	// Only the read loop touches it.
	senders map[netip.AddrPort]*net.UDPAddr

	bufMu sync.Mutex
	bufs  [][]byte // Send's retired encoding buffers
}

// waiter is one in-flight query's URL, reply channel and timer. Retired
// waiters are reused, so a steady-state query allocates neither channel
// nor timer.
type waiter struct {
	// The URL asked, as a string (url), which a reply naming it shares, or
	// as the caller's bytes (urlBytes, non-nil), which no reply shares.
	url      string
	urlBytes []byte

	ch    chan reply
	timer *time.Timer // QueryAll's deadline; nil until first armed

	// The flagged peer's object (see deliver), under c.mu: objFrom is the
	// peer asked for it until its copy is made (zero: none), and obj the
	// destination the copy lands in.
	objFrom netip.AddrPort
	obj     []byte
}

// arm (re)starts w's timer to fire after d. The timer must be stopped with
// its channel drained, or freshly made.
func (w *waiter) arm(d time.Duration) {
	if w.timer == nil {
		w.timer = time.NewTimer(d)
	} else {
		w.timer.Reset(d)
	}
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
		pending: make(map[uint32]*waiter),
		done:    make(chan struct{}),
		senders: make(map[netip.AddrPort]*net.UDPAddr),
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
	for _, w := range c.pending {
		close(w.ch)
	}
	c.pending = make(map[uint32]*waiter)
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
	if _, err := c.pc.WriteToUDPAddrPort(buf, addrPort(to)); err != nil {
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

// names reports whether a reply's URL is the one w asked.
func (w *waiter) names(url []byte) bool {
	if w.urlBytes != nil {
		return bytes.Equal(url, w.urlBytes)
	}
	return string(url) == w.url
}

// register enrolls a waiter for a query numbered reqNum whose channel
// holds at least n replies, reusing a retired one when it is big enough.
// The query asks for url, or for urlBytes when that is non-nil. obj is the
// destination of the flagged peer's object, which flag names.
func (c *Conn) register(reqNum uint32, n int, url string, urlBytes, obj []byte) (*waiter, error) {
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
	w.url, w.urlBytes, w.obj = url, urlBytes, obj
	c.pending[reqNum] = w
	return w, nil
}

// flag names to as the peer whose HIT_OBJ is copied into w's destination.
func (c *Conn) flag(w *waiter, to *net.UDPAddr) {
	c.mu.Lock()
	w.objFrom = addrPort(to)
	c.mu.Unlock()
}

// release retires reqNum's waiter. The read loop sends replies and copies
// objects only under c.mu, so once the entry is deleted nothing more
// reaches w.ch or w's destination: drained, w is as good as new. A reply
// still queued went unread by its query, and is counted late. A waiter
// Close has closed is never reused.
func (c *Conn) release(reqNum uint32, w *waiter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.pending, reqNum)
	for len(w.ch) > 0 {
		<-w.ch
		c.late.Add(1)
	}
	if w.timer != nil && !w.timer.Stop() {
		// With go.mod at 1.22 a timer's channel is buffered: a tick may be
		// waiting in it. When none is, the tick was either taken by
		// QueryAll or is still in flight; the timer is dropped rather
		// than reused, so no later query can receive a stale tick.
		select {
		case <-w.timer.C:
		default:
			w.timer = nil
		}
	}
	if c.closed || len(c.free) >= maxFree {
		return
	}
	w.url, w.urlBytes, w.obj, w.objFrom = "", nil, nil, netip.AddrPort{}
	c.free = append(c.free, w)
}

// Query sends an ICP query for url to the peer and waits for its reply
// (HIT, MISS, MISS_NOFETCH, DENIED or ERR) until ctx is done. A lost
// datagram surfaces as ctx expiry — the caller treats it as a miss,
// exactly as Squid does. Only a reply from to counts: one from any other
// address is ignored and counted (Stats.Unasked), as in QueryAll. The
// query asks for no object, so a HIT_OBJ answers as a plain HIT.
func (c *Conn) Query(ctx context.Context, to *net.UDPAddr, url string) (Message, error) {
	reqNum := c.NextReqNum()
	w, err := c.register(reqNum, 1, url, nil, nil)
	if err != nil {
		return Message{}, err
	}
	defer c.release(reqNum, w)

	if err := c.Send(to, NewQuery(reqNum, url)); err != nil {
		return Message{}, err
	}
	for {
		select {
		case r, ok := <-w.ch:
			if !ok {
				return Message{}, ErrClosed
			}
			if r.from == addrPort(to) {
				return r.m, nil
			}
			c.unasked.Add(1)
		case <-ctx.Done():
			return Message{}, ctx.Err()
		}
	}
}

// QueryAll fans one query for url, held as a string or as bytes, out to
// several peers of c and returns the winning HIT or HIT_OBJ reply as win,
// from its sender; from is nil when every peer replied MISS-class, timeout
// passed or ctx was done (a timeout is an ordinary miss, as in Squid). The
// whole fan-out shares a single RequestNumber, as Squid's sibling queries
// do; reqNum reports it so callers can correlate the exchange (the tracing
// layer derives the cross-proxy trace ID from it).
//
// The query is encoded once, from url itself, and each reply's URL is
// matched against url's bytes, so a caller holding the URL as bytes (the
// HTTP proxy, from a request's head) makes no string of it. url must not
// change until QueryAll returns. win's URL is url when url is a string; a
// query asked with bytes gets a win whose URL is empty.
//
// The winner is the earliest peer in peers that answers HIT, not the first
// HIT to arrive: a HIT from peers[i] is returned once every peer before i
// has replied, or at the deadline (or when ctx is done) if some have not.
// Which peer serves therefore does not depend on scheduling. The cost is
// that a lost or late reply from an earlier peer holds a later peer's HIT
// until the deadline.
//
// options are the query's. With FlagHitObj only the first peer is asked
// for the object itself, the rest only whether they hold it, so a flagged
// holder always wins. A winning HIT_OBJ carries the document (Object,
// version in OptionData). The object is copied into obj's array, which
// Object then shares (a new array when obj is too small), and it is
// copied only from the flagged peer's first HIT_OBJ that names the URL
// asked for, while the query waits; any other HIT_OBJ is taken as a plain
// HIT, its object dropped uncopied. obj must not be read or written until
// QueryAll returns. A reply from an address that was not asked is
// ignored and counted (Stats.Unasked): reply routing keys on the request
// number alone, which anyone reaching the socket can guess. Only a peer's
// first reply counts; a repeat (a duplicated datagram) is ignored and
// counted as late (Stats.LateReplies), so it cannot stand in for another
// peer's reply. onReply (when non-nil) is invoked on the caller's
// goroutine for every counted reply that arrives before the fan-out
// resolves, attributed to its sender (the entry of peers); the tracing
// layer uses it to record each peer's actual answer.
//
// A steady-state fan-out to at most 16 peers allocates nothing: its reply
// channel and timer are reused across queries (after a query that ran to
// its deadline, the next one makes a new timer), and an object that fits
// obj lands in it.
func QueryAll[T string | []byte](ctx context.Context, c *Conn, timeout time.Duration, peers []*net.UDPAddr, url T, options uint32, obj []byte, onReply func(from *net.UDPAddr, op Opcode)) (win Message, from *net.UDPAddr, reqNum uint32, err error) {
	if len(peers) == 0 {
		return Message{}, nil, 0, nil
	}
	reqNum = c.NextReqNum()
	var w *waiter
	switch u := any(url).(type) {
	case string:
		w, err = c.register(reqNum, len(peers), u, nil, obj)
	case []byte:
		w, err = c.register(reqNum, len(peers), "", u[:len(u):len(u)], obj)
	}
	if err != nil {
		return Message{}, nil, reqNum, err
	}
	defer c.release(reqNum, w)
	w.arm(timeout)

	// answered marks the peers whose reply was counted; a peer whose query
	// could not be sent is marked up front, so nothing is awaited from it.
	var answeredBuf [16]bool
	answered := answeredBuf[:min(len(peers), len(answeredBuf))]
	if len(peers) > len(answeredBuf) {
		answered = make([]bool, len(peers))
	}
	q, err := appendQuery(c.getBuf(queryLen(len(url))), reqNum, options, url)
	defer c.putBuf(q)
	if err != nil {
		return Message{}, nil, reqNum, err
	}
	sent := 0
	var lastErr error
	for i, p := range peers {
		if options&FlagHitObj != 0 {
			c.flag(w, p) // before the query goes out, so its reply finds it
		}
		if err := c.write(p, q); err != nil {
			lastErr = err
			answered[i] = true
			continue
		}
		if options&FlagHitObj != 0 {
			options &^= FlagHitObj
			binary.BigEndian.PutUint32(q[optionsOffset:], options)
		}
		sent++
	}
	if sent == 0 {
		return Message{}, nil, reqNum, lastErr
	}
	var held Message        // the HIT of the earliest peer that has answered one
	var holder *net.UDPAddr // that peer
	heldAt := -1            // its index in peers
	awaited := 0            // the earliest peer whose reply is still awaited
	for {
		for awaited < len(peers) && answered[awaited] {
			awaited++
		}
		if awaited == len(peers) || (heldAt >= 0 && heldAt < awaited) {
			return held, holder, reqNum, nil
		}
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
			if onReply != nil {
				onReply(peers[i], r.m.Op)
			}
			if (r.m.Op == OpHit || r.m.Op == OpHitObj) && (heldAt < 0 || i < heldAt) {
				held, holder, heldAt = r.m, peers[i], i
			}
		case <-w.timer.C:
			return held, holder, reqNum, nil // a timeout without a HIT is an ordinary miss
		case <-ctx.Done():
			return held, holder, reqNum, nil
		}
	}
}

// findAddr returns the index of the entry of peers that addr (in
// addrPort's form) names, -1 if none does.
func findAddr(peers []*net.UDPAddr, addr netip.AddrPort) int {
	for i, p := range peers {
		if addrPort(p) == addr {
			return i
		}
	}
	return -1
}

// addrPort names a as the read loop names a datagram's source: an IPv4
// address in its 4-byte form, whichever form a holds it in, so a reply
// from an IPv4 peer matches on an IPv4 and on a dual-stack socket alike.
// An address without an IP (":port") is IPv4's unspecified address, the
// local host, as WriteToUDP sends to it.
func addrPort(a *net.UDPAddr) netip.AddrPort {
	ip, ok := netip.AddrFromSlice(a.IP)
	if !ok {
		ip = netip.IPv4Unspecified()
	}
	return netip.AddrPortFrom(ip.Unmap().WithZone(a.Zone), uint16(a.Port))
}

// sender returns the *net.UDPAddr the Handler is given for from, the same
// one for every datagram of a sender while the map holds it.
func (c *Conn) sender(from netip.AddrPort) *net.UDPAddr {
	a := c.senders[from]
	if a == nil {
		if len(c.senders) >= maxSenders {
			clear(c.senders)
		}
		a = net.UDPAddrFromAddrPort(from)
		c.senders[from] = a
	}
	return a
}

func (c *Conn) readLoop() {
	defer close(c.done)
	buf := make([]byte, MaxDatagram)
	var dec Decoder
	for {
		n, raw, err := c.pc.ReadFromUDPAddrPort(buf)
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
		m, url, obj, err := dec.decode(buf[:n])
		if err != nil {
			c.undecodable.Add(1)
			continue
		}
		from := netip.AddrPortFrom(raw.Addr().Unmap(), raw.Port())
		if isReply(m.Op) {
			c.deliver(m, url, obj, from)
			continue
		}
		if c.handler != nil {
			m.URL = string(url)
			c.handler(c.sender(from), m)
		}
	}
}

// deliver hands a reply to the query waiting on its request number, if one
// is. Reply opcodes carry no DirUpdate payload, and nothing is copied out
// of the datagram but one object: a URL naming the one asked shares the
// waiter's string (empty for a query asked with bytes), any other leaves
// the Message's URL empty, and a
// HIT_OBJ's object is copied into the waiter's destination only from the
// flagged peer, only once, and only when it names the URL asked. Every
// other HIT_OBJ becomes a plain HIT, its object dropped uncopied, so
// neither a late, duplicated, unasked or unflagged reply nor a reply
// naming another URL allocates. The copy and the send happen under c.mu,
// so a query's release knows nothing reaches its channel or destination
// once the entry is gone. It never blocks: a full channel drops the
// surplus copy.
func (c *Conn) deliver(m Message, url, obj []byte, from netip.AddrPort) {
	c.mu.Lock()
	w := c.pending[m.ReqNum]
	if w != nil {
		named := w.names(url)
		if named {
			m.URL = w.url
		}
		if m.Op == OpHitObj {
			if named && from == w.objFrom {
				m.Object, w.objFrom = append(w.obj[:0], obj...), netip.AddrPort{}
			} else {
				m.Op, m.OptionData = OpHit, 0
			}
		}
		select {
		case w.ch <- reply{m: m, from: from}:
		default:
		}
	}
	c.mu.Unlock()
	if w == nil {
		c.late.Add(1) // its query already resolved or timed out
	}
}

func isReply(op Opcode) bool {
	switch op {
	case OpHit, OpMiss, OpMissNoFetch, OpDenied, OpErr, OpHitObj:
		return true
	}
	return false
}
