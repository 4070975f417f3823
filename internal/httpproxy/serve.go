package httpproxy

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Client-listener limits.
const (
	// maxHeadBytes bounds a request head, request line included: net/http's
	// DefaultMaxHeaderBytes plus the 4 KiB its server allows on top.
	maxHeadBytes = http.DefaultMaxHeaderBytes + 4<<10
	// smallBody is the largest body copied behind the response head into
	// one buffer; a larger one goes out beside the head in one writev.
	smallBody = 4 << 10
	// lingerTime bounds how long a connection closing after its last
	// response drains what the client still sends: closing a socket with
	// unread input resets it, which can destroy the response in flight.
	lingerTime = 500 * time.Millisecond
	lingerMax  = 256 << 10
	// hangUpProbe is how long clientGone waits for the client's socket to
	// report EOF. A deadline already past makes the poller report a timeout
	// without attempting the read, so it would never see the hang-up.
	hangUpProbe = time.Millisecond
)

// errHeadTooLarge: a head longer than its limit: a request head (answered
// 431), or an upstream response head or chunked trailer.
var errHeadTooLarge = errors.New("httpproxy: head too large")

// clientConn is one accepted client connection. Its goroutine reads each
// request head, runs the handler inline and writes the response, so the
// reader, the response buffer and the socket have one owner.
type clientConn struct {
	p   *Proxy
	nc  net.Conn
	br  *bufio.Reader
	ctx context.Context // the proxy's lifetime context, carrying the conn for clientGone

	out     []byte      // response head, plus a small body
	bufs    [2][]byte   // head and a large body
	vec     net.Buffers // bufs, consumed by one writev
	date    []byte      // the Date value of second dateSec
	dateSec int64

	// The response the handler wrote, sent by flush.
	status  int
	ctype   string // "": sniffed
	version int64  // 0: no docVersionHeader
	body    []byte

	// Per request.
	head      bool // HEAD: the response carries no body
	keepAlive bool // HTTP/1.0 keep-alive: the response says so
	close     bool // the connection closes after the response
}

type clientConnKey struct{}

// acceptLoop serves the client listener until Close.
func (p *Proxy) acceptLoop() {
	var delay time.Duration
	for {
		nc, err := p.ln.Accept()
		if err != nil {
			if p.ctx.Err() != nil {
				return
			}
			// Out of file descriptors, say: back off as net/http does.
			delay = min(max(2*delay, 5*time.Millisecond), time.Second)
			time.Sleep(delay)
			continue
		}
		delay = 0
		c := &clientConn{p: p, nc: nc, br: bufio.NewReader(nc), out: make([]byte, 0, smallBody+512)}
		c.ctx = context.WithValue(p.ctx, clientConnKey{}, c)
		p.connMu.Lock()
		if p.conns == nil {
			p.connMu.Unlock()
			_ = nc.Close() // the proxy closed while this one was accepted
			return
		}
		p.conns[c] = struct{}{}
		p.connMu.Unlock()
		go c.serve()
	}
}

// closeClients closes the client listener and every client connection, and
// cancels the handlers' context, which ends their retry backoffs. A second
// call does nothing.
func (p *Proxy) closeClients() error {
	p.connMu.Lock()
	defer p.connMu.Unlock()
	if p.conns == nil {
		return nil
	}
	p.cancel()
	err := p.ln.Close()
	for c := range p.conns {
		_ = c.nc.Close() // its goroutine sees the error and exits
	}
	p.conns = nil
	return err
}

// serve runs the connection's request loop: wait for a head
// (DefaultIdleTimeout between requests; ReadHeaderTimeout on a new connection, as net/http),
// read it under ReadHeaderTimeout from its first byte, answer it, repeat.
func (c *clientConn) serve() {
	defer c.drop()
	for wait := c.p.readHeaderTimeout; ; wait = DefaultIdleTimeout {
		if c.setReadDeadline(wait) != nil {
			return
		}
		if _, err := c.br.Peek(1); err != nil {
			return
		}
		// A head already buffered whole is read without another read from
		// the connection, so it needs no deadline of its own.
		if b, _ := c.br.Peek(c.br.Buffered()); headEnd(b, 0) < 0 {
			if c.setReadDeadline(c.p.readHeaderTimeout) != nil {
				return
			}
		}
		head, err := readHead(c.br, maxHeadBytes)
		if errors.Is(err, errHeadTooLarge) {
			c.refuse(http.StatusRequestHeaderFieldsTooLarge)
			return
		}
		if err != nil {
			return // a timeout, EOF or reset mid-head: nobody to answer
		}
		h, status := parseHead(head)
		if status != 0 {
			c.refuse(status)
			return
		}
		path, rawQuery, abs, ok := requestTarget(h.target)
		if !ok {
			c.refuse(http.StatusBadRequest)
			return
		}
		c.head = string(h.method) == http.MethodHead
		c.keepAlive = h.http10 && !h.close
		// No handler reads a body: one that came is left unread, and the
		// connection closes after the response.
		c.close = h.close || h.hasBody
		if !c.dispatch(path, rawQuery, abs) || c.flush() != nil {
			return
		}
		if c.close {
			c.linger()
			return
		}
	}
}

// dispatch runs the handler. A panic is recovered and logged, and closes
// the connection, as net/http does.
func (c *clientConn) dispatch(path, rawQuery []byte, abs string) (ok bool) {
	defer func() {
		if v := recover(); v != nil && c.p.cfg.Logger != nil {
			c.p.cfg.Logger.Error("panic serving client", "remote", c.nc.RemoteAddr().String(),
				"panic", v, "stack", string(debug.Stack()))
		}
	}()
	c.p.handle(c, path, rawQuery, abs)
	return true
}

// drop forgets and closes the connection.
func (c *clientConn) drop() {
	c.p.connMu.Lock()
	delete(c.p.conns, c)
	c.p.connMu.Unlock()
	_ = c.nc.Close() // the request loop has ended; nothing is left to report
}

func (c *clientConn) setReadDeadline(d time.Duration) error {
	var t time.Time
	if d > 0 {
		t = time.Now().Add(d)
	}
	return c.nc.SetReadDeadline(t)
}

// refuse answers a request that was not served and closes the connection.
func (c *clientConn) refuse(status int) {
	c.head, c.keepAlive, c.close = false, false, true
	c.writeError(status, http.StatusText(status))
	if c.flush() == nil {
		c.linger()
	}
}

// linger ends a connection after its last response: it sends FIN, then
// drops what the client still sends until EOF, for at most lingerTime and
// lingerMax bytes.
func (c *clientConn) linger() {
	if cw, ok := c.nc.(interface{ CloseWrite() error }); ok {
		_ = cw.CloseWrite() // best effort: the close that follows still ends the connection
	}
	if c.setReadDeadline(lingerTime) == nil {
		_, _ = io.CopyN(io.Discard, c.br, lingerMax) // ends at EOF, the deadline or the bound
	}
}

// clientGone reports whether the client whose request ctx serves has hung
// up. It runs on the handler's goroutine, which owns the reader, and waits
// at most hangUpProbe: EOF or a reset means gone; a timeout, or pipelined
// bytes already buffered, means the client is still there. Without a
// client connection in ctx it reports false.
func clientGone(ctx context.Context) bool {
	c, _ := ctx.Value(clientConnKey{}).(*clientConn)
	if c == nil || c.br.Buffered() > 0 {
		return false
	}
	if c.setReadDeadline(hangUpProbe) != nil {
		return true // closed by Close
	}
	_, err := c.br.Peek(1)
	return err != nil && !errors.Is(err, os.ErrDeadlineExceeded)
}

// writeDoc answers 200 with body of Content-Type ctype ("": sniffed); a
// non-zero version rides the docVersionHeader.
func (c *clientConn) writeDoc(body []byte, ctype string, version int64) {
	c.write(http.StatusOK, ctype, version, body)
}

// writeError answers status with a plain-text message, as http.Error does.
func (c *clientConn) writeError(status int, msg string) {
	c.write(status, "text/plain; charset=utf-8", 0, []byte(msg+"\n"))
}

// write records the response to the current request. flush sends it once
// the handler has returned, as net/http sends what a handler wrote.
func (c *clientConn) write(status int, ctype string, version int64, body []byte) {
	c.status, c.ctype, c.version, c.body = status, ctype, version, body
}

// flush sends the recorded response, with Date and an exact
// Content-Length, in one write, or with a body over smallBody in one
// writev. An empty ctype is sniffed from the body, as net/http does for a
// handler that set none.
func (c *clientConn) flush() error {
	if now := time.Now(); now.Unix() != c.dateSec {
		c.dateSec = now.Unix()
		c.date = now.UTC().AppendFormat(c.date[:0], http.TimeFormat)
	}
	if c.ctype == "" {
		c.ctype = http.DetectContentType(c.body)
	}
	b := strconv.AppendInt(append(c.out[:0], "HTTP/1.1 "...), int64(c.status), 10)
	b = append(append(append(b, ' '), http.StatusText(c.status)...), "\r\nContent-Type: "...)
	b = append(append(append(b, c.ctype...), "\r\nDate: "...), c.date...)
	b = strconv.AppendInt(append(b, "\r\nContent-Length: "...), int64(len(c.body)), 10)
	if c.version != 0 {
		b = strconv.AppendInt(append(b, "\r\n"+docVersionHeader+": "...), c.version, 10)
	}
	switch {
	case c.close:
		b = append(b, "\r\nConnection: close"...)
	case c.keepAlive:
		b = append(b, "\r\nConnection: keep-alive"...)
	}
	b = append(b, "\r\n\r\n"...)
	body := c.body
	if c.head {
		body = nil
	}
	var err error
	if len(body) <= smallBody {
		b = append(b, body...)
		_, err = c.nc.Write(b)
	} else {
		c.bufs = [2][]byte{b, body}
		c.vec = c.bufs[:]
		_, err = c.vec.WriteTo(c.nc)
	}
	c.out, c.body = b, nil // the body is not kept past its response
	return err
}

// readHead reads the next head — a request head, a response head or a
// chunked trailer — from br through its blank line and consumes it, never
// more. A head that fits br's buffer is returned in place, valid until
// br's next read; a longer one is copied out line by line. A head over
// limit bytes is errHeadTooLarge.
func readHead(br *bufio.Reader, limit int) ([]byte, error) {
	for scanned := 0; ; {
		b, _ := br.Peek(br.Buffered())
		if i := headEnd(b, scanned); i >= 0 {
			if i > limit {
				return nil, errHeadTooLarge
			}
			_, _ = br.Discard(i) // i bytes are buffered
			return b[:i], nil
		}
		if len(b) > limit {
			return nil, errHeadTooLarge
		}
		if len(b) == br.Size() {
			break
		}
		scanned = len(b)
		if _, err := br.Peek(len(b) + 1); err != nil {
			return nil, err
		}
	}
	var head []byte
	for start, atStart := 0, true; ; {
		line, err := br.ReadSlice('\n')
		if len(head)+len(line) > limit {
			return nil, errHeadTooLarge
		}
		if atStart {
			start = len(head)
		}
		if n := len(head) + len(line); n > cap(head) {
			// Double, capped at limit: append's 1.25× growth would
			// allocate about 5× limit for a head that reaches it.
			head = slices.Grow(head, min(n, limit-len(head)))
		}
		head = append(head, line...)
		if atStart = err == nil; err == bufio.ErrBufferFull {
			continue
		}
		if err != nil {
			return nil, err
		}
		if l := head[start:]; len(l) == 1 || len(l) == 2 && l[0] == '\r' {
			return head, nil
		}
	}
}

// headEnd returns the length of the head in b, through the LF that ends its
// first empty line ("\n" or "\r\n"), or -1. It looks at LFs from index from.
func headEnd(b []byte, from int) int {
	for i := from; i < len(b); i++ {
		j := bytes.IndexByte(b[i:], '\n')
		if j < 0 {
			return -1
		}
		i += j
		if i == 0 || b[i-1] == '\n' || b[i-1] == '\r' && (i == 1 || b[i-2] == '\n') {
			return i + 1
		}
	}
	return -1
}

// requestHead is a parsed request head; its slices alias the head.
type requestHead struct {
	method, target, host []byte
	http10               bool // HTTP/1.0, else HTTP/1.1
	close                bool // the client asked to close after the response
	hasBody              bool // a Content-Length over 0, or chunked
}

// parseHead parses a request head that readHead returned. A non-zero status
// refuses it. It accepts only heads http.ReadRequest accepts, and refuses
// more: another version than HTTP/1.0 or 1.1, an HTTP/1.1 head without
// exactly one Host, obs-folded or nameless header lines, a header name with
// spaces, more than one Content-Length or Transfer-Encoding, both at once,
// a Transfer-Encoding other than chunked, and CONNECT's authority form.
func parseHead(head []byte) (h requestHead, status int) {
	line, rest := cutLine(head)
	method, line, ok1 := bytes.Cut(line, []byte(" "))
	target, proto, ok2 := bytes.Cut(line, []byte(" "))
	if !ok1 || !ok2 || !isToken(method) || len(target) == 0 || hasCTL(target, false) {
		return h, http.StatusBadRequest
	}
	if string(method) == http.MethodConnect && target[0] != '/' {
		return h, http.StatusBadRequest // no tunnels
	}
	switch string(proto) {
	case "HTTP/1.1":
	case "HTTP/1.0":
		h.http10 = true
	default:
		if bytes.HasPrefix(proto, []byte("HTTP/")) {
			return h, http.StatusHTTPVersionNotSupported
		}
		return h, http.StatusBadRequest
	}
	h.method, h.target = method, target
	var hosts, lengths, encodings int
	keepAlive := false
	for {
		line, rest = cutLine(rest)
		if len(line) == 0 {
			break
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		value = bytes.Trim(value, " \t")
		if !ok || !isToken(name) || hasCTL(value, true) {
			return h, http.StatusBadRequest
		}
		switch {
		case equalFold(name, "Host"):
			hosts++
			h.host = value
		case equalFold(name, "Content-Length"):
			lengths++
			if len(value) == 0 || len(value) > 18 || len(bytes.TrimLeft(value, "0123456789")) > 0 {
				return h, http.StatusBadRequest // not a length net/http would parse
			}
			h.hasBody = h.hasBody || len(bytes.TrimLeft(value, "0")) > 0
		case equalFold(name, "Transfer-Encoding"):
			encodings++
			if !equalFold(value, "chunked") {
				return h, http.StatusBadRequest
			}
			h.hasBody = true
		case equalFold(name, "Connection"):
			h.close = h.close || hasToken(value, "close")
			keepAlive = keepAlive || hasToken(value, "keep-alive")
		}
	}
	if hosts > 1 || hosts == 0 && !h.http10 || lengths+encodings > 1 {
		return h, http.StatusBadRequest
	}
	h.close = h.close || h.http10 && !keepAlive
	return h, 0
}

// requestTarget splits a request-target as net/http's server does, into
// its unescaped path, its raw query and, for an absolute URL, the URL as
// url.ParseRequestURI's String writes it (abs; "" for any other form). An
// origin-form target ("/path?query") is split by hand, in place in the
// head's bytes, and so is an absolute one plainTarget accepts, which is
// its own abs (FuzzTargetCheck); any other form goes through
// url.ParseRequestURI. The path is unescaped only when it has an escape.
// ok is false for a target net/http refuses. An origin-form target with an
// unescaped path allocates nothing, a plain absolute one only abs.
func requestTarget(target []byte) (path, rawQuery []byte, abs string, ok bool) {
	if target[0] != '/' {
		abs = string(target)
		n, plain := plainTarget(abs)
		if !plain {
			u, err := url.ParseRequestURI(abs)
			if err != nil {
				return nil, nil, "", false
			}
			if abs = ""; u.IsAbs() {
				abs = u.String()
			}
			return []byte(u.Path), []byte(u.RawQuery), abs, true
		}
		target = target[n:]
	}
	path, rawQuery, _ = bytes.Cut(target, []byte("?"))
	if bytes.IndexByte(path, '%') >= 0 {
		p, ok := unescape(path, false)
		if !ok {
			return nil, nil, "", false
		}
		path = []byte(p)
	}
	return path, rawQuery, abs, true
}

// unescape decodes s as url.QueryUnescape (query) or url.PathUnescape
// does, into one new string of exactly the decoded length (a target is
// kept as a cache key): each %XX is the byte it names, and in a query
// component '+' is a space. ok is false on a '%' not followed by two hex
// digits.
func unescape(s []byte, query bool) (_ string, ok bool) {
	escapes, plus := 0, false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '%':
			if i+2 >= len(s) || !isHex(s[i+1]) || !isHex(s[i+2]) {
				return "", false
			}
			escapes++
			i += 2
		case '+':
			plus = plus || query
		}
	}
	if escapes == 0 && !plus {
		return string(s), true
	}
	var b strings.Builder
	b.Grow(len(s) - 2*escapes)
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '%':
			c = unhex(s[i+1])<<4 | unhex(s[i+2])
			i += 2
		case c == '+' && query:
			c = ' '
		}
		b.WriteByte(c)
	}
	return b.String(), true
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// unhex returns the value of the hex digit c.
func unhex(c byte) byte {
	switch {
	case c <= '9':
		return c - '0'
	case c <= 'F':
		return c - 'A' + 10
	}
	return c - 'a' + 10
}

// cutLine splits b after its first LF, dropping the line's "\n" or "\r\n".
func cutLine(b []byte) (line, rest []byte) {
	line, rest, _ = bytes.Cut(b, []byte("\n"))
	return bytes.TrimSuffix(line, []byte("\r")), rest
}

// tchar marks the bytes of an RFC 7230 token.
var tchar = func() (t [256]bool) {
	for c := range t {
		t[c] = '0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' ||
			strings.IndexByte("!#$%&'*+-.^_`|~", byte(c)) >= 0
	}
	return t
}()

func isToken(b []byte) bool {
	for _, c := range b {
		if !tchar[c] {
			return false
		}
	}
	return len(b) > 0
}

// hasCTL reports whether b has a control byte (HTAB allowed when tab).
func hasCTL(b []byte, tab bool) bool {
	for _, c := range b {
		if c < ' ' && !(tab && c == '\t') || c == 0x7f {
			return true
		}
	}
	return false
}

// equalFold is case-insensitive equality with an ASCII token s, as net/http
// compares tokens. Equal lengths keep Unicode folding out: the only runes
// that fold to ASCII letters (ſ, K) are longer than one byte.
func equalFold(b []byte, s string) bool {
	return len(b) == len(s) && strings.EqualFold(string(b), s)
}

// hasToken reports whether the comma-separated header value v lists tok.
func hasToken(v []byte, tok string) bool {
	for len(v) > 0 {
		var elem []byte
		elem, v, _ = bytes.Cut(v, []byte(","))
		if equalFold(bytes.Trim(elem, " \t"), tok) {
			return true
		}
	}
	return false
}
