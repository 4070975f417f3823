package httpproxy

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"summarycache/internal/http1"
)

// Client-listener limits.
const (
	// smallBody is the largest body copied behind the response head into
	// one buffer; a larger one goes out beside the head in one writev.
	smallBody = 4 << 10
	// hangUpProbe is how long clientGone waits for the client's socket to
	// report EOF. A deadline already past makes the poller report a timeout
	// without attempting the read, so it would never see the hang-up.
	hangUpProbe = time.Millisecond
)

// clientConn is one accepted client connection. Its goroutine reads each
// request head, runs the handler inline and writes the response, so the
// reader, the response buffer and the socket have one owner.
type clientConn struct {
	p   *Proxy
	nc  net.Conn
	br  *bufio.Reader
	ctx context.Context // the proxy's lifetime context, carrying the conn for clientGone

	out  []byte      // response head, plus a small body
	bufs [2][]byte   // head and a large body
	vec  net.Buffers // bufs, consumed by one writev
	date http1.Date

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

// serveClient serves one client connection until it ends.
func (p *Proxy) serveClient(nc net.Conn) {
	c := &clientConn{p: p, nc: nc, br: bufio.NewReader(nc), out: make([]byte, 0, smallBody+512)}
	c.ctx = context.WithValue(p.ctx, clientConnKey{}, c)
	c.serve()
}

// serve runs the connection's request loop: wait for a head
// (DefaultIdleTimeout between requests; ReadHeaderTimeout on a new connection, as net/http),
// read it under ReadHeaderTimeout from its first byte, answer it, repeat.
func (c *clientConn) serve() {
	for wait := c.p.readHeaderTimeout; ; wait = DefaultIdleTimeout {
		if c.setReadDeadline(wait) != nil {
			return
		}
		if _, err := c.br.Peek(1); err != nil {
			return
		}
		// A head already buffered whole is read without another read from
		// the connection, so it needs no deadline of its own.
		if b, _ := c.br.Peek(c.br.Buffered()); http1.HeadEnd(b, 0) < 0 {
			if c.setReadDeadline(c.p.readHeaderTimeout) != nil {
				return
			}
		}
		head, err := http1.ReadHead(c.br, http1.MaxHeadBytes)
		if errors.Is(err, http1.ErrHeadTooLarge) {
			c.refuse(http.StatusRequestHeaderFieldsTooLarge)
			return
		}
		if err != nil {
			return // a timeout, EOF or reset mid-head: nobody to answer
		}
		h, status := http1.ParseRequest(head)
		if status != 0 {
			c.refuse(status)
			return
		}
		path, rawQuery, abs, ok := requestTarget(h.Target)
		if !ok {
			c.refuse(http.StatusBadRequest)
			return
		}
		c.head = string(h.Method) == http.MethodHead
		c.keepAlive = h.HTTP10 && !h.Close
		// No handler reads a body: one that came is left unread, and the
		// connection closes after the response.
		c.close = h.Close || h.HasBody
		if !c.dispatch(path, rawQuery, abs) || c.flush() != nil {
			return
		}
		if c.close {
			http1.Linger(c.nc, c.br)
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
		http1.Linger(c.nc, c.br)
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
	if c.ctype == "" {
		c.ctype = http.DetectContentType(c.body)
	}
	b := strconv.AppendInt(append(c.out[:0], "HTTP/1.1 "...), int64(c.status), 10)
	b = append(append(append(b, ' '), http.StatusText(c.status)...), "\r\nContent-Type: "...)
	b = c.date.Append(append(append(b, c.ctype...), "\r\nDate: "...))
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
