package httpproxy

import (
	"bufio"
	"bytes"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unicode/utf8"

	"summarycache/internal/faultnet"
	"summarycache/internal/http1"
)

// Upstream pool limits. An idle connection past idleConnTimeout is closed
// when a fetch next looks for one, so no reaper goroutine runs.
const (
	maxIdlePerHost  = 64
	idleConnTimeout = 30 * time.Second
	maxRequests     = 10 // per attempt, redirects included (http.Client's limit)
	max1xx          = 5  // informational responses skipped per request (net/http's limit)
)

// fetcher is the proxy's one HTTP client: every origin, parent and sibling
// fetch is a GET it runs on the calling goroutine over a per-host pool of
// keep-alive connections. It writes each request head from an upRequest:
// one cut from a plain target's own bytes, or one built from a *url.URL —
// a target outside plainTarget's subset, a redirect's Location, or a
// parent's or sibling's base URL, parsed once, whose url= parameter each
// fetch escapes into the head. It reads each response head with
// http1.ReadHead and parseResponseHead; net/http contributes only its
// status constants and httputil's chunked decoder.
type fetcher struct {
	timeout time.Duration        // per attempt: dial, headers and body; 0: unbounded
	faults  *faultnet.HTTPFaults // nil: no fault injection
	roots   *x509.CertPool       // https trust anchors; nil: the system's

	mu     sync.Mutex
	idle   map[poolKey][]*upConn // newest last
	closed bool
}

// poolKey is an upstream's host name (brackets stripped from an IPv6
// literal), its port (the scheme's default when the URL names none) and
// whether it speaks TLS.
type poolKey struct {
	host, port string
	tls        bool
}

type upConn struct {
	net.Conn
	key   poolKey
	br    *bufio.Reader    // reads the connection
	head  []byte           // request head, rebuilt per request
	lr    io.LimitedReader // a Content-Length body, over br
	relay relayBody        // a relayed body, over the reader body returned
	since time.Time        // when it went idle
}

var (
	// errUpstreamHeadTooLarge: a response head (a 1xx head included) that
	// did not end within http1.MaxHeadBytes of the connection.
	errUpstreamHeadTooLarge = errors.New("httpproxy: upstream response head too large")
	// errBadResponseHead: a response head parseResponseHead refused.
	errBadResponseHead = errors.New("httpproxy: malformed upstream response head")
)

// maxTrailerBytes bounds a chunked body's trailer, as net/http's 4 KiB
// read buffer does.
const maxTrailerBytes = 4 << 10

// responseHead is what the fetcher reads of an upstream response head.
type responseHead struct {
	status   int
	length   int64  // body bytes: 0 for 1xx, 204 and 304; -1: chunked or up to the close
	chunked  bool   // Transfer-Encoding: chunked, whatever the status
	close    bool   // the connection closes after the body
	version  int64  // docVersionHeader; 0: none or not a number
	location string // a 3xx's Location
}

// readResponseHead reads and parses one response head of at most
// http1.MaxHeadBytes.
func (c *upConn) readResponseHead() (responseHead, error) {
	head, err := http1.ReadHead(c.br, http1.MaxHeadBytes)
	switch {
	case errors.Is(err, http1.ErrHeadTooLarge):
		return responseHead{}, errUpstreamHeadTooLarge
	case err == io.EOF:
		return responseHead{}, io.ErrUnexpectedEOF // a response was due
	case err != nil:
		return responseHead{}, err
	}
	h, ok := parseResponseHead(head)
	if !ok {
		return h, errBadResponseHead
	}
	return h, nil
}

// body returns h's body as a reader over the connection: exactly h.length
// bytes, the chunked decoding, or everything up to the close.
func (c *upConn) body(h responseHead) io.Reader {
	switch {
	case h.length >= 0:
		c.lr = io.LimitedReader{R: c.br, N: h.length}
		return &c.lr
	case h.chunked:
		return &chunkedBody{r: httputil.NewChunkedReader(c.br), br: c.br}
	default:
		return c.br
	}
}

// relayBody reads a relayed body with each read bounded by timeout from its
// start (0: unbounded) in place of the attempt's one deadline. The client
// sets a relay's pace, so only an upstream that stalls for a whole timeout
// cuts it, however slowly the client reads.
type relayBody struct {
	conn    net.Conn
	r       io.Reader
	timeout time.Duration
}

func (b *relayBody) Read(p []byte) (int, error) {
	if b.timeout > 0 {
		if err := b.conn.SetReadDeadline(time.Now().Add(b.timeout)); err != nil {
			return 0, err
		}
	}
	return b.r.Read(p)
}

// chunkedBody decodes a chunked body and, after its last chunk, consumes
// the trailer within maxTrailerBytes, so io.EOF leaves the connection at
// the next response.
type chunkedBody struct {
	r  io.Reader     // the decoder over br
	br *bufio.Reader // nil once the trailer is consumed
}

func (b *chunkedBody) Read(p []byte) (int, error) {
	if b.br == nil {
		return 0, io.EOF
	}
	n, err := b.r.Read(p)
	if err == io.EOF {
		if _, err := http1.ReadHead(b.br, maxTrailerBytes); err != nil {
			return n, fmt.Errorf("httpproxy: reading the upstream chunked trailer: %w", err)
		}
		b.br = nil
	}
	return n, err
}

// parseResponseHead parses a response head that http1.ReadHead returned
// and frames its body as RFC 7230 §3.3.3 does for a GET. ok is false for a
// head it refuses. It accepts only heads http.ReadResponse accepts, and
// refuses more: another version than HTTP/1.0 or 1.1, a status line
// without one space before a three-digit code from 100, obs-folded or
// nameless header lines, a header name with spaces, more than one
// Content-Length or Transfer-Encoding, both at once, a Transfer-Encoding
// other than chunked or on HTTP/1.0, and a Trailer naming a framing header.
func parseResponseHead(head []byte) (h responseHead, ok bool) {
	line, rest := http1.CutLine(head)
	proto, line, _ := bytes.Cut(line, []byte(" "))
	code, _, _ := bytes.Cut(line, []byte(" "))
	http10 := string(proto) == "HTTP/1.0"
	if !http10 && string(proto) != "HTTP/1.1" || len(code) != 3 {
		return h, false
	}
	for _, d := range code {
		if d < '0' || d > '9' {
			return h, false
		}
		h.status = 10*h.status + int(d-'0')
	}
	if h.status < 100 {
		return h, false
	}
	var lengths, encodings int
	keepAlive := false
	for {
		line, rest = http1.CutLine(rest)
		if len(line) == 0 {
			break
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		value = bytes.Trim(value, " \t")
		if !ok || !http1.IsToken(name) || http1.HasCTL(value, true) {
			return h, false
		}
		switch {
		case http1.EqualFold(name, "Content-Length"):
			lengths++
			if len(value) == 0 || len(value) > 18 || len(bytes.TrimLeft(value, "0123456789")) > 0 {
				return h, false // not a length net/http would parse
			}
			for _, d := range value {
				h.length = 10*h.length + int64(d-'0')
			}
		case http1.EqualFold(name, "Transfer-Encoding"):
			encodings++
			if http10 || !http1.EqualFold(value, "chunked") {
				return h, false
			}
			h.chunked = true
		case http1.EqualFold(name, "Connection"):
			h.close = h.close || http1.HasToken(value, "close")
			keepAlive = keepAlive || http1.HasToken(value, "keep-alive")
		case http1.EqualFold(name, "Trailer"):
			if http1.HasToken(value, "Content-Length") || http1.HasToken(value, "Transfer-Encoding") || http1.HasToken(value, "Trailer") {
				return h, false // net/http refuses these as trailers
			}
		case http1.EqualFold(name, docVersionHeader):
			h.version, _ = strconv.ParseInt(string(value), 10, 64)
		case http1.EqualFold(name, "Location") && h.status/100 == 3:
			h.location = string(value)
		}
	}
	if lengths+encodings > 1 {
		return h, false
	}
	h.close = h.close || http10 && !keepAlive
	switch {
	case h.status/100 == 1 || h.status == http.StatusNoContent || h.status == http.StatusNotModified:
		h.length = 0
	case h.chunked:
		h.length = -1
	case lengths == 0:
		h.length, h.close = -1, true // the body runs to the close
	}
	return h, true
}

// upRequest is one upstream GET: where it goes and its request-target.
// plainRequest builds it by slicing a plain target and urlRequest from a
// *url.URL; send writes the request line from it either way.
type upRequest struct {
	key      poolKey
	host     string // the Host header
	path     string // escaped; "" is "/"
	query    string // raw, after the '?'
	hasQuery bool   // the '?' is sent even when nothing follows it
	// A parent's or sibling's url= value, appended to query, query-escaped:
	// arg, or argBytes, a key held as bytes, which the request must not
	// outlive.
	arg      string
	argBytes []byte
}

// plainRequest is the request for a target plainTarget accepted, n being
// the length of its "http://host[:port]" prefix: url.Parse would read the
// same host, escaped path and raw query (FuzzTargetCheck). It allocates
// nothing.
func plainRequest(target string, n int) upRequest {
	r := upRequest{host: target[len("http://"):n]}
	var hasPort bool
	if r.key.host, r.key.port, hasPort = strings.Cut(r.host, ":"); !hasPort {
		r.key.port = "80"
	}
	r.path, r.query, r.hasQuery = strings.Cut(target[n:], "?")
	return r
}

// urlRequest is the request for u, with the pool key and the Host header
// net/http would send. url.Parse admits only valid ASCII host bytes, except
// what it unescapes: non-ASCII, which net/http would punycode, and an IPv6
// zone's '%'. Neither may reach the request head.
func urlRequest(u *url.URL) (r upRequest, err error) {
	if r.key.tls = u.Scheme == "https"; !r.key.tls && u.Scheme != "http" {
		return r, fmt.Errorf("httpproxy: unsupported protocol scheme %q", u.Scheme)
	}
	r.host = strings.TrimSuffix(u.Host, ":")
	if r.host == "" || strings.ContainsFunc(r.host, func(r rune) bool { return r >= utf8.RuneSelf || r == '%' }) {
		return r, fmt.Errorf("httpproxy: unsupported host %q", u.Host)
	}
	r.key.host, r.key.port = u.Hostname(), u.Port()
	if r.key.port == "" {
		r.key.port = "80"
		if r.key.tls {
			r.key.port = "443"
		}
	}
	r.path, r.query, r.hasQuery = u.EscapedPath(), u.RawQuery, u.ForceQuery || u.RawQuery != ""
	return r, nil
}

// relayFunc sends a 200 whose body is too large to cache to the client as
// it arrives: prefix, the bytes already read, then the rest of body,
// length bytes in all (-1: unknown). It reports whether it read body to its
// end, which leaves the upstream connection fit for reuse.
type relayFunc func(length int64, prefix []byte, body io.Reader) (drained bool, err error)

// get fetches r in one attempt, bounded by one connection deadline and
// following redirects; a relay's reads are each bounded by the timeout
// instead (relayBody). It reports the final status, with the version
// (docVersionHeader) of a 200 and its body when that is at most limit
// bytes; any other status's body is drained up to maxErrorDrain and
// dropped. A longer 200 body — declared so, or of unknown length and
// grown past limit — goes to relay with what was read of it, and get
// returns no body; without a relay it is an errBodyTooLarge. A non-nil
// error outranks the status.
func (f *fetcher) get(r upRequest, limit int64, relay relayFunc) (status int, body []byte, version int64, err error) {
	var deadline time.Time
	if f.timeout > 0 {
		deadline = time.Now().Add(f.timeout)
	}
	fault, err := f.faults.Attempt(f.timeout)
	if err != nil || fault == faultnet.Err5xx {
		return http.StatusServiceUnavailable, nil, 0, err
	}
	for requests := 1; ; requests++ {
		c, h, err := f.roundTrip(r, deadline)
		if err != nil {
			return 0, nil, 0, err
		}
		rd := c.body(h)
		if fault == faultnet.Truncate {
			rd = faultnet.TruncateBody(rd, h.length)
		}
		if h.status == http.StatusOK {
			body, err = readBodyLimit(h, rd, limit) // without error, read to its io.EOF
			drained := err == nil
			if errors.Is(err, errBodyTooLarge) && relay != nil {
				c.relay = relayBody{conn: c.Conn, r: rd, timeout: f.timeout}
				drained, err = relay(h.length, body, &c.relay)
				body = nil
			}
			f.release(c, h, drained && fault != faultnet.Truncate)
			return http.StatusOK, body, h.version, err
		}
		_, err = io.CopyN(io.Discard, rd, maxErrorDrain)
		f.release(c, h, err == io.EOF && fault != faultnet.Truncate)
		// Follow the redirects http.Client follows for a GET.
		loc, s := h.location, h.status
		if loc == "" || s < 301 || s > 308 || s == 304 || s == 305 || s == 306 {
			return s, nil, 0, nil
		}
		if requests == maxRequests {
			return 0, nil, 0, fmt.Errorf("httpproxy: stopped after %d redirects", maxRequests)
		}
		if r, err = redirect(r, loc); err != nil {
			return 0, nil, 0, err
		}
	}
}

// redirect is the request for loc, a Location that answered r, resolved
// against the URL r asked for.
func redirect(r upRequest, loc string) (upRequest, error) {
	base := "http://" + r.host + r.path
	if r.key.tls {
		base = "https://" + r.host + r.path
	}
	if r.hasQuery {
		base += "?" + r.query + url.QueryEscape(r.arg+string(r.argBytes))
	}
	u, err := url.Parse(base)
	if err == nil {
		u, err = u.Parse(loc)
	}
	if err != nil {
		return r, err
	}
	return urlRequest(u)
}

// roundTrip sends a GET for r on a pooled or new connection and reads the
// final response head. A pooled connection that fails before the first
// response byte — the peer closed it while it sat idle — is replaced by one
// fresh dial, which is not a retry.
func (f *fetcher) roundTrip(r upRequest, deadline time.Time) (*upConn, responseHead, error) {
	c, err := f.take(r.key)
	for reused := c != nil; err == nil; reused = false {
		if c == nil {
			if c, err = f.dial(r.key, deadline); err != nil {
				break
			}
		}
		if err = c.send(r, deadline); err == nil {
			break
		}
		_ = c.Close() // the send error is the one to report
		c = nil
		// EOF, reset or broken pipe: the peer closed it while it sat idle.
		if reused && (errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)) {
			err = nil // dial afresh
		}
	}
	if err != nil {
		return nil, responseHead{}, err
	}
	h, err := c.readResponseHead()
	for skipped := 0; err == nil && h.status/100 == 1; skipped++ {
		if skipped == max1xx {
			err = errors.New("httpproxy: too many 1xx informational responses")
			break
		}
		h, err = c.readResponseHead()
	}
	if err != nil {
		_ = c.Close() // the read error is the one to report
		return nil, responseHead{}, err
	}
	return c, h, nil
}

// take pops the newest idle connection to key (nil: none). When the newest
// has idled too long, so have all the older ones: it closes them all.
func (f *fetcher) take(key poolKey) (*upConn, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, errors.New("httpproxy: upstream fetcher closed")
	}
	conns := f.idle[key]
	n := len(conns)
	if n == 0 {
		return nil, nil
	}
	if time.Since(conns[n-1].since) > idleConnTimeout {
		for _, c := range conns {
			_ = c.Close() // an expired connection has nothing left to say
		}
		delete(f.idle, key)
		return nil, nil
	}
	c := conns[n-1]
	conns[n-1] = nil
	f.idle[key] = conns[:n-1]
	return c, nil
}

// dial connects to key, through crypto/tls (HTTP/1.1 only) when key says so.
func (f *fetcher) dial(key poolKey, deadline time.Time) (*upConn, error) {
	conn, err := (&net.Dialer{Deadline: deadline}).Dial("tcp", net.JoinHostPort(key.host, key.port))
	if err == nil && key.tls {
		tc := tls.Client(conn, &tls.Config{ServerName: key.host, RootCAs: f.roots, NextProtos: []string{"http/1.1"}})
		if err = tc.SetDeadline(deadline); err == nil {
			err = tc.Handshake()
		}
		if err != nil {
			_ = conn.Close() // the handshake error is the one to report
		}
		conn = tc
	}
	if err != nil {
		return nil, err
	}
	return &upConn{Conn: conn, key: key, br: bufio.NewReader(conn)}, nil
}

// send writes the request head for r in one Write and waits for the first
// response byte.
func (c *upConn) send(r upRequest, deadline time.Time) error {
	if err := c.SetDeadline(deadline); err != nil {
		return err
	}
	c.head = r.appendHead(c.head[:0])
	if _, err := c.Write(c.head); err != nil {
		return err
	}
	_, err := c.br.Peek(1)
	return err
}

// appendHead appends r's request head. The request-target is r's escaped
// path and raw query with every control, space and non-ASCII byte
// percent-encoded, so no target can split the request line or add a
// header, and then r.arg or r.argBytes query-escaped.
func (r upRequest) appendHead(b []byte) []byte {
	b = append(b, "GET "...)
	if r.path == "" {
		b = append(b, '/')
	}
	b = appendEscaped(b, r.path)
	if r.hasQuery {
		b = appendQueryEscape(appendEscaped(append(b, '?'), r.query), r.arg)
		b = appendQueryEscape(b, r.argBytes)
	}
	return append(append(append(b, " HTTP/1.1\r\nHost: "...), r.host...), "\r\n\r\n"...)
}

const upperHex = "0123456789ABCDEF"

func appendEscaped(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c <= ' ' || c >= 0x7f {
			b = append(b, '%', upperHex[c>>4], upperHex[c&15])
		} else {
			b = append(b, c)
		}
	}
	return b
}

// appendQueryEscape appends s escaped as url.QueryEscape escapes it
// (FuzzQueryEscape): letters, digits and "-_.~" stand for themselves, a
// space is '+', and every other byte is %XX. s is a string or bytes.
func appendQueryEscape[T string | []byte](b []byte, s T) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case isAlnum(c) || c == '-' || c == '_' || c == '.' || c == '~':
			b = append(b, c)
		case c == ' ':
			b = append(b, '+')
		default:
			b = append(b, '%', upperHex[c>>4], upperHex[c&15])
		}
	}
	return b
}

// release pools c when the response with head h was read cleanly to its
// end — the body reached io.EOF (clean), the response did not ask to
// close, and no byte is buffered past it — and closes it otherwise.
func (f *fetcher) release(c *upConn, h responseHead, clean bool) {
	if clean && !h.close && c.br.Buffered() == 0 {
		f.mu.Lock()
		defer f.mu.Unlock()
		if conns := f.idle[c.key]; !f.closed && len(conns) < maxIdlePerHost {
			c.since = time.Now()
			f.idle[c.key] = append(conns, c)
			return
		}
	}
	_ = c.Close() // a connection not worth keeping has nothing to report
}

// close closes every idle connection and stops the fetcher pooling or
// dialing; a connection in use is closed when it is released.
func (f *fetcher) close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, conns := range f.idle {
		for _, c := range conns {
			_ = c.Close() // shutdown: nothing is waiting on these
		}
	}
	f.idle, f.closed = nil, true
}
