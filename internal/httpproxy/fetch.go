package httpproxy

import (
	"bufio"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unicode/utf8"

	"summarycache/internal/faultnet"
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
// keep-alive connections. net/http contributes only its response parser.
type fetcher struct {
	timeout time.Duration        // per attempt: dial, headers and body; 0: unbounded
	faults  *faultnet.HTTPFaults // nil: no fault injection
	roots   *x509.CertPool       // https trust anchors; nil: the system's

	mu     sync.Mutex
	idle   map[poolKey][]*upConn // newest last
	closed bool
}

// poolKey is an upstream's dial address and whether it speaks TLS.
type poolKey struct {
	addr string
	tls  bool
}

type upConn struct {
	net.Conn
	key   poolKey
	br    *bufio.Reader // reads the connection through Read
	head  []byte        // request head, rebuilt per request
	since time.Time     // when it went idle
	// headLeft bounds a response-head read: the bytes br may still pull
	// from the connection for it. Negative: no head read is armed.
	headLeft int
}

// errUpstreamHeadTooLarge: a response head (a 1xx head included) that did
// not end within maxHeadBytes of the connection.
var errUpstreamHeadTooLarge = errors.New("httpproxy: upstream response head too large")

// Read is the connection as br sees it: while a head read is armed, it
// pulls at most headLeft more bytes and fails past them.
func (c *upConn) Read(p []byte) (int, error) {
	if c.headLeft < 0 {
		return c.Conn.Read(p)
	}
	if c.headLeft == 0 {
		return 0, errUpstreamHeadTooLarge
	}
	if len(p) > c.headLeft {
		p = p[:c.headLeft]
	}
	n, err := c.Conn.Read(p)
	c.headLeft -= n
	return n, err
}

// readHead reads one response head from at most maxHeadBytes: what br
// already holds and what it may still pull from the connection.
func (c *upConn) readHead() (*http.Response, error) {
	c.headLeft = maxHeadBytes - c.br.Buffered()
	resp, err := http.ReadResponse(c.br, nil)
	c.headLeft = -1
	return resp, err
}

// get fetches rawURL in one attempt, bounded by one connection deadline
// and following redirects. It reports the final status, with the body and
// version (docVersionHeader) of a 200; any other body is drained up to
// maxErrorDrain and dropped. A non-nil error outranks the status.
func (f *fetcher) get(rawURL string) (status int, body []byte, version int64, err error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return 0, nil, 0, err
	}
	var deadline time.Time
	if f.timeout > 0 {
		deadline = time.Now().Add(f.timeout)
	}
	fault, err := f.faults.Attempt(f.timeout)
	if err != nil || fault == faultnet.Err5xx {
		return http.StatusServiceUnavailable, nil, 0, err
	}
	for requests := 1; ; requests++ {
		c, resp, err := f.roundTrip(u, deadline)
		if err != nil {
			return 0, nil, 0, err
		}
		if fault == faultnet.Truncate {
			resp.Body = io.NopCloser(faultnet.TruncateBody(resp.Body, resp.ContentLength))
		}
		if resp.StatusCode == http.StatusOK {
			body, err = readBodyLimit(resp, maxDeclaredBody) // without error, read to its io.EOF
			f.release(c, resp, err == nil && fault != faultnet.Truncate)
			version, _ = strconv.ParseInt(resp.Header.Get(docVersionHeader), 10, 64)
			return http.StatusOK, body, version, err
		}
		_, err = io.CopyN(io.Discard, resp.Body, maxErrorDrain)
		f.release(c, resp, err == io.EOF && fault != faultnet.Truncate)
		// Follow the redirects http.Client follows for a GET.
		loc, s := resp.Header.Get("Location"), resp.StatusCode
		if loc == "" || s < 301 || s > 308 || s == 304 || s == 305 || s == 306 {
			return s, nil, 0, nil
		}
		if requests == maxRequests {
			return 0, nil, 0, fmt.Errorf("httpproxy: stopped after %d redirects", maxRequests)
		}
		if u, err = u.Parse(loc); err != nil {
			return 0, nil, 0, err
		}
	}
}

// roundTrip sends a GET for u on a pooled or new connection and reads the
// final response head. A pooled connection that fails before the first
// response byte — the peer closed it while it sat idle — is replaced by one
// fresh dial, which is not a retry.
func (f *fetcher) roundTrip(u *url.URL, deadline time.Time) (*upConn, *http.Response, error) {
	key, host, err := endpoint(u)
	if err != nil {
		return nil, nil, err
	}
	c, err := f.take(key)
	for reused := c != nil; err == nil; reused = false {
		if c == nil {
			if c, err = f.dial(key, u.Hostname(), deadline); err != nil {
				break
			}
		}
		if err = c.send(u, host, deadline); err == nil {
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
		return nil, nil, err
	}
	resp, err := c.readHead()
	for skipped := 0; err == nil && resp.StatusCode/100 == 1; skipped++ {
		if skipped == max1xx {
			err = errors.New("httpproxy: too many 1xx informational responses")
			break
		}
		resp, err = c.readHead()
	}
	if err != nil {
		_ = c.Close() // the read error is the one to report
		return nil, nil, err
	}
	return c, resp, nil
}

// endpoint derives u's pool key and the Host header net/http would send.
// url.Parse admits only valid ASCII host bytes, except what it unescapes:
// non-ASCII, which net/http would punycode, and an IPv6 zone's '%'. Neither
// may reach the request head.
func endpoint(u *url.URL) (key poolKey, host string, err error) {
	if key.tls = u.Scheme == "https"; !key.tls && u.Scheme != "http" {
		return key, "", fmt.Errorf("httpproxy: unsupported protocol scheme %q", u.Scheme)
	}
	host = strings.TrimSuffix(u.Host, ":")
	if host == "" || strings.ContainsFunc(host, func(r rune) bool { return r >= utf8.RuneSelf || r == '%' }) {
		return key, "", fmt.Errorf("httpproxy: unsupported host %q", u.Host)
	}
	if key.addr = host; u.Port() == "" {
		port := "80"
		if key.tls {
			port = "443"
		}
		key.addr = net.JoinHostPort(u.Hostname(), port)
	}
	return key, host, nil
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
func (f *fetcher) dial(key poolKey, serverName string, deadline time.Time) (*upConn, error) {
	conn, err := (&net.Dialer{Deadline: deadline}).Dial("tcp", key.addr)
	if err == nil && key.tls {
		tc := tls.Client(conn, &tls.Config{ServerName: serverName, RootCAs: f.roots, NextProtos: []string{"http/1.1"}})
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
	c := &upConn{Conn: conn, key: key, headLeft: -1}
	c.br = bufio.NewReader(c)
	return c, nil
}

// send writes the request head for u in one Write and waits for the first
// response byte. The request-target is u's escaped path and raw query with
// every control, space and non-ASCII byte percent-encoded, so no target can
// split the request line or add a header.
func (c *upConn) send(u *url.URL, host string, deadline time.Time) error {
	if err := c.SetDeadline(deadline); err != nil {
		return err
	}
	target := u.EscapedPath()
	if target == "" {
		target = "/"
	}
	b := appendEscaped(append(c.head[:0], "GET "...), target)
	if u.ForceQuery || u.RawQuery != "" {
		b = appendEscaped(append(b, '?'), u.RawQuery)
	}
	c.head = append(append(append(b, " HTTP/1.1\r\nHost: "...), host...), "\r\n\r\n"...)
	if _, err := c.Write(c.head); err != nil {
		return err
	}
	_, err := c.br.Peek(1)
	return err
}

func appendEscaped(b []byte, s string) []byte {
	const hex = "0123456789ABCDEF"
	for i := 0; i < len(s); i++ {
		if c := s[i]; c <= ' ' || c >= 0x7f {
			b = append(b, '%', hex[c>>4], hex[c&15])
		} else {
			b = append(b, c)
		}
	}
	return b
}

// release pools c when resp was read cleanly to its end — the body reached
// io.EOF (clean), the response did not ask to close, and no byte is
// buffered past it — and closes it otherwise.
func (f *fetcher) release(c *upConn, resp *http.Response, clean bool) {
	if clean && !resp.Close && c.br.Buffered() == 0 {
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
