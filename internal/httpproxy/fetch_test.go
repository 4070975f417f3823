package httpproxy

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"summarycache/internal/faultnet"
	"summarycache/internal/http1"
)

// rawOrigin is a TCP origin that records every request head it reads and
// answers each with a scripted raw response, so a test controls the bytes
// on the wire in both directions.
type rawOrigin struct {
	ln      net.Listener
	accepts atomic.Int64
	// reply is the raw response to a request for path; hangup closes the
	// connection after it is written.
	reply func(path string) (raw string, hangup bool)

	mu    sync.Mutex
	heads []string
	wg    sync.WaitGroup
}

func startRawOrigin(t *testing.T, reply func(path string) (string, bool)) *rawOrigin {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	o := &rawOrigin{ln: ln, reply: reply}
	o.wg.Add(1)
	go func() {
		defer o.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			o.accepts.Add(1)
			o.wg.Add(1)
			go o.serve(c)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		o.wg.Wait()
	})
	return o
}

func (o *rawOrigin) serve(c net.Conn) {
	defer o.wg.Done()
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(c)
	for {
		var head strings.Builder
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				return
			}
			head.WriteString(line)
			if line == "\r\n" {
				break
			}
		}
		o.mu.Lock()
		o.heads = append(o.heads, head.String())
		o.mu.Unlock()
		_, target, _ := strings.Cut(head.String(), " ")
		path, _, _ := strings.Cut(target, " ")
		raw, hangup := o.reply(path)
		if _, err := io.WriteString(c, raw); err != nil || hangup {
			return
		}
	}
}

func (o *rawOrigin) addr() string { return o.ln.Addr().String() }

// lastHead returns the most recent request head.
func (o *rawOrigin) lastHead() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.heads) == 0 {
		return ""
	}
	return o.heads[len(o.heads)-1]
}

// requests returns how many request heads the origin has read.
func (o *rawOrigin) requests() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.heads)
}

// proxyGet fetches target through p's explicit proxy form.
func proxyGet(t *testing.T, p *Proxy, target string) (status int, body string) {
	t.Helper()
	resp, err := http.Get(p.URL() + ProxyPath + "?url=" + url.QueryEscape(target))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func startNoneProxy(t *testing.T, cfg Config) *Proxy {
	t.Helper()
	cfg.Mode, cfg.CacheBytes = ModeNone, 1<<20
	p, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

const helloReply = "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello"

// TestRequestTargetOnTheWire sends hostile url= targets through the proxy
// to a raw origin. Each is either refused with 400 or reaches the origin as
// a request-target and Host that net/http's client sent for it too, except
// where noted: net/http writes a raw space or non-ASCII byte of a query as
// is, splitting or corrupting the request line, and sends userinfo as an
// Authorization header, which a shared cache must not forward. Through a
// parent, and from a sibling, each target that is served travels whole as
// the url= parameter, escaped as url.QueryEscape escapes it.
func TestRequestTargetOnTheWire(t *testing.T) {
	o := startRawOrigin(t, func(string) (string, bool) { return helloReply, false })
	p := startNoneProxy(t, Config{FetchRetries: -1})
	host := o.addr()
	check := func(t *testing.T, want string) {
		t.Helper()
		head := o.lastHead()
		want = "GET " + want + " HTTP/1.1\r\nHost: " + host + "\r\n"
		if !strings.HasPrefix(head, want) {
			t.Fatalf("origin read %q, want it to start %q", head, want)
		}
		if strings.Count(head, "\r\n") != 3 {
			t.Fatalf("origin read %q: want exactly the request line and Host", head)
		}
	}
	cases := []struct {
		name, target string
		want         string // request-target the origin reads; "": the proxy answers 400
	}{
		{"escaped space", "http://" + host + "/a%20b", "/a%20b"},
		{"raw space in path", "http://" + host + "/a b", "/a%20b"},
		{"raw space in query", "http://" + host + "/d?q=a b", "/d?q=a%20b"}, // net/http: "/d?q=a b"
		{"escaped CRLF in path", "http://" + host + "/a%0d%0aX-Injected:%20yes", "/a%0d%0aX-Injected:%20yes"},
		{"escaped CRLF in query", "http://" + host + "/d?x=%0d%0a", "/d?x=%0d%0a"},
		{"raw CRLF", "http://" + host + "/a\r\nX-Injected: yes", ""},
		{"escaped NUL", "http://" + host + "/a%00b", "/a%00b"},
		{"raw NUL", "http://" + host + "/a\x00b", ""},
		{"UTF-8 path", "http://" + host + "/café", "/caf%C3%A9"},
		{"UTF-8 query", "http://" + host + "/d?q=café", "/d?q=caf%C3%A9"}, // net/http: raw UTF-8
		{"fragment", "http://" + host + "/d#frag", "/d"},
		{"userinfo", "http://user:pass@" + host + "/d", "/d"}, // net/http adds Authorization
		{"empty path", "http://" + host, "/"},
		{"bare query", "http://" + host + "/d?", "/d?"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := o.requests()
			status, body := proxyGet(t, p, tc.target)
			if tc.want == "" {
				if status != http.StatusBadRequest || o.requests() != before {
					t.Fatalf("status %d, origin read %d requests; want 400 and none", status, o.requests()-before)
				}
				return
			}
			if status != http.StatusOK || body != "hello" {
				t.Fatalf("status %d body %q", status, body)
			}
			check(t, tc.want)
		})
	}

	child := startNoneProxy(t, Config{FetchRetries: -1, ParentURL: "http://" + host})
	sibling, err := Start(Config{Mode: ModeICP, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sibling.Close() })
	sib := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}
	if err := sibling.AddPeer(sib, "http://"+host); err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		if tc.want == "" {
			continue
		}
		t.Run("parent/"+tc.name, func(t *testing.T) {
			if status, body := proxyGet(t, child, tc.target); status != http.StatusOK || body != "hello" {
				t.Fatalf("status %d body %q", status, body)
			}
			check(t, ProxyPath+"?url="+url.QueryEscape(tc.target))
		})
		t.Run("sibling/"+tc.name, func(t *testing.T) {
			if body, _, ok := sibling.fetchPeer(context.Background(), sib.String(), sib, []byte(tc.target)); !ok || string(body) != "hello" {
				t.Fatalf("fetched %q, ok %v", body, ok)
			}
			check(t, CacheOnlyPath+"?url="+url.QueryEscape(tc.target))
		})
	}
}

// framingCases are the response framings TestResponseFramingAndReuse
// drives, and FuzzResponseHead's seeds.
var framingCases = []struct {
	name    string
	reply   string
	hangup  bool
	body    string // "" : each miss fails with 502
	retries uint64 // over both misses
	accepts int64  // over both misses
}{
	{"content-length", helloReply, false, "hello", 0, 1},
	{"chunked with trailer",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nTrailer: X-Sum\r\n\r\n" +
			"3\r\nhel\r\n2\r\nlo\r\n0\r\nX-Sum: 1\r\n\r\n", false, "hello", 0, 1},
	{"close-delimited HTTP/1.0", "HTTP/1.0 200 OK\r\n\r\nhello", true, "hello", 0, 2},
	{"connection close",
		"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 5\r\n\r\nhello", true, "hello", 0, 2},
	{"100 continue first",
		"HTTP/1.1 100 Continue\r\n\r\n" + helloReply, false, "hello", 0, 1},
	{"body longer than declared", helloReply + "EXTRA", false, "hello", 0, 2},
	{"truncated body",
		"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nhello", true, "", 4, 6},
	{"declared length over cap",
		fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", maxDeclaredBody+1), true, "", 4, 6},
	// A pooled connection the origin closed is redialed, not retried.
	{"origin closes idle connections", helloReply, true, "hello", 0, 2},
	// A 204 or 304 has no body, whatever its head declares, and a miss
	// answered so is permanent (no retry), on one pooled connection.
	{"204 no body", "HTTP/1.1 204 No Content\r\n\r\n", false, "", 0, 1},
	{"304 no body", "HTTP/1.1 304 Not Modified\r\nContent-Length: 5\r\n\r\n", false, "", 0, 1},
	{"HTTP/1.0 keep-alive",
		"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 5\r\n\r\nhello", false, "hello", 0, 1},
	{"no reason phrase", "HTTP/1.1 200\r\nContent-Length: 5\r\n\r\nhello", false, "hello", 0, 1},
	{"LF line endings", "HTTP/1.1 200 OK\nContent-Length: 5\n\nhello", false, "hello", 0, 1},
	// A refused head closes its connection and is retried like a truncation.
	{"differing content-lengths",
		"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nhello", false, "", 4, 6},
	// Refused, as a request head with both is: net/http would ignore the
	// length and read the chunks.
	{"chunked with content-length",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: 5\r\n\r\n5\r\nhello\r\n0\r\n\r\n", false, "", 4, 6},
}

// TestResponseFramingAndReuse drives each response framing a raw origin
// can send through two misses and checks what the client gets, the retries
// spent, and — from the origin's accept count — that a connection is
// reused only after a response read cleanly to its end.
func TestResponseFramingAndReuse(t *testing.T) {
	for _, tc := range framingCases {
		t.Run(tc.name, func(t *testing.T) {
			o := startRawOrigin(t, func(string) (string, bool) { return tc.reply, tc.hangup })
			p := startNoneProxy(t, Config{FetchRetries: 2, FetchBackoff: time.Millisecond})
			for _, path := range []string{"/a", "/b"} {
				status, body := proxyGet(t, p, "http://"+o.addr()+path)
				if tc.body == "" {
					if status != http.StatusBadGateway {
						t.Fatalf("%s: status %d, want 502", path, status)
					}
				} else if status != http.StatusOK || body != tc.body {
					t.Fatalf("%s: status %d body %q, want 200 %q", path, status, body, tc.body)
				}
			}
			if got := p.Stats().Retries; got != tc.retries {
				t.Errorf("Retries = %d, want %d", got, tc.retries)
			}
			if got := o.accepts.Load(); got != tc.accepts {
				t.Errorf("origin accepted %d connections, want %d", got, tc.accepts)
			}
		})
	}
}

// FuzzResponseHead checks the fetcher's head reader, http1's, and its
// parser against http.ReadResponse: it may refuse more, but never accepts a
// head net/http refuses; on heads both accept, status, declared length,
// chunked and close agree; and it never buffers past its bound.
func FuzzResponseHead(f *testing.F) {
	for _, tc := range framingCases {
		f.Add([]byte(tc.reply))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const limit, bufSize = 256, 16
		src := &countingReader{r: bytes.NewReader(data)}
		head, err := http1.ReadHead(bufio.NewReaderSize(src, bufSize), limit)
		if src.n > limit+bufSize {
			t.Fatalf("read %d bytes for a head bounded at %d", src.n, limit)
		}
		if err != nil {
			return
		}
		if len(head) > limit || !bytes.HasPrefix(data, head) {
			t.Fatalf("head %q is not a bounded prefix of the input", head)
		}
		h, ok := parseResponseHead(head)
		resp, err := http.ReadResponse(bufio.NewReader(bytes.NewReader(head)), nil)
		if !ok {
			return
		}
		if err != nil {
			t.Fatalf("accepted a head net/http refuses (%v): %q", err, head)
		}
		if h.status != resp.StatusCode || h.length != resp.ContentLength ||
			h.chunked != (len(resp.TransferEncoding) > 0) || h.close != resp.Close {
			t.Fatalf("parsed status %d length %d chunked=%v close=%v; net/http %d %d %v %v (%q)",
				h.status, h.length, h.chunked, h.close,
				resp.StatusCode, resp.ContentLength, resp.TransferEncoding, resp.Close, head)
		}
	})
}

// TestUpstreamHeadBounded: an upstream that streams header lines — in
// the final head, or in a 1xx head before it — is cut off once the head
// passes http1.MaxHeadBytes. The fetch fails, and what it allocated stays near
// that bound rather than growing with the stream: unbounded, such a head
// is buffered until the fetch deadline, hundreds of MiB in 2 s. The same
// holds for the two other lines of a chunked body, its trailer and a
// chunk-size line, each bounded at 4 KiB as net/http bounds them.
func TestUpstreamHeadBounded(t *testing.T) {
	const streamed = 8 * http1.MaxHeadBytes // bytes the upstream offers after first
	headerLine := "X-Pad: " + strings.Repeat("a", 4<<10) + "\r\n"
	const chunkedHead = "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
	for _, tc := range []struct {
		name, first, pad, rest string
		want                   error // nil: any error
	}{
		{"final head", "HTTP/1.1 200 OK\r\n", headerLine, "Content-Length: 5\r\n\r\nhello", errUpstreamHeadTooLarge},
		{"1xx head", "HTTP/1.1 100 Continue\r\n", headerLine, "\r\n" + helloReply, errUpstreamHeadTooLarge},
		{"chunked trailer", chunkedHead + "5\r\nhello\r\n0\r\n", headerLine, "\r\n", nil},
		{"chunk-size line", chunkedHead, strings.Repeat("0", 4<<10), "5\r\nhello\r\n0\r\n\r\n", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				c, err := ln.Accept()
				if err != nil {
					return
				}
				defer c.Close()
				c.SetDeadline(time.Now().Add(10 * time.Second))
				br := bufio.NewReader(c)
				for line := ""; line != "\r\n"; {
					if line, err = br.ReadString('\n'); err != nil {
						return
					}
				}
				pad := []byte(tc.pad)
				if _, err := io.WriteString(c, tc.first); err != nil {
					return
				}
				for sent := 0; sent < streamed; sent += len(pad) {
					if _, err := c.Write(pad); err != nil {
						return // the fetcher hung up
					}
				}
				io.WriteString(c, tc.rest)
			}()
			f := &fetcher{timeout: 5 * time.Second, idle: make(map[poolKey][]*upConn)}
			t.Cleanup(func() {
				f.close()
				ln.Close()
				<-done
			})

			target := "http://" + ln.Addr().String() + "/doc"
			n, _ := plainTarget(target)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			status, _, _, err := f.get(plainRequest(target, n), maxDeclaredBody, nil)
			runtime.ReadMemStats(&after)
			if err == nil || tc.want != nil && !errors.Is(err, tc.want) {
				t.Errorf("fetch = status %d, err %v; want %v", status, err, cmp.Or(tc.want, errors.New("an error")))
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 6*http1.MaxHeadBytes {
				t.Errorf("the fetch allocated %d bytes for a head of at most %d", alloc, http1.MaxHeadBytes)
			}
		})
	}
}

// TestCloseClosesUpstreamConns: Close leaves no upstream connection open.
// Idle pooled connections used to stay open, each with its Transport
// goroutines, until the idle timeout.
func TestCloseClosesUpstreamConns(t *testing.T) {
	var opened, closed atomic.Int64
	org := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "doc")
	}))
	org.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		switch s {
		case http.StateNew:
			opened.Add(1)
		case http.StateClosed:
			closed.Add(1)
		}
	}
	org.Start()
	t.Cleanup(org.Close)
	p, err := Start(Config{Mode: ModeNone, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(p.URL() + ProxyPath + "?url=" + url.QueryEscape(fmt.Sprintf("%s/doc%d", org.URL, i)))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
		}()
	}
	wg.Wait()
	if opened.Load() == 0 {
		t.Fatal("the proxy opened no origin connection")
	}
	p.Close()
	for deadline := time.Now().Add(time.Second); closed.Load() != opened.Load(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d origin connections still open 1s after Close", opened.Load()-closed.Load(), opened.Load())
		}
	}
}

// closeCounter is a connection that only counts its Close calls.
type closeCounter struct {
	net.Conn
	closed *atomic.Int64
}

func (c closeCounter) Close() error {
	c.closed.Add(1)
	return nil
}

// TestPoolLimits: at most maxIdlePerHost connections idle per host, an
// expired newest one takes every older one with it, and a closed fetcher
// hands out none.
func TestPoolLimits(t *testing.T) {
	f := &fetcher{idle: make(map[poolKey][]*upConn)}
	key := poolKey{host: "origin.test", port: "80"}
	var closed atomic.Int64
	for range maxIdlePerHost + 1 {
		c := &upConn{Conn: closeCounter{closed: &closed}, key: key, br: bufio.NewReader(strings.NewReader(""))}
		f.release(c, responseHead{}, true)
	}
	if n, c := len(f.idle[key]), closed.Load(); n != maxIdlePerHost || c != 1 {
		t.Fatalf("%d idle and %d closed after %d releases, want %d and 1", n, c, maxIdlePerHost+1, maxIdlePerHost)
	}
	f.idle[key][maxIdlePerHost-1].since = time.Now().Add(-idleConnTimeout - time.Second)
	if c, err := f.take(key); c != nil || err != nil {
		t.Fatalf("take = %v, %v; want no connection past the idle timeout", c, err)
	}
	if n, c := len(f.idle[key]), closed.Load(); n != 0 || c != maxIdlePerHost+1 {
		t.Fatalf("%d idle and %d closed after the expiry, want 0 and %d", n, c, maxIdlePerHost+1)
	}
	f.close()
	if _, err := f.take(key); err == nil {
		t.Fatal("a closed fetcher handed out a connection slot")
	}
}

// TestRedirectResolvesAsURLParse: a redirect's Location resolves against
// the URL the request asked for as url.URL.Parse resolves it against the
// parsed target, whether the request was cut from a plain target or built
// from a URL, and with a parent's url= argument.
func TestRedirectResolvesAsURLParse(t *testing.T) {
	for _, target := range []string{
		"http://o:8080/a/b?q=1",
		"http://o/a%2Fb/c",
		"http://o",
		"http://o/d?",
		"https://o/a/b",
		"http://[::1]:8080/a/b?x",
	} {
		u, err := url.Parse(target)
		if err != nil {
			t.Fatal(err)
		}
		r := mustRequest(t, u)
		if n, plain := plainTarget(target); plain {
			r = plainRequest(target, n)
		}
		via := mustRequest(t, &url.URL{Scheme: "http", Host: "parent:3128", Path: ProxyPath, RawQuery: "url="})
		via.arg = target
		viaURL, err := url.Parse("http://parent:3128" + ProxyPath + "?url=" + url.QueryEscape(target))
		if err != nil {
			t.Fatal(err)
		}
		for _, loc := range []string{"next", "../up", "/abs?z=2", "?only=query", "#frag", "//other:81/p", "https://h/x", "./c%20d"} {
			for _, tc := range []struct {
				r    upRequest
				base *url.URL
			}{{r, u}, {via, viaURL}} {
				want, err := tc.base.Parse(loc)
				if err != nil {
					t.Fatal(err)
				}
				got, err := redirect(tc.r, loc)
				if err != nil || !reflect.DeepEqual(got, mustRequest(t, want)) {
					t.Errorf("%s, Location %q: %+v, %v; want %+v", tc.base, loc, got, err, mustRequest(t, want))
				}
			}
		}
	}
}

// TestRedirectsFollowed: redirects are followed as http.Client follows
// them — the document is cached under the key the client asked for — and a
// fetch attempt stops after 10 requests.
func TestRedirectsFollowed(t *testing.T) {
	org := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var left int
		fmt.Sscanf(r.URL.Path, "/hop/%d", &left)
		if left > 0 {
			http.Redirect(w, r, fmt.Sprintf("/hop/%d", left-1), http.StatusFound)
			return
		}
		io.WriteString(w, "doc")
	}))
	t.Cleanup(org.Close)
	p := startNoneProxy(t, Config{FetchBackoff: time.Millisecond})
	for _, tc := range []struct {
		redirects int
		status    int
	}{{1, http.StatusOK}, {9, http.StatusOK}, {10, http.StatusBadGateway}, {11, http.StatusBadGateway}} {
		target := fmt.Sprintf("%s/hop/%d", org.URL, tc.redirects)
		status, body := proxyGet(t, p, target)
		if status != tc.status {
			t.Fatalf("%d redirects: status %d, want %d", tc.redirects, status, tc.status)
		}
		if _, cached := p.cachedBody(nil, target); cached != (status == http.StatusOK) {
			t.Fatalf("%d redirects: cached under the asked-for key = %v", tc.redirects, cached)
		}
		if status == http.StatusOK && body != "doc" {
			t.Fatalf("%d redirects: body %q", tc.redirects, body)
		}
	}
}

// TestClientHangUpDuringFetch pins the hang-up semantics: the attempt in
// flight runs to its end, bounded by FetchTimeout rather than the client,
// so its document is still cached; no further attempt starts.
func TestClientHangUpDuringFetch(t *testing.T) {
	for _, tc := range []struct {
		name   string
		status int
		cached bool
	}{{"ok", http.StatusOK, true}, {"5xx", http.StatusServiceUnavailable, false}} {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int64
			arrived, aborted := make(chan struct{}, 1), make(chan struct{}, 1)
			answer := make(chan struct{})
			org := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				calls.Add(1)
				arrived <- struct{}{}
				select {
				case <-answer:
				case <-r.Context().Done(): // the proxy dropped the fetch
					aborted <- struct{}{}
					return
				}
				w.WriteHeader(tc.status)
				io.WriteString(w, "doc")
			}))
			t.Cleanup(org.Close)
			p := startNoneProxy(t, Config{FetchBackoff: time.Millisecond})
			ctx, hangUp := context.WithCancel(context.Background())
			req, err := http.NewRequestWithContext(ctx, http.MethodGet,
				p.URL()+ProxyPath+"?url="+url.QueryEscape(org.URL+"/slow"), nil)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				resp, err := http.DefaultClient.Do(req)
				if err == nil {
					resp.Body.Close()
				}
				done <- err
			}()
			<-arrived
			hangUp()
			if err := <-done; err == nil {
				t.Fatal("the client's request did not fail after it hung up")
			}
			// Give the hang-up ample time to reach the proxy's handler.
			select {
			case <-aborted:
				t.Fatal("the client's hang-up aborted the origin fetch")
			case <-time.After(200 * time.Millisecond):
			}
			close(answer)
			// The handler finishes once its attempt has: in-flight drains to 0.
			for deadline := time.Now().Add(2 * time.Second); p.Stats().InflightRequests != 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the proxy's handler never finished")
				}
			}
			if got := p.CacheLen() == 1; got != tc.cached {
				t.Fatalf("cached = %v, want %v", got, tc.cached)
			}
			if n, r := calls.Load(), p.Stats().Retries; n != 1 || r != 0 {
				t.Fatalf("origin saw %d attempts and the proxy counted %d retries; want 1 and 0", n, r)
			}
		})
	}
}

// TestHTTPSOrigin: an https target is fetched over TLS with the URL's host
// as the server name.
func TestHTTPSOrigin(t *testing.T) {
	org := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "secret")
	}))
	org.Config.ErrorLog = log.New(io.Discard, "", 0) // the refused handshake below
	org.StartTLS()
	t.Cleanup(org.Close)
	p := startNoneProxy(t, Config{FetchRetries: -1})
	if status, _ := proxyGet(t, p, org.URL+"/doc"); status != http.StatusBadGateway {
		t.Fatalf("untrusted certificate: status %d, want 502", status)
	}
	p.up.roots = x509.NewCertPool()
	p.up.roots.AddCert(org.Certificate())
	if status, body := proxyGet(t, p, org.URL+"/doc"); status != http.StatusOK || body != "secret" {
		t.Fatalf("status %d body %q, want 200 secret", status, body)
	}
}

// TestInjectedHTTPFaults checks that the fetcher applies each fault
// verdict as faultnet documents it, with every attempt faulted.
func TestInjectedHTTPFaults(t *testing.T) {
	for _, tc := range []struct {
		name     string
		rates    faultnet.HTTPRates
		kind     string
		requests int   // the origin reads
		accepts  int64 // the origin accepts
	}{
		{"connect fail", faultnet.HTTPRates{ConnectFail: 1}, faultnet.KindHTTPConnect, 0, 0},
		{"5xx", faultnet.HTTPRates{Err5xx: 1}, faultnet.KindHTTP5xx, 0, 0},
		{"stall past the timeout", faultnet.HTTPRates{Stall: 1, StallFor: time.Minute}, faultnet.KindHTTPStall, 0, 0},
		{"truncate", faultnet.HTTPRates{Truncate: 1}, faultnet.KindHTTPTrunc, 3, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := startRawOrigin(t, func(string) (string, bool) { return helloReply, false })
			inj := faultnet.New(faultnet.Scenario{Seed: 1, HTTP: tc.rates})
			p := startNoneProxy(t, Config{
				FetchRetries: 2, FetchBackoff: time.Millisecond,
				FetchTimeout: 50 * time.Millisecond, Faults: inj,
			})
			start := time.Now()
			if status, _ := proxyGet(t, p, "http://"+o.addr()+"/doc"); status != http.StatusBadGateway {
				t.Fatalf("status %d, want 502", status)
			}
			if d := time.Since(start); d > 5*time.Second {
				t.Fatalf("three faulted attempts took %v", d)
			}
			if got := inj.Count(tc.kind); got != 3 {
				t.Errorf("%s count = %d, want 3 (one per attempt)", tc.kind, got)
			}
			if got := o.requests(); got != tc.requests {
				t.Errorf("origin read %d requests, want %d", got, tc.requests)
			}
			if got := o.accepts.Load(); got != tc.accepts {
				t.Errorf("origin accepted %d connections, want %d", got, tc.accepts)
			}
		})
	}
}
