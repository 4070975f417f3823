package httpproxy

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"summarycache/internal/http1"
	"summarycache/internal/lru"
	"summarycache/internal/origin"
	"summarycache/internal/testutil/leakcheck"
	"summarycache/internal/tracing"
)

// wireExchange writes req on a fresh connection to p and reads the
// responses to methods, one per method in order. closed reports whether
// the proxy closed the connection after the last one.
func wireExchange(t *testing.T, p *Proxy, req string, methods ...string) (resps []*http.Response, bodies []string, closed bool) {
	t.Helper()
	conn, err := net.Dial("tcp", p.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, req); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	for _, m := range methods {
		resp, err := http.ReadResponse(br, &http.Request{Method: m})
		if err != nil {
			t.Fatalf("reading the response to %s: %v", m, err)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("reading the body of the response to %s: %v", m, err)
		}
		resps, bodies = append(resps, resp), append(bodies, string(body))
	}
	_ = conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	n, err := br.Read(make([]byte, 1))
	if n > 0 {
		t.Fatalf("a byte after the last response")
	}
	return resps, bodies, !errors.Is(err, os.ErrDeadlineExceeded)
}

// TestWireProtocol drives the client listener over raw TCP: each row is one
// connection's bytes, the statuses the proxy answers, and whether it then
// closes the connection.
func TestWireProtocol(t *testing.T) {
	org, err := origin.Start(origin.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { org.Close() })
	p := startNoneProxy(t, Config{})
	const key, key2 = "http://origin.invalid/doc", "http://origin.invalid/doc2"
	doc := bytes.Repeat([]byte("d"), 1<<10)
	p.storeBody(nil, key, p.signature(key), 0, doc)
	p.storeBody(nil, key2, p.signature(key2), 0, []byte("second"))
	get := func(target, proto, headers string) string {
		return "GET " + target + " " + proto + "\r\n" + headers + "\r\n"
	}
	local := ProxyPath + "?url=" + key
	absolute := origin.DocURL(org.URL(), "abs", 100, 0)
	resp, err := http.Get(absolute)
	if err != nil {
		t.Fatal(err)
	}
	absDoc, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	host := "Host: proxy\r\n"
	for _, row := range []struct {
		name    string
		req     string
		methods []string
		status  []int
		body    string // of the last response, when set
		conn    string // the last response's Connection header
		closed  bool
	}{
		{"local hit", get(local, "HTTP/1.1", host), []string{"GET"}, []int{200}, string(doc), "", false},
		{"missing url", get(ProxyPath, "HTTP/1.1", host), []string{"GET"}, []int{400}, "", "", false},
		{"not a proxy path", get("/random", "HTTP/1.1", host), []string{"GET"}, []int{400}, "", "", false},
		{"absolute form", get(absolute, "HTTP/1.1", host), []string{"GET"}, []int{200}, string(absDoc), "", false},
		{"HEAD", "HEAD " + local + " HTTP/1.1\r\n" + host + "\r\n", []string{"HEAD"}, []int{200}, "", "", false},
		{"HTTP/1.0", get(local, "HTTP/1.0", ""), []string{"GET"}, []int{200}, string(doc), "close", true},
		{"HTTP/1.0 keep-alive", get(local, "HTTP/1.0", "Connection: keep-alive\r\n"), []string{"GET"}, []int{200}, string(doc), "keep-alive", false},
		{"Connection: close", get(local, "HTTP/1.1", host+"Connection: close\r\n"), []string{"GET"}, []int{200}, string(doc), "close", true},
		{"pipelined", get(local, "HTTP/1.1", host) + get(ProxyPath+"?url="+key2, "HTTP/1.1", host), []string{"GET", "GET"}, []int{200, 200}, "second", "", false},
		{"request body", "POST " + local + " HTTP/1.1\r\n" + host + "Content-Length: 5\r\n\r\nhello", []string{"POST"}, []int{200}, string(doc), "close", true},
		{"Content-Length and Transfer-Encoding", "POST " + local + " HTTP/1.1\r\n" + host + "Content-Length: 5\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n", []string{"POST"}, []int{400}, "", "close", true},
		{"HTTP/1.1 without Host", get(local, "HTTP/1.1", ""), []string{"GET"}, []int{400}, "", "close", true},
	} {
		t.Run(row.name, func(t *testing.T) {
			resps, bodies, closed := wireExchange(t, p, row.req, row.methods...)
			for i, resp := range resps {
				if resp.StatusCode != row.status[i] {
					t.Fatalf("response %d: status %d, want %d", i, resp.StatusCode, row.status[i])
				}
				if resp.Header.Get("Date") == "" || resp.Header.Get("Content-Type") == "" {
					t.Fatalf("response %d: no Date or Content-Type: %v", i, resp.Header)
				}
			}
			last, body := resps[len(resps)-1], bodies[len(bodies)-1]
			if row.body != "" && body != row.body {
				t.Fatalf("body %q, want %q", body, row.body)
			}
			if row.methods[len(row.methods)-1] == "HEAD" && (body != "" || last.ContentLength != int64(len(doc))) {
				t.Fatalf("HEAD: %d body bytes, Content-Length %d; want none and %d", len(body), last.ContentLength, len(doc))
			}
			got := last.Header.Get("Connection") // ReadResponse moves "close" to Close
			if last.Close {
				got = "close"
			}
			if got != row.conn {
				t.Fatalf("Connection %q, want %q", got, row.conn)
			}
			if closed != row.closed {
				t.Fatalf("connection closed = %v, want %v", closed, row.closed)
			}
		})
	}

	t.Run("oversized head", func(t *testing.T) {
		conn, err := net.Dial("tcp", p.ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		head := "GET " + local + " HTTP/1.1\r\n" + host + "X-Big: " + strings.Repeat("a", http.DefaultMaxHeaderBytes+8<<10) + "\r\n\r\n"
		go io.WriteString(conn, head) // the proxy answers before it has read it all
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
			t.Fatalf("status %d, want 431", resp.StatusCode)
		}
	})

	t.Run("Close ends client connections", func(t *testing.T) {
		leakcheck.Install(t)
		p := startNoneProxy(t, Config{})
		// Accepted before idle, so it is being served once idle is answered.
		mid, err := net.Dial("tcp", p.ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer mid.Close()
		if _, err := io.WriteString(mid, "GET "+ProxyPath+"?url="); err != nil {
			t.Fatal(err)
		}
		idle, err := net.Dial("tcp", p.ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer idle.Close()
		if _, err := io.WriteString(idle, get(ProxyPath, "HTTP/1.1", host)); err != nil {
			t.Fatal(err)
		}
		if resp, err := http.ReadResponse(bufio.NewReader(idle), nil); err != nil || resp.StatusCode != 400 {
			t.Fatalf("idle connection's request: %v", err)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		for _, c := range []net.Conn{idle, mid} {
			_ = c.SetReadDeadline(time.Now().Add(2 * time.Second))
			// EOF, or a reset where the proxy had not read all it was sent.
			if _, err := io.ReadAll(c); errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatal("client connection not closed by Close")
			}
		}
	})
}

// localHitClient stores a 1 KiB document in p and returns a function that
// fetches it as a local hit on one keep-alive connection without
// allocating (see rawClient), in the request form form names: "plain" and
// "escaped" ask ProxyPath with the key as the url parameter, as is or
// escaped as url.QueryEscape escapes it, and "absolute" asks for the key
// itself.
func localHitClient(tb testing.TB, p *Proxy, form string) (hit func() []byte) {
	const key = "http://origin.invalid/doc"
	target, ok := map[string]string{
		"plain":    ProxyPath + "?url=" + key,
		"escaped":  ProxyPath + "?url=" + url.QueryEscape(key),
		"absolute": key,
	}[form]
	if !ok {
		tb.Fatalf("no request form %q", form)
	}
	doc := bytes.Repeat([]byte("d"), 1<<10)
	p.storeBody(nil, key, p.signature(key), 0, doc)
	return rawClient(tb, p, target, doc)
}

// rawClient returns a function that asks p for the request-target target
// on one keep-alive connection without allocating: it writes a fixed
// request and reads the response's fixed length into a reused buffer. The
// first response, read here, must be a 200 carrying doc. It returns the
// response it read last.
func rawClient(tb testing.TB, p *Proxy, target string, doc []byte) (get func() []byte) {
	conn, err := net.Dial("tcp", p.ln.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { conn.Close() })
	req := []byte("GET " + target + " HTTP/1.1\r\nHost: proxy\r\n\r\n")
	buf := make([]byte, 4<<10)
	if _, err := conn.Write(req); err != nil {
		tb.Fatal(err)
	}
	n := 0 // the response's length: every later one has the same
	for end := -1; end < 0 || n < end; {
		m, err := conn.Read(buf[n:])
		if err != nil {
			tb.Fatal(err)
		}
		if n += m; end < 0 {
			if i := bytes.Index(buf[:n], []byte("\r\n\r\n")); i >= 0 {
				end = i + 4 + len(doc)
			}
		}
	}
	if !bytes.HasPrefix(buf, []byte("HTTP/1.1 200 OK\r\n")) || !bytes.HasSuffix(buf[:n], doc) {
		tb.Fatalf("response %q", buf[:n])
	}
	return func() []byte {
		if _, err := conn.Write(req); err != nil {
			tb.Fatal(err)
		}
		if _, err := io.ReadFull(conn, buf[:n]); err != nil {
			tb.Fatal(err)
		}
		return buf[:n]
	}
}

// TestServeLocalHitAllocBudget pins what one 1 KiB local hit costs the
// server on a warm keep-alive connection, driven by a client that
// allocates nothing: nothing, whether the target is read from the url
// parameter, escaped by the client or not, or from an absolute-form
// request line. The cache is read with the head's bytes or the
// connection's scratch; no string of the target is made.
func TestServeLocalHitAllocBudget(t *testing.T) {
	for _, form := range []string{"plain", "escaped", "absolute"} {
		t.Run(form, func(t *testing.T) {
			hit := localHitClient(t, startNoneProxy(t, Config{}), form)
			const budget = 0
			if got := testing.AllocsPerRun(200, func() { hit() }); got != budget {
				t.Fatalf("a local hit allocated %v times on the server, want %d", got, budget)
			}
			if resp := hit(); !bytes.HasSuffix(resp, bytes.Repeat([]byte("d"), 1<<10)) {
				t.Fatal("the response did not carry the document")
			}
		})
	}
}

// TestServeCacheOnlyAllocBudget pins what answering a sibling's
// cache-only fetch of a 1 KiB document costs the holder on a warm
// keep-alive connection: nothing, as a local hit.
func TestServeCacheOnlyAllocBudget(t *testing.T) {
	const key = "http://origin.invalid/doc?size=1024"
	p := startNoneProxy(t, Config{})
	doc := bytes.Repeat([]byte("d"), 1<<10)
	p.storeBody(nil, key, p.signature(key), 0, doc)
	get := rawClient(t, p, CacheOnlyPath+"?url="+url.QueryEscape(key), doc)
	const budget = 0
	if got := testing.AllocsPerRun(200, func() { get() }); got != budget {
		t.Fatalf("a cache-only answer allocated %v times on the holder, want %d", got, budget)
	}
}

// BenchmarkServeLocalHit times one 1 KiB local hit on a keep-alive
// connection, client included.
func BenchmarkServeLocalHit(b *testing.B) {
	p, err := Start(Config{Mode: ModeNone, CacheBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { p.Close() })
	hit := localHitClient(b, p, "plain")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hit()
	}
}

// panicSink panics on every span.
type panicSink struct{}

func (panicSink) OnSpan(string, tracing.Span)                    { panic("sink panicked") }
func (panicSink) OnFinish(string, string, string, time.Duration) {}

// TestHandlerPanicRecovered: a panic in the request path is recovered and
// logged, closes that client's connection, and leaves the proxy serving.
func TestHandlerPanicRecovered(t *testing.T) {
	var log syncBuffer
	p := startNoneProxy(t, Config{
		Tracer: tracing.New(tracing.Config{Sink: panicSink{}}),
		Logger: slog.New(slog.NewTextHandler(&log, nil)),
	})
	req := "GET " + ProxyPath + "?url=" + url.QueryEscape("http://origin.invalid/doc") + " HTTP/1.1\r\nHost: proxy\r\n\r\n"
	for i := 0; i < 2; i++ { // the proxy still serves after the first panic
		conn, err := net.Dial("tcp", p.ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.WriteString(conn, req); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		reply, err := io.ReadAll(conn)
		conn.Close()
		if err != nil || len(reply) != 0 {
			t.Fatalf("connection %d: %q, %v; want closed without a reply", i, reply, err)
		}
	}
	if got := log.String(); strings.Count(got, "panic serving client") != 2 || !strings.Contains(got, "sink panicked") {
		t.Fatalf("log %q, want both panics", got)
	}
}

// syncBuffer is a buffer the proxy's logger writes while the test reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(b []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(b)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// FuzzRequestHead checks the client listener's head reader and parser,
// http1's, with requestTarget, against http.ReadRequest: it may refuse
// more, but never accepts a head net/http refuses; on heads both accept,
// method, target, Host, keep-alive and whether a body follows agree; and it
// never buffers past its bound.
func FuzzRequestHead(f *testing.F) {
	for _, s := range []string{
		"GET /__summarycache/proxy?url=http://o/d HTTP/1.1\r\nHost: p\r\n\r\n",
		"GET http://o/d HTTP/1.1\r\nHost: p\r\nConnection: close\r\n\r\n",
		"HEAD / HTTP/1.0\r\nConnection: Keep-Alive, x\r\n\r\n",
		"POST / HTTP/1.1\nHost: p\nContent-Length: 007\n\nbody",
		"POST / HTTP/1.1\r\nHost: p\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
		"GET /a%zz HTTP/1.1\r\nHost: p\r\n\r\n",
		"CONNECT p:443 HTTP/1.1\r\nHost: p\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: p\r\n folded\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: p\r\nX: " + strings.Repeat("a", 300) + "\r\n\r\n",
	} {
		f.Add([]byte(s))
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
		h, status := http1.ParseRequest(head)
		accepted := status == 0
		if accepted {
			_, _, _, accepted = requestTarget(h.Target)
		}
		req, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(head)))
		if !accepted {
			return
		}
		if err != nil {
			t.Fatalf("accepted a head net/http refuses (%v): %q", err, head)
		}
		if req.Method != string(h.Method) || req.RequestURI != string(h.Target) || req.Close != h.Close {
			t.Fatalf("parsed %q %q close=%v; net/http %q %q close=%v", h.Method, h.Target, h.Close, req.Method, req.RequestURI, req.Close)
		}
		if h.Target[0] == '/' && req.Host != string(h.Host) {
			t.Fatalf("Host %q; net/http %q", h.Host, req.Host)
		}
		if !h.HTTP10 && h.HasBody != (req.ContentLength != 0) {
			t.Fatalf("body %v; net/http's length %d", h.HasBody, req.ContentLength)
		}
	})
}

type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(b []byte) (int, error) {
	n, err := c.r.Read(b)
	c.n += n
	return n, err
}

// urlParamString is urlParam as it read a string raw query, through
// url.QueryUnescape: the reference FuzzURLParam holds the byte version to.
func urlParamString(rawQuery string) string {
	for len(rawQuery) > 0 {
		pair := rawQuery
		if i := strings.IndexByte(pair, '&'); i >= 0 {
			pair, rawQuery = pair[:i], pair[i+1:]
		} else {
			rawQuery = ""
		}
		v, ok := strings.CutPrefix(pair, "url=")
		if !ok {
			continue
		}
		if strings.IndexByte(v, '%') < 0 && strings.IndexByte(v, '+') < 0 {
			return v
		}
		dec, err := url.QueryUnescape(v)
		if err != nil {
			return ""
		}
		return dec
	}
	return ""
}

// FuzzURLParam holds urlParam, which unescapes the raw query's bytes
// itself, to urlParamString, and unescape's path form to
// url.PathUnescape. One scratch serves the input and then a shorter one,
// whose value must show none of the first's bytes, and a byte lookup of
// each value finds exactly the entry its string stored.
func FuzzURLParam(f *testing.F) {
	for _, s := range []string{
		"url=http://o/d",
		"url=" + url.QueryEscape("http://o/d?size=1024&v=0"),
		"a=1&url=x+y%2Bz&url=second",
		"url=%zz",
		"url=%4",
		"url=%e2%82%AC",
		"x=1&&url=",
		"url",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, q string) {
		scratch := make([]byte, 0, 64)
		cache := lru.MustNewCache(lru.Config{Capacity: 1 << 20, MaxObjectSize: -1})
		for i, in := range []string{q, q[:len(q)/2]} {
			got, want := urlParam(scratch, []byte(in)), urlParamString(in)
			if string(got) != want {
				t.Fatalf("urlParam(%q) = %q, want %q", in, got, want)
			}
			cache.Put(lru.Entry{Key: want, Size: 1, Version: int64(i + 1)})
			if e, ok := cache.GetBytes(got); !ok || e.Key != want || e.Version != int64(i+1) {
				t.Fatalf("a byte lookup of %q found %+v, %v; want the entry stored under %q", got, e, ok, want)
			}
		}
		got, ok := unescape(nil, []byte(q), false)
		want, err := url.PathUnescape(q)
		if ok != (err == nil) || ok && string(got) != want {
			t.Fatalf("unescape(%q, path) = %q, %v; url.PathUnescape: %q, %v", q, got, ok, want, err)
		}
	})
}
