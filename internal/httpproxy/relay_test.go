package httpproxy

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// relayDocLen is the body length the relay tests send: over the default
// MaxObjectSize, so every one of them is relayed rather than cached.
const relayDocLen = 600 << 10

// streamOrigin is an origin that answers each request, on a connection of
// its own, with what send writes, then hangs up. It reads the request
// head into a fixed buffer and writes bodies from one, so it allocates
// little however much it sends.
type streamOrigin struct {
	ln       net.Listener
	requests atomic.Int64
	wg       sync.WaitGroup
}

func startStreamOrigin(t *testing.T, send func(w io.Writer) error) *streamOrigin {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	o := &streamOrigin{ln: ln}
	o.wg.Add(1)
	go func() {
		defer o.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			o.wg.Add(1)
			go func() {
				defer o.wg.Done()
				defer c.Close()
				c.SetDeadline(time.Now().Add(10 * time.Second))
				var buf [4 << 10]byte
				for n := 0; !bytes.Contains(buf[:n], []byte("\r\n\r\n")); {
					m, err := c.Read(buf[n:])
					if err != nil {
						return
					}
					n += m
				}
				o.requests.Add(1)
				send(c)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		o.wg.Wait()
	})
	return o
}

func (o *streamOrigin) url(path string) string { return "http://" + o.ln.Addr().String() + path }

// writeBody writes n bytes of 'b' from a fixed buffer, each write at most
// chunk bytes; chunked frames each write as one chunk, without the last.
func writeBody(w io.Writer, n int64, chunk int, chunked bool) error {
	buf := bytes.Repeat([]byte("b"), chunk)
	for n > 0 {
		k := int(min(n, int64(chunk)))
		if chunked {
			if _, err := fmt.Fprintf(w, "%x\r\n", k); err != nil {
				return err
			}
		}
		if _, err := w.Write(buf[:k]); err != nil {
			return err
		}
		if chunked {
			if _, err := io.WriteString(w, "\r\n"); err != nil {
				return err
			}
		}
		n -= int64(k)
	}
	return nil
}

// rawRelayClient asks p for target on a new connection and reads the
// response, discarding its body through a fixed buffer: a Content-Length
// body to its length, any other to the close. It returns the head and
// how many body bytes came, with the read error that ended them (nil at a
// body's length or at a close after an unknown-length one).
func rawRelayClient(t *testing.T, p *Proxy, method, target, proto string) (head string, n int64, err error) {
	t.Helper()
	conn, err := net.Dial("tcp", p.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(20 * time.Second))
	req := method + " " + ProxyPath + "?url=" + url.QueryEscape(target) + " " + proto + "\r\nHost: proxy\r\n\r\n"
	if _, err := io.WriteString(conn, req); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReaderSize(conn, 32<<10)
	var h strings.Builder
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading the response head: %v", err)
		}
		h.WriteString(line)
		if line == "\r\n" {
			break
		}
	}
	head = h.String()
	length := int64(-1)
	if _, v, ok := strings.Cut(head, "Content-Length: "); ok {
		v, _, _ = strings.Cut(v, "\r\n")
		length, _ = strconv.ParseInt(v, 10, 64)
	}
	if method == http.MethodHead {
		length = 0
	}
	var buf [32 << 10]byte
	for length < 0 || n < length {
		m, rerr := br.Read(buf[:])
		n += int64(m)
		if rerr == io.EOF && length < 0 {
			return head, n, nil
		}
		if rerr != nil {
			return head, n, rerr
		}
	}
	return head, n, nil
}

// waitStats waits for p's Stats to satisfy ok with no request in flight:
// a relay's counters move as its handler returns, after the client has
// the last byte.
func waitStats(t *testing.T, p *Proxy, ok func(Stats) bool) Stats {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		st := p.Stats()
		if ok(st) && st.InflightRequests == 0 {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats never settled: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRelayAllocBound: a 32 MiB document, over MaxObjectSize, goes to the
// client through the connection's relay buffer as it arrives, so serving
// it allocates less than 1 MiB in the whole process (the raw origin and
// the raw client read and write through fixed buffers), and nothing is
// cached.
func TestRelayAllocBound(t *testing.T) {
	const size = 32 << 20
	o := startStreamOrigin(t, func(w io.Writer) error {
		if _, err := fmt.Fprintf(w, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", size); err != nil {
			return err
		}
		return writeBody(w, size, 64<<10, false)
	})
	p := startNoneProxy(t, Config{})
	target := o.url("/big")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	head, n, err := rawRelayClient(t, p, http.MethodGet, target, "HTTP/1.1")
	runtime.ReadMemStats(&after)
	if err != nil || n != size || !strings.HasPrefix(head, "HTTP/1.1 200 OK\r\n") || !strings.Contains(head, "Content-Length: 33554432\r\n") {
		t.Fatalf("got %d body bytes (%v) after %q", n, err, head)
	}
	got := after.TotalAlloc - before.TotalAlloc
	if got >= 1<<20 {
		t.Fatalf("relaying 32 MiB allocated %d bytes, want under 1 MiB", got)
	}
	t.Logf("relaying 32 MiB allocated %d bytes", got)
	st := waitStats(t, p, func(st Stats) bool { return st.Misses == 1 })
	if st.Misses != 1 || st.RelaysCut != 0 || p.CacheLen() != 0 {
		t.Fatalf("stats %+v, %d cached: want one relayed miss, nothing cached", st, p.CacheLen())
	}
}

// TestRelayUnknownLength: a chunked and a close-delimited body that grow
// past MaxObjectSize are relayed too: the bytes already read, then the
// rest. An HTTP/1.1 client gets them chunked on a connection that stays
// open; an HTTP/1.0 client gets them up to the close. The Content-Type is
// sniffed from the first bytes, as for a buffered answer.
func TestRelayUnknownLength(t *testing.T) {
	for _, tc := range []struct {
		name string
		send func(w io.Writer) error
	}{
		{"chunked", func(w io.Writer) error {
			if _, err := io.WriteString(w, "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"); err != nil {
				return err
			}
			if err := writeBody(w, relayDocLen, 10<<10, true); err != nil {
				return err
			}
			_, err := io.WriteString(w, "0\r\n\r\n")
			return err
		}},
		{"close-delimited", func(w io.Writer) error {
			if _, err := io.WriteString(w, "HTTP/1.0 200 OK\r\n\r\n"); err != nil {
				return err
			}
			return writeBody(w, relayDocLen, 10<<10, false)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := startStreamOrigin(t, tc.send)
			p := startNoneProxy(t, Config{})
			resp, err := http.Get(p.URL() + ProxyPath + "?url=" + url.QueryEscape(o.url("/u")))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || len(body) != relayDocLen || strings.Trim(string(body), "b") != "" {
				t.Fatalf("HTTP/1.1: %d bytes, %v", len(body), err)
			}
			if resp.StatusCode != http.StatusOK || len(resp.TransferEncoding) != 1 || resp.Close ||
				resp.Header.Get("Content-Type") != "text/plain; charset=utf-8" {
				t.Fatalf("HTTP/1.1: status %d, transfer encoding %v, close %v, header %v",
					resp.StatusCode, resp.TransferEncoding, resp.Close, resp.Header)
			}
			head, n, err := rawRelayClient(t, p, http.MethodGet, o.url("/u"), "HTTP/1.0")
			if err != nil || n != relayDocLen || !strings.Contains(head, "Connection: close\r\n") ||
				strings.Contains(head, "Content-Length") || strings.Contains(head, "Transfer-Encoding") {
				t.Fatalf("HTTP/1.0: %d bytes (%v) after %q", n, err, head)
			}
			st := waitStats(t, p, func(st Stats) bool { return st.Misses == 2 })
			if st.Misses != 2 || st.RelaysCut != 0 || p.CacheLen() != 0 || o.requests.Load() != 2 {
				t.Fatalf("stats %+v, %d cached, %d origin requests: want two relayed misses, nothing cached",
					st, p.CacheLen(), o.requests.Load())
			}
		})
	}
}

// TestRelayTruncated: an origin body that ends early after the relay has
// sent the response's head cannot be retried or answered: the proxy
// closes the client's connection, so the client sees the body cut short
// — short of its Content-Length, or without a chunked body's last chunk —
// caches nothing and counts the relay cut.
func TestRelayTruncated(t *testing.T) {
	for _, tc := range []struct {
		name string
		head string
		send func(w io.Writer) error
	}{
		{"content-length", fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", relayDocLen),
			func(w io.Writer) error { return writeBody(w, relayDocLen/2, 10<<10, false) }},
		{"chunked", "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n",
			func(w io.Writer) error { return writeBody(w, relayDocLen/2+relayDocLen/4, 10<<10, true) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := startStreamOrigin(t, func(w io.Writer) error {
				if _, err := io.WriteString(w, tc.head); err != nil {
					return err
				}
				return tc.send(w)
			})
			p := startNoneProxy(t, Config{FetchRetries: 2, FetchBackoff: time.Millisecond})
			resp, err := http.Get(p.URL() + ProxyPath + "?url=" + url.QueryEscape(o.url("/cut")))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || !errors.Is(err, io.ErrUnexpectedEOF) || len(body) >= relayDocLen {
				t.Fatalf("status %d, %d bytes, %v: want a 200 whose body is cut short", resp.StatusCode, len(body), err)
			}
			st := waitStats(t, p, func(st Stats) bool { return st.RelaysCut == 1 })
			if st.Misses != 0 || st.Retries != 0 || p.CacheLen() != 0 || o.requests.Load() != 1 {
				t.Fatalf("stats %+v, %d cached, %d origin requests: want one cut relay, not retried, nothing cached",
					st, p.CacheLen(), o.requests.Load())
			}
		})
	}
}

// TestRelayHead: a HEAD of a document too large to cache answers with the
// head a GET gets — its length and sniffed type — and no body, and the
// connection serves the next request.
func TestRelayHead(t *testing.T) {
	o := startStreamOrigin(t, func(w io.Writer) error {
		if _, err := fmt.Fprintf(w, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", relayDocLen); err != nil {
			return err
		}
		return writeBody(w, relayDocLen, 10<<10, false)
	})
	p := startNoneProxy(t, Config{})
	target := o.url("/h")
	conn, err := net.Dial("tcp", p.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	for _, method := range []string{http.MethodHead, http.MethodGet} {
		req := method + " " + ProxyPath + "?url=" + url.QueryEscape(target) + " HTTP/1.1\r\nHost: proxy\r\n\r\n"
		if _, err := io.WriteString(conn, req); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(br, &http.Request{Method: method})
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		want := relayDocLen
		if method == http.MethodHead {
			want = 0
		}
		if err != nil || resp.StatusCode != http.StatusOK || resp.ContentLength != relayDocLen || len(body) != want ||
			resp.Header.Get("Content-Type") != "text/plain; charset=utf-8" {
			t.Fatalf("%s: status %d, length %d, %d body bytes (%v), header %v",
				method, resp.StatusCode, resp.ContentLength, len(body), err, resp.Header)
		}
	}
	if st := waitStats(t, p, func(st Stats) bool { return st.Misses == 2 }); st.RelaysCut != 0 || p.CacheLen() != 0 {
		t.Fatalf("stats %+v, %d cached", st, p.CacheLen())
	}
}

// TestRelaySlowClient: a relay is paced by its client, not bounded by the
// fetch attempt's one deadline. With FetchTimeout at 200 ms, a client that
// reads a 600 KiB relayed document over about a second, through a pipe
// that buffers nothing, gets it whole, and nothing is cut.
func TestRelaySlowClient(t *testing.T) {
	o := startStreamOrigin(t, func(w io.Writer) error {
		if _, err := fmt.Fprintf(w, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", relayDocLen); err != nil {
			return err
		}
		return writeBody(w, relayDocLen, 64<<10, false)
	})
	p := startNoneProxy(t, Config{FetchTimeout: 200 * time.Millisecond})
	client, served := pipeClient(t, p, o.url("/big"))
	defer func() {
		client.Close()
		<-served
	}()
	var got []byte // the head, then the body's count
	var buf [12 << 10]byte
	body, end := 0, -1
	start := time.Now()
	for end < 0 || body < relayDocLen {
		n, err := client.Read(buf[:])
		if err != nil {
			t.Fatalf("after %d body bytes in %v: %v", body, time.Since(start), err)
		}
		if end >= 0 {
			body += n
		} else if got = append(got, buf[:n]...); bytes.Contains(got, []byte("\r\n\r\n")) {
			end = bytes.Index(got, []byte("\r\n\r\n")) + 4
			body = len(got) - end
		}
		time.Sleep(20 * time.Millisecond) // 50 reads of 12 KiB: about a second
	}
	if elapsed := time.Since(start); elapsed < 5*200*time.Millisecond {
		t.Fatalf("the client read the relay in %v, not slowly enough to outlast the fetch timeout", elapsed)
	}
	if !bytes.HasPrefix(got, []byte("HTTP/1.1 200 OK\r\n")) || body != relayDocLen {
		t.Fatalf("got %d body bytes after %q", body, got[:end])
	}
	st := waitStats(t, p, func(st Stats) bool { return st.Misses == 1 })
	if st.RelaysCut != 0 || st.Retries != 0 || p.CacheLen() != 0 {
		t.Fatalf("stats %+v, %d cached: want one relayed miss, nothing cut or cached", st, p.CacheLen())
	}
}

// TestSiblingLargerObjectSize: a sibling's cache-only answer is read up
// to maxDeclaredBody, not up to the asker's own MaxObjectSize, so a
// document the sibling cached under its larger limit is a remote hit —
// not a false hit charged to a healthy sibling.
func TestSiblingLargerObjectSize(t *testing.T) {
	start := func(maxObject int64) *Proxy {
		p, err := Start(Config{
			Mode:          ModeICP,
			CacheBytes:    4 << 20,
			MaxObjectSize: maxObject,
			SingleCopy:    true,
			QueryTimeout:  2 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		return p
	}
	asker, holder := start(0), start(1<<20) // the paper's 250 KB, and 1 MiB
	if err := asker.AddPeer(holder.ICPAddr(), holder.URL()); err != nil {
		t.Fatal(err)
	}
	if err := holder.AddPeer(asker.ICPAddr(), asker.URL()); err != nil {
		t.Fatal(err)
	}
	const target = "http://origin.invalid/big"
	doc := bytes.Repeat([]byte("s"), relayDocLen)
	holder.storeBody(nil, target, signature(holder, target), 0, doc)
	if holder.CacheLen() != 1 {
		t.Fatal("the holder did not cache the document")
	}
	head, n, err := rawRelayClient(t, asker, http.MethodGet, target, "HTTP/1.1")
	if err != nil || n != relayDocLen || !strings.HasPrefix(head, "HTTP/1.1 200 OK\r\n") {
		t.Fatalf("got %d body bytes (%v) after %q", n, err, head)
	}
	st := waitStats(t, asker, func(st Stats) bool { return st.RemoteHits == 1 })
	if st.PeerFetches != 1 || st.FalseHits != 0 || st.OriginFetches != 0 || asker.CacheLen() != 0 {
		t.Fatalf("asker stats %+v, %d cached: want one remote hit fetched from the sibling", st, asker.CacheLen())
	}
}

// TestRelayStalledClient: a client that stops reading a relay cuts it
// within the fetch timeout, rather than holding the proxy's handler and
// the upstream connection for as long as it stays connected; the cut
// closes the client's connection and is counted.
func TestRelayStalledClient(t *testing.T) {
	o := startStreamOrigin(t, func(w io.Writer) error {
		if _, err := fmt.Fprintf(w, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", relayDocLen); err != nil {
			return err
		}
		return writeBody(w, relayDocLen, 64<<10, false)
	})
	p := startNoneProxy(t, Config{FetchTimeout: 200 * time.Millisecond})
	client, served := pipeClient(t, p, o.url("/big"))
	defer client.Close()
	var buf [1 << 10]byte
	if _, err := client.Read(buf[:]); err != nil { // the head, then nothing more
		t.Fatal(err)
	}
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("the relay to a client that stopped reading was never cut")
	}
	st := waitStats(t, p, func(st Stats) bool { return st.RelaysCut == 1 })
	if st.Misses != 0 || p.CacheLen() != 0 {
		t.Fatalf("stats %+v, %d cached: want one cut relay, nothing cached", st, p.CacheLen())
	}
}

// pipeClient asks p for target over a pipe, which buffers nothing, so
// each of p's writes waits for the client to read it. p serves the pipe's
// other end on its own goroutine, which closes served once it has closed
// that end.
func pipeClient(t *testing.T, p *Proxy, target string) (client net.Conn, served <-chan struct{}) {
	t.Helper()
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer server.Close()
		p.serveClient(server)
	}()
	client.SetDeadline(time.Now().Add(10 * time.Second))
	req := "GET " + ProxyPath + "?url=" + url.QueryEscape(target) + " HTTP/1.1\r\nHost: proxy\r\n\r\n"
	if _, err := io.WriteString(client, req); err != nil {
		t.Fatal(err)
	}
	return client, done
}
