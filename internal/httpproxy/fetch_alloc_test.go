package httpproxy

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"testing"
)

// rawResponder serves every GET on its one connection with a prebuilt 1 KiB
// document of version 1, the head origin.Server sends, and allocates
// nothing: it reads each request into a fixed buffer and writes the one
// response. AllocsPerRun counts every goroutine, so a budget measured
// against it is the proxy's alone. It returns the responder's address.
func rawResponder(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	response := []byte("HTTP/1.1 200 OK\r\n" +
		"Content-Length: 1024\r\n" +
		"Content-Type: application/octet-stream\r\n" +
		"X-Doc-Version: 1\r\n" +
		"Date: Sun, 18 Oct 2026 06:00:00 GMT\r\n\r\n" +
		strings.Repeat("a", 1<<10))
	served := make(chan struct{})
	go func() {
		defer close(served)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// A GET has no body and the fetcher waits for each response before
		// it sends the next request, so a request ends at a blank line
		// that ends the bytes read so far.
		var buf [4096]byte
		n := 0
		for n < len(buf) {
			m, err := conn.Read(buf[n:])
			if err != nil {
				return
			}
			if n += m; bytes.HasSuffix(buf[:n], []byte("\r\n\r\n")) {
				n = 0
				if _, err := conn.Write(response); err != nil {
					return
				}
			}
		}
	}()
	// Registered before the proxy's Close, so it runs after it: Close
	// closes the pooled connection, which ends the responder.
	t.Cleanup(func() {
		ln.Close()
		<-served
	})
	return ln.Addr().String()
}

// measureFetch pins fetch, which must return the responder's 1 KiB
// document of version 1, at budget allocations per call on a warm pooled
// connection.
func measureFetch(t *testing.T, budget float64, fetch func() ([]byte, int64, error)) {
	t.Helper()
	run := func() {
		if body, version, err := fetch(); err != nil || len(body) != 1<<10 || version != 1 {
			t.Fatalf("fetched %d bytes of version %d, %v", len(body), version, err)
		}
	}
	run() // dial the connection every measured fetch reuses
	if n := testing.AllocsPerRun(200, run); n != budget {
		t.Fatalf("the fetch allocated %v times, want %v", n, budget)
	}
}

// TestOriginFetchAllocBudget pins what one origin fetch of a plain target
// costs the proxy, handed the target string alone as a miss hands it: one
// allocation, the body. The request is cut from the target's own bytes,
// with no *url.URL built, and the response head is parsed in place, into
// no header map.
func TestOriginFetchAllocBudget(t *testing.T) {
	addr := rawResponder(t)
	p := startNoneProxy(t, Config{})
	target := "http://" + addr + "/doc?size=1024&v=1"
	measureFetch(t, 1, func() ([]byte, int64, error) { return p.fetchOrigin(context.Background(), target, nil, nil) })
}

// TestRelayFetchAllocBudget pins what a fetch through another proxy costs:
// a sibling's cache-only fetch and an origin fetch through the parent each
// allocate once, the body. The target is query-escaped straight into the
// request head behind the base URL parsed when the peer was added or the
// proxy started.
func TestRelayFetchAllocBudget(t *testing.T) {
	const target = "http://origin.invalid/doc?size=1024&v=1"
	ctx := context.Background()
	t.Run("sibling", func(t *testing.T) {
		addr := rawResponder(t)
		p, err := Start(Config{Mode: ModeICP, CacheBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		sib := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}
		if err := p.AddPeer(sib, "http://"+addr); err != nil {
			t.Fatal(err)
		}
		id, key := sib.String(), []byte(target)
		measureFetch(t, 1, func() ([]byte, int64, error) {
			body, version, ok := p.fetchPeer(ctx, id, sib, key)
			if !ok {
				return nil, 0, errors.New("the sibling fetch failed")
			}
			return body, version, nil
		})
	})
	t.Run("parent", func(t *testing.T) {
		p := startNoneProxy(t, Config{ParentURL: "http://" + rawResponder(t)})
		measureFetch(t, 1, func() ([]byte, int64, error) { return p.fetchOrigin(ctx, target, nil, nil) })
	})
}
