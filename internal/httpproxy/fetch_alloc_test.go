package httpproxy

import (
	"bytes"
	"context"
	"net"
	"net/url"
	"strings"
	"testing"
)

// TestOriginFetchAllocBudget pins what one origin fetch costs the fetcher
// on a warm pooled connection: a 1 KiB document with the head
// origin.Server sends. AllocsPerRun counts every goroutine, so the origin
// here is a raw-TCP responder that allocates nothing: it reads each
// request into a fixed buffer and writes one prebuilt response. The count
// is the fetcher's alone: the body. The target is parsed once, before the
// measured fetches (fetchOrigin parses a target it is not handed only when
// the origin is asked), and the response head is parsed in place, into no
// header map.
func TestOriginFetchAllocBudget(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	response := []byte("HTTP/1.1 200 OK\r\n" +
		"Content-Length: 1024\r\n" +
		"Content-Type: application/octet-stream\r\n" +
		"Date: Sun, 18 Oct 2026 06:00:00 GMT\r\n" +
		"X-Doc-Version: 1\r\n\r\n" +
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
	p, err := Start(Config{Mode: ModeNone, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		p.Close() // closes the pooled connection, which ends the responder
		ln.Close()
		<-served
	})
	target := "http://" + ln.Addr().String() + "/doc?size=1024&v=1"
	u, err := url.Parse(target)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	fetch := func() {
		if body, version, err := p.fetchOrigin(ctx, target, u); err != nil || len(body) != 1<<10 || version != 1 {
			t.Fatalf("fetched %d bytes of version %d, %v", len(body), version, err)
		}
	}
	fetch() // dial the connection every measured fetch reuses
	const budget = 1
	if n := testing.AllocsPerRun(200, fetch); n != budget {
		t.Fatalf("fetchOrigin allocated %v times per fetch, want %d", n, budget)
	}
}
