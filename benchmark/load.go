package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"summarycache/internal/httpproxy"
)

// workers is the closed-loop client count: one request in flight each, and
// never more clients than the sandbox has cores.
const workers = 2

// sliceDur is the length of the sub-windows whose median rate is reported.
const sliceDur = time.Second

// pattern is what the origin fills a body with: 'a'..'z' repeating, starting
// over at every 32 KiB chunk.
var pattern = func() []byte {
	b := make([]byte, 32*1024)
	for i := range b {
		b[i] = byte('a' + i%26)
	}
	return b
}()

// request is one generated client request.
type request struct {
	proxy  int    // index of the proxy it is sent to
	target string // query-escaped origin URL
	size   int64  // body length the origin URL asks for
}

// source hands a worker its next request; it never runs dry.
type source func() request

// client is what one worker sends with. Each worker owns one, so the read
// buffer needs no lock.
type client struct {
	http  *http.Client
	bases []string // per proxy: URL + ProxyPath + "?url="
	buf   []byte
}

func newClient(m *mesh) *client {
	c := &client{
		http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers}},
		buf:  make([]byte, len(pattern)),
	}
	for _, p := range m.proxies {
		c.bases = append(c.bases, p.URL()+httpproxy.ProxyPath+"?url=")
	}
	return c
}

func (c *client) close() { c.http.CloseIdleConnections() }

// get fetches u and checks the reply: status 200, exactly size bytes, every
// byte the origin's pattern.
func (c *client) get(u string, size int64) error {
	resp, err := c.http.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // keep the connection reusable
		return fmt.Errorf("status %d for %s", resp.StatusCode, u)
	}
	for left := size; left > 0; {
		chunk := c.buf
		if left < int64(len(chunk)) {
			chunk = chunk[:left]
		}
		if _, err := io.ReadFull(resp.Body, chunk); err != nil {
			return fmt.Errorf("body of %s short by %d bytes: %w", u, left, err)
		}
		if !bytes.Equal(chunk, pattern[:len(chunk)]) {
			return fmt.Errorf("body of %s differs from the origin's", u)
		}
		left -= int64(len(chunk))
	}
	if n, _ := io.ReadFull(resp.Body, c.buf[:1]); n != 0 {
		return fmt.Errorf("body of %s longer than %d bytes", u, size)
	}
	return nil
}

func (c *client) do(r request) error { return c.get(c.bases[r.proxy]+r.target, r.size) }

// docTarget is the escaped origin URL of a document of the given size.
func docTarget(m *mesh, path string, size int64) string {
	return url.QueryEscape(fmt.Sprintf("%s/%s?size=%d&v=0", m.origin.URL(), path, size))
}

// clientSpan is the harness's own span around one request of a traced window.
type clientSpan struct {
	ID      int   `json:"id"`
	Worker  int   `json:"worker"`
	Proxy   int   `json:"proxy"`
	StartNS int64 `json:"start_ns"` // since the window opened
	EndNS   int64 `json:"end_ns"`
}

// windowLoad is what the workers saw during one timed window.
type windowLoad struct {
	wall      time.Duration
	attempted int
	failed    int
	firstErr  error
	latNS     []int64 // every request, send to body fully read
	perSlice  []int   // completions in each full sliceDur of the window
	spans     []clientSpan
}

// drive runs the closed loop for d: each worker sends its source's next
// request as soon as the previous reply has been read and checked.
func drive(m *mesh, srcs [workers]source, d time.Duration, spans bool) windowLoad {
	type result struct {
		latNS    []int64
		perSlice []int
		spans    []clientSpan
		failed   int
		firstErr error
	}
	var res [workers]result
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newClient(m)
			defer c.close()
			r := &res[w]
			for {
				req := srcs[w]()
				t0 := time.Now()
				if t0.Sub(start) >= d {
					return
				}
				err := c.do(req)
				t1 := time.Now()
				if err != nil {
					r.failed++
					if r.firstErr == nil {
						r.firstErr = err
					}
				}
				r.latNS = append(r.latNS, int64(t1.Sub(t0)))
				k := int(t1.Sub(start) / sliceDur)
				for len(r.perSlice) <= k {
					r.perSlice = append(r.perSlice, 0)
				}
				r.perSlice[k]++
				if spans {
					r.spans = append(r.spans, clientSpan{
						ID: len(r.latNS)*workers + w, Worker: w, Proxy: req.proxy,
						StartNS: int64(t0.Sub(start)), EndNS: int64(t1.Sub(start)),
					})
				}
			}
		}(w)
	}
	wg.Wait()
	out := windowLoad{wall: time.Since(start), perSlice: make([]int, int(d/sliceDur))}
	for _, r := range res {
		out.attempted += len(r.latNS)
		out.failed += r.failed
		if out.firstErr == nil {
			out.firstErr = r.firstErr
		}
		out.latNS = append(out.latNS, r.latNS...)
		out.spans = append(out.spans, r.spans...)
		for k := range out.perSlice {
			if k < len(r.perSlice) {
				out.perSlice[k] += r.perSlice[k]
			}
		}
	}
	return out
}

// replay sends every worker's fixed list of requests once — the set-up
// traffic (preload and warm-up), which is checked like any other.
func replay(m *mesh, lists [workers][]request) error {
	var wg sync.WaitGroup
	var errs [workers]error
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newClient(m)
			defer c.close()
			for _, req := range lists[w] {
				if err := c.do(req); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
