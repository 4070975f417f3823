// Package origin implements the synthetic Web-server farm of the paper's
// benchmark experiments: an HTTP server that delays each reply by a
// configurable latency ("the process waits for one second before sending
// the reply to simulate the network latency") and answers with a body of
// the size encoded in the request URL ("each request's URL carries the
// size of the request in the trace file, and the server replies with the
// specified number of bytes"). It answers HTTP/1.0 and 1.1 on its own
// connection loop, the shape of the proxy's client listener, and reads each
// request head with package http1's reader and parser: a keep-alive GET
// allocates nothing.
package origin

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"summarycache/internal/http1"
)

// SizeParam is the query parameter carrying the desired body size in bytes.
const SizeParam = "size"

// VersionParam is the query parameter carrying the document generation; it
// is echoed in the VersionHeader so caches can detect staleness.
const VersionParam = "v"

// VersionHeader echoes the document generation.
const VersionHeader = "X-Doc-Version"

// Config parameterizes a Server.
type Config struct {
	// Addr is the listen address (default "127.0.0.1:0").
	Addr string
	// Latency delays every response (the paper uses 1 s; benchmarks here
	// scale it down and report ratios).
	Latency time.Duration
	// DefaultSize is the body size when the URL carries none (default 8 KB,
	// the paper's average document size).
	DefaultSize int64
	// MaxSize caps response bodies as a safety valve (default 16 MB).
	MaxSize int64
}

// Stats counts server activity.
type Stats struct {
	Requests  uint64
	BodyBytes uint64
}

// smallBody is the largest body sent in the head's write; a larger one is
// streamed from bodyChunk after the head.
const smallBody = 4 << 10

// Server is a running synthetic origin.
type Server struct {
	cfg      Config
	ln       net.Listener
	conns    *http1.Listener
	requests atomic.Uint64
	bytes    atomic.Uint64
}

// Start launches the server.
func Start(cfg Config) (*Server, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.DefaultSize <= 0 {
		cfg.DefaultSize = 8 * 1024
	}
	if cfg.MaxSize <= 0 {
		cfg.MaxSize = 16 << 20
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("origin: listen %q: %w", cfg.Addr, err)
	}
	s := &Server{cfg: cfg, ln: ln}
	s.conns = http1.Serve(ln, s.serve)
	return s, nil
}

// URL returns the server's base URL (http://host:port).
func (s *Server) URL() string { return "http://" + s.ln.Addr().String() }

// Addr returns the bound address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	return Stats{Requests: s.requests.Load(), BodyBytes: s.bytes.Load()}
}

// Close closes the listener and every connection, ending any Latency
// wait, and returns once every connection's goroutine has exited. A second
// call returns nil.
func (s *Server) Close() error {
	err := s.conns.Close()
	s.conns.Wait()
	return err
}

// conn is one connection's reader, output buffer and Date, owned by the
// goroutine that serves it.
type conn struct {
	nc   net.Conn
	br   *bufio.Reader
	out  []byte // response head, plus a small body
	date http1.Date
}

// serve answers nc's requests in order until the client closes it, a head
// is refused, a response closes it, or Close.
func (s *Server) serve(nc net.Conn) {
	c := &conn{nc: nc, br: bufio.NewReader(nc), out: make([]byte, 0, smallBody+512)}
	for {
		var h http1.Request
		status := http.StatusRequestHeaderFieldsTooLarge
		head, err := http1.ReadHead(c.br, http1.MaxHeadBytes)
		if err == nil {
			h, status = http1.ParseRequest(head)
		} else if !errors.Is(err, http1.ErrHeadTooLarge) {
			return // EOF, or a reset or Close mid-head: nobody to answer
		}
		if status != 0 {
			// As net/http's server refuses a head, and the connection ends.
			text := strconv.Itoa(status) + " " + http.StatusText(status)
			b := append(c.out[:0], "HTTP/1.1 "+text+"\r\nContent-Type: text/plain; charset=utf-8\r\n"+
				"Connection: close\r\n\r\n"+text...)
			if _, err := nc.Write(b); err == nil {
				http1.Linger(nc, c.br)
			}
			return
		}
		if !s.answer(c, h) {
			return
		}
	}
}

// answer serves one request, whatever its method and path: after the
// Latency wait, a body of the size its query asks for. It reports whether
// the connection stays open.
func (s *Server) answer(c *conn, h http1.Request) bool {
	s.requests.Add(1)
	b := append(c.out[:0], "HTTP/1.1 "...)
	if h.HTTP10 {
		b = append(c.out[:0], "HTTP/1.0 "...)
	}
	_, rawQuery, _ := bytes.Cut(h.Target, []byte("?"))
	sizeStr, version := scanParams(rawQuery)
	size := s.cfg.DefaultSize
	if len(sizeStr) > 0 {
		n, err := strconv.ParseInt(string(sizeStr), 10, 64)
		if err != nil || n < 0 {
			// http.Error's head, as net/http's server completed it.
			b = append(b, "400 Bad Request\r\nContent-Type: text/plain; charset=utf-8\r\n"+
				"X-Content-Type-Options: nosniff\r\nDate: "...)
			b = append(c.date.Append(b), "\r\nContent-Length: 9\r\n"...)
			return c.send(h, b, []byte("bad size\n"), 9)
		}
		size = n
	}
	size = min(size, s.cfg.MaxSize)
	if s.cfg.Latency > 0 {
		select {
		case <-time.After(s.cfg.Latency):
		case <-s.conns.Done():
			return false
		}
	}
	b = strconv.AppendInt(append(b, "200 OK\r\nContent-Length: "...), size, 10)
	b = append(b, "\r\nContent-Type: application/octet-stream\r\n"...)
	if len(version) > 0 {
		b = append(append(append(b, VersionHeader+": "...), version...), "\r\n"...)
	}
	if string(h.Method) != http.MethodHead {
		s.bytes.Add(uint64(size))
	}
	return c.send(h, append(c.date.Append(append(b, "Date: "...)), "\r\n"...), bodyChunk[:], size)
}

// send ends the head b with the Connection field net/http's server writes
// last, and sends it with size bytes of body, which repeats from its start
// every len(body) bytes: in the head's write up to smallBody, else
// streamed after it. A HEAD response carries no body. No request body is
// read: a request that has one is answered and its connection closed. send
// reports whether the connection stays open.
func (c *conn) send(h http1.Request, b, body []byte, size int64) bool {
	closing := h.Close || h.HasBody
	switch {
	case closing && !h.HTTP10:
		b = append(b, "Connection: close\r\n"...)
	case !closing && h.HTTP10:
		b = append(b, "Connection: keep-alive\r\n"...)
	}
	b = append(b, "\r\n"...)
	if string(h.Method) == http.MethodHead {
		size = 0
	}
	if size <= smallBody {
		b, size = append(b, body[:size]...), 0
	}
	c.out = b
	_, err := c.nc.Write(b)
	for ; err == nil && size > 0; size -= int64(len(body)) {
		_, err = c.nc.Write(body[:min(size, int64(len(body)))])
	}
	if err == nil && closing {
		http1.Linger(c.nc, c.br)
	}
	return err == nil && !closing
}

// scanParams extracts the size and v query parameters in one pass over the
// raw query. DocURL emits neither percent-escapes nor '+' in these values,
// and escaped forms of the bare names do not occur, so raw comparison is
// exact here.
func scanParams(rawQuery []byte) (size, version []byte) {
	for len(rawQuery) > 0 {
		var pair []byte
		pair, rawQuery, _ = bytes.Cut(rawQuery, []byte("&"))
		name, value, ok := bytes.Cut(pair, []byte("="))
		if !ok {
			continue
		}
		switch string(name) {
		case SizeParam:
			size = value
		case VersionParam:
			version = value
		}
	}
	return size, version
}

// bodyChunk is the pre-filled block every body is cut from; filling it
// once at startup instead of per call keeps the per-request work at the
// writes themselves.
var bodyChunk = func() [32 * 1024]byte {
	var chunk [32 * 1024]byte
	for i := range chunk {
		chunk[i] = byte('a' + i%26)
	}
	return chunk
}()

// DocURL builds a document URL on base for the given path, size and
// version — the form the trace-replay benchmark requests.
func DocURL(base, path string, size, version int64) string {
	return fmt.Sprintf("%s/%s?%s=%d&%s=%d", base, path, SizeParam, size, VersionParam, version)
}
