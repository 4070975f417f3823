package origin

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"summarycache/internal/testutil/leakcheck"
)

// pattern returns the first n bytes of a body: bodyChunk, repeated.
func pattern(n int) string {
	var b strings.Builder
	for b.Len() < n {
		b.Write(bodyChunk[:min(n-b.Len(), len(bodyChunk))])
	}
	return b.String()
}

// readResponse reads one response from br: its head, with the Date value
// masked as "D" once it parses, and bodyLen body bytes.
func readResponse(t *testing.T, br *bufio.Reader, bodyLen int) (head, body string) {
	t.Helper()
	var h strings.Builder
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading a head: %v after %q", err, h.String()+line)
		}
		if v, ok := strings.CutPrefix(line, "Date: "); ok {
			if _, err := http.ParseTime(strings.TrimSuffix(v, "\r\n")); err != nil {
				t.Fatalf("Date %q: %v", v, err)
			}
			line = "Date: D\r\n"
		}
		h.WriteString(line)
		if line == "\r\n" {
			break
		}
	}
	b := make([]byte, bodyLen)
	if _, err := io.ReadFull(br, b); err != nil {
		t.Fatalf("reading a %d-byte body after %q: %v", bodyLen, h.String(), err)
	}
	return h.String(), string(b)
}

// TestOriginWire drives the origin over raw TCP: each row is one
// connection's bytes, the response heads (the Date value masked) and bodies
// it answers in order, and whether the origin then closes the connection:
// a connection left open must answer one more request.
// The heads are byte for byte those net/http's server wrote for the same
// handler, with one deliberate change: a request that carries a body is
// answered and its connection closed, as the proxy's client loop does,
// where net/http read the body and kept the connection.
func TestOriginWire(t *testing.T) {
	s := startTest(t, Config{DefaultSize: 500, MaxSize: 70000})
	ok := func(size int, version, conn string) string {
		return "HTTP/1.1 200 OK\r\nContent-Length: " + strconv.Itoa(size) +
			"\r\nContent-Type: application/octet-stream\r\n" + version + "Date: D\r\n" + conn + "\r\n"
	}
	const badSize = "HTTP/1.1 400 Bad Request\r\nContent-Type: text/plain; charset=utf-8\r\n" +
		"X-Content-Type-Options: nosniff\r\nDate: D\r\nContent-Length: 9\r\n\r\n"
	get := func(target, proto, headers string) string {
		return "GET " + target + " " + proto + "\r\n" + headers + "\r\n"
	}
	const host = "Host: o\r\n"
	for _, row := range []struct {
		name   string
		req    string
		heads  []string
		bodies []string
		closed bool
	}{
		{"sized GET", get("/doc?size=1024", "HTTP/1.1", host),
			[]string{ok(1024, "", "")}, []string{pattern(1024)}, false},
		{"GET with v", get("/doc?size=10&v=7", "HTTP/1.1", host),
			[]string{ok(10, "X-Doc-Version: 7\r\n", "")}, []string{pattern(10)}, false},
		{"streamed body", get("/doc?v=0&size=40000", "HTTP/1.1", host),
			[]string{ok(40000, "X-Doc-Version: 0\r\n", "")}, []string{pattern(40000)}, false},
		{"default size", get("/plain", "HTTP/1.1", host),
			[]string{ok(500, "", "")}, []string{pattern(500)}, false},
		{"MaxSize cap", get("/doc?size=99999", "HTTP/1.1", host),
			[]string{ok(70000, "", "")}, []string{pattern(70000)}, false},
		{"HEAD", "HEAD /doc?size=1234 HTTP/1.1\r\n" + host + "\r\n",
			[]string{ok(1234, "", "")}, []string{""}, false},
		{"size=abc", get("/doc?size=abc", "HTTP/1.1", host),
			[]string{badSize}, []string{"bad size\n"}, false},
		{"size=-5", get("/doc?size=-5", "HTTP/1.1", host),
			[]string{badSize}, []string{"bad size\n"}, false},
		{"HTTP/1.0", get("/doc?size=10", "HTTP/1.0", ""),
			[]string{strings.Replace(ok(10, "", ""), "HTTP/1.1", "HTTP/1.0", 1)}, []string{pattern(10)}, true},
		{"HTTP/1.0 keep-alive", get("/doc?size=10", "HTTP/1.0", "Connection: keep-alive\r\n"),
			[]string{strings.Replace(ok(10, "", "Connection: keep-alive\r\n"), "HTTP/1.1", "HTTP/1.0", 1)}, []string{pattern(10)}, false},
		{"Connection: close", get("/doc?size=10", "HTTP/1.1", host+"Connection: close\r\n"),
			[]string{ok(10, "", "Connection: close\r\n")}, []string{pattern(10)}, true},
		{"pipelined", get("/a?size=3", "HTTP/1.1", host) + get("/b?size=5&v=2", "HTTP/1.1", host),
			[]string{ok(3, "", ""), ok(5, "X-Doc-Version: 2\r\n", "")}, []string{pattern(3), pattern(5)}, false},
		{"malformed head", get("/doc?size=10", "HTTP/1.1", host+"bad\r\n"),
			[]string{"HTTP/1.1 400 Bad Request\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n"},
			[]string{"400 Bad Request"}, true},
		// Changed: net/http read the body and kept the connection open.
		{"request body", "POST /doc?size=10 HTTP/1.1\r\n" + host + "Content-Length: 5\r\n\r\nhello",
			[]string{ok(10, "", "Connection: close\r\n")}, []string{pattern(10)}, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			before := s.Stats()
			conn, err := net.Dial("tcp", s.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := io.WriteString(conn, row.req); err != nil {
				t.Fatal(err)
			}
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			br := bufio.NewReader(conn)
			var requests, bodyBytes uint64
			for i, want := range row.heads {
				head, body := readResponse(t, br, len(row.bodies[i]))
				if head != want {
					t.Fatalf("response %d: head\n%q, want\n%q", i, head, want)
				}
				if body != row.bodies[i] {
					t.Fatalf("response %d: body of %d bytes differs from the %d expected", i, len(body), len(row.bodies[i]))
				}
				if strings.Contains(head, "Date: ") { // a refused head has none: it is no request
					requests++
				}
				if strings.Contains(head, " 200 OK\r\n") {
					bodyBytes += uint64(len(body))
				}
			}
			if row.closed {
				if n, err := br.Read(make([]byte, 1)); n > 0 || err != io.EOF {
					t.Fatalf("read %d bytes, %v after the last response; want the connection closed", n, err)
				}
			} else {
				if _, err := io.WriteString(conn, get("/next?size=1", "HTTP/1.1", host)); err != nil {
					t.Fatal(err)
				}
				if head, _ := readResponse(t, br, 1); head != ok(1, "", "") {
					t.Fatalf("next response: head %q", head)
				}
				requests, bodyBytes = requests+1, bodyBytes+1
			}
			after := s.Stats()
			if after.Requests-before.Requests != requests || after.BodyBytes-before.BodyBytes != bodyBytes {
				t.Fatalf("stats moved from %+v to %+v, want %d requests and %d body bytes", before, after, requests, bodyBytes)
			}
		})
	}
}

// TestOriginServeAllocBudget pins what one keep-alive 1 KiB GET with size
// and v costs the origin, driven by a client that allocates nothing:
// nothing. The request head is read in place in the connection's reader,
// the response is built in its output buffer, and Date is formatted at
// most once a second. On net/http's server the same request allocated 20
// times.
func TestOriginServeAllocBudget(t *testing.T) {
	s := startTest(t, Config{})
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	req := []byte("GET /doc?size=1024&v=3 HTTP/1.1\r\nHost: o\r\n\r\n")
	if _, err := conn.Write(req); err != nil {
		t.Fatal(err)
	}
	head, body := readResponse(t, bufio.NewReader(conn), 1024)
	if want := "HTTP/1.1 200 OK\r\nContent-Length: 1024\r\nContent-Type: application/octet-stream\r\n" +
		"X-Doc-Version: 3\r\nDate: D\r\n\r\n"; head != want || body != pattern(1024) {
		t.Fatalf("head %q, want %q", head, want)
	}
	// Date has a fixed width, so every response is as long as the first.
	buf := make([]byte, len(head)-len("D")+len(http.TimeFormat)+len(body))
	get := func() {
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, buf); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(200, get); n != 0 {
		t.Fatalf("a keep-alive GET allocated %v times, want 0", n)
	}
	if st := s.Stats(); st.Requests != 202 || st.BodyBytes != 202*1024 {
		t.Fatalf("stats = %+v, want 202 requests of 1 KiB", st)
	}
}

// TestOriginCloseEndsConnections: Close, with one idle keep-alive
// connection, one request parked in its Latency wait and one half-sent
// head, returns at once rather than after the wait, and no goroutine of
// the origin survives its return. A second Close is harmless.
func TestOriginCloseEndsConnections(t *testing.T) {
	leakcheck.Install(t)
	s, err := Start(Config{Latency: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	dial := func(req string) net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		if _, err := io.WriteString(conn, req); err != nil {
			t.Fatal(err)
		}
		return conn
	}
	// Accepted first, so its goroutine is reading by the time the parked
	// request below is counted.
	half := dial("GET /doc?size=10 HTTP/1.1\r\nHo")
	// A bad size is answered before the Latency wait, leaving an idle
	// keep-alive connection.
	idle := dial("GET /doc?size=abc HTTP/1.1\r\nHost: o\r\n\r\n")
	_ = idle.SetReadDeadline(time.Now().Add(5 * time.Second))
	if head, _ := readResponse(t, bufio.NewReader(idle), len("bad size\n")); !strings.HasPrefix(head, "HTTP/1.1 400 ") {
		t.Fatalf("idle connection's response %q", head)
	}
	parked := dial("GET /doc?size=10 HTTP/1.1\r\nHost: o\r\n\r\n")
	for s.Stats().Requests < 2 {
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("Close took %v with a request in a 1 s Latency wait", d)
	}
	buf := make([]byte, 64<<10)
	if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "summarycache/internal/origin.(*") {
		t.Fatalf("an origin goroutine outlived Close:\n%s", stacks)
	}
	for name, conn := range map[string]net.Conn{"half-sent": half, "idle": idle, "parked": parked} {
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := conn.Read(make([]byte, 1)); n > 0 || err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("%s connection: read %d bytes, %v after Close; want it closed", name, n, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
