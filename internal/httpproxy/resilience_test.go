package httpproxy

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"summarycache/internal/bloom"
	"summarycache/internal/core"
	"summarycache/internal/origin"
)

// --- breaker state machine ---

// breakerGauge reads p's summarycache_proxy_breaker_state series for peer
// off /metrics.
func breakerGauge(t *testing.T, p *Proxy, peer string) string {
	t.Helper()
	prefix := `summarycache_proxy_breaker_state{peer="` + peer + `"`
	for _, line := range strings.Split(scrape(t, p.Registry()), "\n") {
		if strings.HasPrefix(line, prefix) {
			return line[strings.LastIndexByte(line, ' ')+1:]
		}
	}
	t.Fatalf("no breaker gauge for %s", peer)
	return ""
}

// TestBreakerStateMachine drives a sibling's circuit through the fetch
// path's two entry points (admission and result) as the proxy sees it:
// BreakerState and the breaker gauge agree at every step.
func TestBreakerStateMachine(t *testing.T) {
	const cooldown = 50 * time.Millisecond
	mk := func() *Proxy {
		p, err := Start(Config{
			Mode: ModeICP, CacheBytes: 8 << 20,
			QueryTimeout:     time.Second,
			BreakerThreshold: 3,
			BreakerCooldown:  cooldown,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		return p
	}
	a, b := mk(), mk()
	peer := b.ICPAddr()
	id := peer.String()
	if err := a.AddPeer(peer, b.URL()); err != nil {
		t.Fatal(err)
	}
	check := func(what string, want core.PeerState) {
		t.Helper()
		if got := a.BreakerState(id); got != want {
			t.Fatalf("%s: breaker %v, want %v", what, got, want)
		}
		if got, want := breakerGauge(t, a, id), fmt.Sprint(int(want)); got != want {
			t.Fatalf("%s: breaker gauge %s, want %s", what, got, want)
		}
	}
	allow := func() bool { return a.node.AdmitFetch(peer) }

	check("new", core.PeerUp)
	if !allow() {
		t.Fatal("new breaker not allowing")
	}
	// Failures below the threshold keep it closed; a success resets the run.
	a.node.FetchDone(peer, false)
	a.node.FetchDone(peer, false)
	a.node.FetchDone(peer, true)
	check("success after two failures", core.PeerUp)
	a.node.FetchDone(peer, false)
	a.node.FetchDone(peer, false)
	check("two failures after a success", core.PeerUp)
	a.node.FetchDone(peer, false)
	check("third consecutive failure", core.PeerDown)
	if allow() {
		t.Fatal("tripped breaker still allowing")
	}

	// Cooldown elapses: exactly one probe is admitted (half-open).
	time.Sleep(cooldown + 10*time.Millisecond)
	if !allow() {
		t.Fatal("no probe admitted after cooldown")
	}
	check("probe admitted", core.PeerProbing)
	if allow() {
		t.Fatal("second concurrent probe admitted in half-open")
	}
	// Failed probe: back to open.
	a.node.FetchDone(peer, false)
	check("failed probe", core.PeerDown)
	if allow() {
		t.Fatal("re-opened breaker allowing before the cooldown")
	}

	// Second probe succeeds: recovered.
	time.Sleep(cooldown + 10*time.Millisecond)
	if !allow() {
		t.Fatal("no second probe admitted")
	}
	a.node.FetchDone(peer, true)
	check("successful probe", core.PeerUp)
	if !allow() {
		t.Fatal("recovered breaker not allowing")
	}
}

// TestBreakerStateStrings: every state the breaker gauge can report, and
// an unknown one, has a name, and the gauge values are 0 up, 1 down,
// 2 probing.
func TestBreakerStateStrings(t *testing.T) {
	for _, s := range []core.PeerState{core.PeerUp, core.PeerDown, core.PeerProbing, core.PeerState(7)} {
		if s.String() == "" {
			t.Errorf("empty string for state %d", int(s))
		}
	}
	if core.PeerUp != 0 || core.PeerDown != 1 || core.PeerProbing != 2 {
		t.Errorf("gauge values up=%d down=%d probing=%d, want 0, 1, 2",
			core.PeerUp, core.PeerDown, core.PeerProbing)
	}
}

// --- origin fetch retry pipeline ---

// flakyOrigin serves 512-byte documents after failing the first failN
// requests with the given status.
type flakyOrigin struct {
	ln    net.Listener
	calls atomic.Int64
}

func startFlakyOrigin(t *testing.T, failN int64, failStatus int) *flakyOrigin {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &flakyOrigin{ln: ln}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if f.calls.Add(1) <= failN {
			w.WriteHeader(failStatus)
			return
		}
		io.WriteString(w, strings.Repeat("x", 512))
	})}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return f
}

func (f *flakyOrigin) url() string { return "http://" + f.ln.Addr().String() + "/doc" }

func TestFetchRetriesTransient5xx(t *testing.T) {
	f := startFlakyOrigin(t, 2, http.StatusServiceUnavailable)
	p, err := Start(Config{
		Mode: ModeNone, CacheBytes: 1 << 20,
		FetchRetries: 3, FetchBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })

	resp, err := http.Get(p.URL() + ProxyPath + "?url=" + url.QueryEscape(f.url()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) != 512 {
		t.Fatalf("status %d, %d bytes — retries did not mask the 503 burst", resp.StatusCode, len(body))
	}
	st := p.Stats()
	if st.Retries != 2 {
		t.Fatalf("Retries = %d, want 2", st.Retries)
	}
	if st.OriginFetches != 1 {
		t.Fatalf("OriginFetches = %d, want 1 (retries are not separate logical fetches)", st.OriginFetches)
	}
	if got := f.calls.Load(); got != 3 {
		t.Fatalf("origin saw %d attempts, want 3", got)
	}
}

func TestFetch4xxIsPermanent(t *testing.T) {
	f := startFlakyOrigin(t, 1<<30, http.StatusNotFound) // always 404
	p, err := Start(Config{
		Mode: ModeNone, CacheBytes: 1 << 20,
		FetchRetries: 3, FetchBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })

	resp, err := http.Get(p.URL() + ProxyPath + "?url=" + url.QueryEscape(f.url()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502", resp.StatusCode)
	}
	if got := f.calls.Load(); got != 1 {
		t.Fatalf("origin saw %d attempts for a 404, want 1 (no retry)", got)
	}
	if st := p.Stats(); st.Retries != 0 {
		t.Fatalf("Retries = %d, want 0", st.Retries)
	}
}

// TestUnfetchableTargetNotRetried: a target that parses but names a
// scheme or host no fetch can use fails with 502 on its first attempt,
// with no retry.
func TestUnfetchableTargetNotRetried(t *testing.T) {
	p := startNoneProxy(t, Config{FetchRetries: 3, FetchBackoff: time.Millisecond})
	for i, target := range []string{"ftp://origin.invalid/doc", "http:///doc", "/relative"} {
		if status, _ := proxyGet(t, p, target); status != http.StatusBadGateway {
			t.Fatalf("%q: status %d, want 502", target, status)
		}
		if st := p.Stats(); st.Retries != 0 || st.OriginFetches != uint64(i+1) {
			t.Fatalf("%q: stats %+v, want no retry", target, st)
		}
	}
}

// TestErrorBodyDrainBounded: a non-200 body is read only up to
// maxErrorDrain. A small error page is read to its end, so every retry
// reuses the one connection; a 503 carrying 8 MB is abandoned with its
// connection, so the origin gets only what socket buffers absorb onto the
// wire per attempt, not the whole body.
func TestErrorBodyDrainBounded(t *testing.T) {
	for _, tc := range []struct {
		name      string
		size      int
		wantConns int64
	}{
		{"error page", 512, 1},
		{"8 MB", 8 << 20, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var (
				mu      sync.Mutex
				written []int // body bytes the origin got onto the wire, per attempt
				conns   atomic.Int64
			)
			chunk := make([]byte, 32<<10)
			org := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(http.StatusServiceUnavailable)
				n := 0
				for n < tc.size {
					m, err := w.Write(chunk[:min(len(chunk), tc.size-n)])
					n += m
					if err != nil {
						break
					}
				}
				mu.Lock()
				written = append(written, n)
				mu.Unlock()
			}))
			org.Config.ConnState = func(c net.Conn, s http.ConnState) {
				if s == http.StateNew {
					conns.Add(1)
					// A small send buffer keeps what the kernel takes
					// after the proxy stops reading far below 8 MB.
					_ = c.(*net.TCPConn).SetWriteBuffer(64 << 10)
				}
			}
			org.Start()
			p, err := Start(Config{
				Mode: ModeNone, CacheBytes: 1 << 20,
				FetchRetries: 2, FetchBackoff: time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { p.Close() })

			resp, err := http.Get(p.URL() + ProxyPath + "?url=" + url.QueryEscape(org.URL+"/doc"))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadGateway {
				t.Fatalf("status %d, want 502", resp.StatusCode)
			}
			org.Close() // returns once every handler has
			if len(written) != 3 {
				t.Fatalf("origin saw %d attempts, want 3", len(written))
			}
			for i, n := range written {
				if n > 1<<20 {
					t.Fatalf("attempt %d: the origin wrote %d bytes of its %d-byte error body, want at most 1 MiB",
						i, n, tc.size)
				}
			}
			if got := conns.Load(); got != tc.wantConns {
				t.Fatalf("%d connections for 3 attempts, want %d", got, tc.wantConns)
			}
		})
	}
}

// TestUnresponsiveOriginBounded is the regression test for the unbounded
// fetch: an origin that accepts the connection and never answers must cost
// at most (retries+1) × FetchTimeout, not a forever-wedged handler.
func TestUnresponsiveOriginBounded(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() { // accept and hold connections open, never responding
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
		}
	}()

	p, err := Start(Config{
		Mode: ModeNone, CacheBytes: 1 << 20,
		FetchTimeout: 150 * time.Millisecond,
		FetchRetries: 1, FetchBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })

	start := time.Now()
	resp, err := http.Get(p.URL() + ProxyPath + "?url=" +
		url.QueryEscape("http://"+ln.Addr().String()+"/hang"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("unresponsive origin took %v, want bounded by per-attempt timeouts", elapsed)
	}
}

// TestSlowHeaderClientDisconnected verifies ReadHeaderTimeout: a client
// that connects and never finishes its request headers is cut loose
// instead of pinning a connection.
func TestSlowHeaderClientDisconnected(t *testing.T) {
	p, err := Start(Config{
		Mode: ModeNone, CacheBytes: 1 << 20,
		ReadHeaderTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })

	conn, err := net.Dial("tcp", p.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send a partial request line and stall.
	if _, err := conn.Write([]byte("GET /__summarycache/pro")); err != nil {
		t.Fatal(err)
	}
	// The server must cut the connection loose shortly after the timeout
	// (Go writes an error status first); what it must NOT do is hold the
	// connection open waiting for the rest of the headers.
	start := time.Now()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	reply, err := io.ReadAll(conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server kept the slow-header connection open past ReadHeaderTimeout")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("connection closed after %v, want ≈ReadHeaderTimeout", elapsed)
	}
	if strings.Contains(string(reply), "200 OK") {
		t.Fatalf("server answered a half-written request line: %q", reply)
	}
}

// --- circuit breaker in the mesh ---

// TestBreakerSkipsAsFalseHits: under classic ICP, a sibling whose ICP
// endpoint answers HIT but whose HTTP endpoint is dark trips its breaker;
// subsequent nominations are skipped (counted) and served from the origin
// as false hits — clients never see an error.
func TestBreakerSkipsAsFalseHits(t *testing.T) {
	org, err := origin.Start(origin.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { org.Close() })
	mk := func(threshold int) *Proxy {
		p, err := Start(Config{
			Mode: ModeICP, CacheBytes: 8 << 20,
			QueryTimeout:     time.Second,
			BreakerThreshold: threshold,
			BreakerCooldown:  time.Hour, // never half-open during this test
			FetchBackoff:     time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		return p
	}
	a, b := mk(1), mk(1)
	// A records a dead HTTP endpoint for B: ICP answers flow, fetches fail.
	deadURL := "http://127.0.0.1:1"
	if err := a.AddPeer(b.ICPAddr(), deadURL); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer(a.ICPAddr(), a.URL()); err != nil {
		t.Fatal(err)
	}

	fetchOK := func(p *Proxy, u string) {
		t.Helper()
		resp, err := http.Get(p.URL() + ProxyPath + "?url=" + url.QueryEscape(u))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("client saw status %d: %s", resp.StatusCode, body)
		}
	}
	// Over the inline limit, so B's HIT sends A to the dead HTTP endpoint.
	u1 := origin.DocURL(org.URL(), "d1", overInline, 0)
	u2 := origin.DocURL(org.URL(), "d2", overInline, 0)
	fetchOK(b, u1) // B caches both documents
	fetchOK(b, u2)

	// First request through A: B claims HIT, fetch fails, breaker (threshold
	// 1) trips; the request falls back to the origin and still succeeds.
	fetchOK(a, u1)
	if got := a.BreakerState(b.ICPAddr().String()); got != core.PeerDown {
		t.Fatalf("breaker state after failed fetch = %v, want open", got)
	}
	st := a.Stats()
	if st.FalseHits != 1 || st.PeerFetches != 1 {
		t.Fatalf("stats after trip = %+v, want 1 false hit / 1 peer fetch", st)
	}
	// The trip marked B down in the health tracker.
	if up, down := a.Health(); len(up) != 0 || len(down) != 1 {
		t.Fatalf("health after trip: up=%v down=%v", up, down)
	}

	// Second request: B still answers HIT, but the open breaker skips the
	// doomed fetch entirely — no new peer fetch, another clean false hit.
	fetchOK(a, u2)
	st = a.Stats()
	if st.BreakerSkips != 1 {
		t.Fatalf("BreakerSkips = %d, want 1", st.BreakerSkips)
	}
	if st.PeerFetches != 1 {
		t.Fatalf("PeerFetches = %d, want 1 (open breaker must suppress the fetch)", st.PeerFetches)
	}
	if st.FalseHits != 2 {
		t.Fatalf("FalseHits = %d, want 2", st.FalseHits)
	}
}

// TestReAddedPeerFetchedAgain: re-adding a tripped sibling brings it back
// up at once, so its next claimed hit is fetched instead of skipped until
// the cooldown passes.
func TestReAddedPeerFetchedAgain(t *testing.T) {
	org, err := origin.Start(origin.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { org.Close() })
	mk := func() *Proxy {
		p, err := Start(Config{
			Mode: ModeICP, CacheBytes: 8 << 20,
			QueryTimeout:     time.Second,
			BreakerThreshold: 1,
			BreakerCooldown:  time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		return p
	}
	a, b := mk(), mk()
	if err := a.AddPeer(b.ICPAddr(), "http://127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer(a.ICPAddr(), a.URL()); err != nil {
		t.Fatal(err)
	}
	m := &mesh{origin: org, proxies: []*Proxy{a, b}}
	u1, u2 := m.docURL("readd/1", overInline), m.docURL("readd/2", overInline)
	m.fetch(t, b, u1)
	m.fetch(t, b, u2)
	m.fetch(t, a, u1) // B's HIT meets the dead endpoint: tripped
	if got := a.BreakerState(b.ICPAddr().String()); got != core.PeerDown {
		t.Fatalf("breaker = %v, want down", got)
	}

	if err := a.AddPeer(b.ICPAddr(), b.URL()); err != nil {
		t.Fatal(err)
	}
	m.fetch(t, a, u2)
	if st := a.Stats(); st.RemoteHits != 1 || st.BreakerSkips != 0 {
		up, _ := a.Health()
		t.Fatalf("after re-adding: healthy=%v breaker=%v RemoteHits=%d BreakerSkips=%d, want one remote hit",
			len(up) == 1, a.BreakerState(b.ICPAddr().String()), st.RemoteHits, st.BreakerSkips)
	}
}

// TestBreakerTripRecoverySCICP walks the full failure/recovery loop under
// SC-ICP: a tripped breaker drops the sibling's summary replica (no more
// nominations, health down); re-adding the sibling with a working endpoint
// brings it back up, and once it resyncs, its nomination is fetched and
// served as a remote hit.
func TestBreakerTripRecoverySCICP(t *testing.T) {
	org, err := origin.Start(origin.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { org.Close() })
	const cooldown = 100 * time.Millisecond
	mk := func() *Proxy {
		p, err := Start(Config{
			Mode: ModeSCICP, CacheBytes: 8 << 20,
			Summary:          bloom.DirectoryConfig{ExpectedDocs: 2000, UpdateThreshold: 0.01},
			QueryTimeout:     time.Second,
			BreakerThreshold: 1,
			BreakerCooldown:  cooldown,
			FetchBackoff:     time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		return p
	}
	a, b := mk(), mk()
	bID := b.ICPAddr().String()
	// A starts with a dead HTTP endpoint for B.
	if err := a.AddPeer(b.ICPAddr(), "http://127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer(a.ICPAddr(), a.URL()); err != nil {
		t.Fatal(err)
	}

	fetchOK := func(p *Proxy, u string) {
		t.Helper()
		resp, err := http.Get(p.URL() + ProxyPath + "?url=" + url.QueryEscape(u))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("client saw status %d", resp.StatusCode)
		}
	}
	// Over the inline limit, so a remote hit takes the HTTP leg the
	// breaker guards.
	u1 := origin.DocURL(org.URL(), "r1", overInline, 0)
	fetchOK(b, u1)
	b.FlushSummary()
	waitForCandidate(t, a, u1)

	// Nomination → ICP HIT → fetch against the dead endpoint → trip.
	fetchOK(a, u1)
	if got := a.BreakerState(bID); got != core.PeerDown {
		t.Fatalf("breaker = %v, want open", got)
	}
	// The trip dropped B's replica: no candidates, health down.
	if c := a.node.Candidates(u1); len(c) != 0 {
		t.Fatalf("candidates after trip = %v, want none", c)
	}
	if up, _ := a.Health(); len(up) != 0 {
		t.Fatal("health still up after trip")
	}

	// B comes back: fix the HTTP endpoint and resync summaries (the
	// operational recovery path; organically B's next DIRUPDATE does this).
	// A fresh document cached only on B carries the probe — u1 landed in
	// A's cache during the origin fallback, so it would be a local hit.
	u2 := origin.DocURL(org.URL(), "r2", overInline, 0)
	fetchOK(b, u2)
	if err := a.AddPeer(b.ICPAddr(), b.URL()); err != nil {
		t.Fatal(err)
	}
	if err := b.Resync(); err != nil {
		t.Fatal(err)
	}
	waitForCandidate(t, a, u2)
	time.Sleep(cooldown + 20*time.Millisecond)

	// Half-open probe: nomination admitted, fetch succeeds, circuit closes.
	fetchOK(a, u2)
	if got := a.BreakerState(bID); got != core.PeerUp {
		t.Fatalf("breaker after successful probe = %v, want closed", got)
	}
	if up, _ := a.Health(); len(up) != 1 {
		t.Fatal("recovery did not restore health")
	}
	st := a.Stats()
	if st.RemoteHits != 1 {
		t.Fatalf("stats after recovery = %+v, want the probe counted as a remote hit", st)
	}
}

// TestInlineHitBypassesSiblingHTTP is the inline counterpart of the two
// breaker tests above: a document small enough for a HIT_OBJ reply never
// touches the sibling's HTTP endpoint, so a dead endpoint costs nothing
// and its breaker never trips.
func TestInlineHitBypassesSiblingHTTP(t *testing.T) {
	org, err := origin.Start(origin.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { org.Close() })
	for _, mode := range []Mode{ModeICP, ModeSCICP} {
		t.Run(mode.String(), func(t *testing.T) {
			mk := func() *Proxy {
				p, err := Start(Config{
					Mode: mode, CacheBytes: 8 << 20,
					Summary:          bloom.DirectoryConfig{ExpectedDocs: 2000, UpdateThreshold: 0.01},
					QueryTimeout:     time.Second,
					BreakerThreshold: 1,
					BreakerCooldown:  time.Hour,
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { p.Close() })
				return p
			}
			a, b := mk(), mk()
			if err := a.AddPeer(b.ICPAddr(), "http://127.0.0.1:1"); err != nil {
				t.Fatal(err)
			}
			if err := b.AddPeer(a.ICPAddr(), a.URL()); err != nil {
				t.Fatal(err)
			}
			m := &mesh{origin: org, proxies: []*Proxy{a, b}}
			u := m.docURL("inline/"+mode.String(), 1024)
			m.fetch(t, b, u)
			if mode == ModeSCICP {
				b.FlushSummary()
				waitForCandidate(t, a, u)
			}
			if body := m.fetch(t, a, u); !bytes.Equal(body, originBody(1024)) {
				t.Fatal("inline remote hit served a wrong body")
			}
			st := a.Stats()
			if st.RemoteHits != 1 || st.PeerFetches != 0 || st.FalseHits != 0 || st.OriginFetches != 0 {
				t.Fatalf("stats = %+v, want one inline remote hit and no HTTP leg", st)
			}
			if got := a.BreakerState(b.ICPAddr().String()); got != core.PeerUp {
				t.Fatalf("breaker = %v, want closed: an inline hit never tries the dead endpoint", got)
			}
		})
	}
}

// TestHealthProberDrivesBreaker: the UDP health prober's down verdict is
// the state the fetch path reads, so /healthz and the breaker agree.
func TestHealthProberDrivesBreaker(t *testing.T) {
	org, err := origin.Start(origin.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { org.Close() })
	mk := func() *Proxy {
		p, err := Start(Config{
			Mode: ModeSCICP, CacheBytes: 8 << 20,
			Summary:      bloom.DirectoryConfig{ExpectedDocs: 500},
			QueryTimeout: time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := mk(), mk()
	t.Cleanup(func() { a.Close() })
	bID := b.ICPAddr().String()
	if err := a.AddPeer(b.ICPAddr(), b.URL()); err != nil {
		t.Fatal(err)
	}

	stop := a.StartHealthChecks(core.HealthConfig{
		Interval:         20 * time.Millisecond,
		FailureThreshold: 2,
	})
	t.Cleanup(stop)

	// Kill B outright: probes go unanswered, the prober marks it down, and
	// the breaker must read open as soon as /healthz reads down.
	b.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, down := a.Health(); len(down) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("prober never marked the dead peer down")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := a.BreakerState(bID); got != core.PeerDown {
		t.Fatalf("breaker after prober down = %v, want open", got)
	}
}

// TestBreakerDisabled: a negative threshold turns the breaker off — fetch
// failures never trip anything and fall back to the origin every time.
func TestBreakerDisabled(t *testing.T) {
	org, err := origin.Start(origin.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { org.Close() })
	mk := func() *Proxy {
		p, err := Start(Config{
			Mode: ModeICP, CacheBytes: 8 << 20,
			QueryTimeout:     time.Second,
			BreakerThreshold: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		return p
	}
	a, b := mk(), mk()
	if err := a.AddPeer(b.ICPAddr(), "http://127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer(a.ICPAddr(), a.URL()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		u := origin.DocURL(org.URL(), fmt.Sprintf("nd%d", i), overInline, 0)
		resp, err := http.Get(b.URL() + ProxyPath + "?url=" + url.QueryEscape(u))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		resp, err = http.Get(a.URL() + ProxyPath + "?url=" + url.QueryEscape(u))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	st := a.Stats()
	if st.PeerFetches != 3 || st.BreakerSkips != 0 {
		t.Fatalf("disabled breaker stats = %+v, want every fetch attempted", st)
	}
	if got := a.BreakerState(b.ICPAddr().String()); got != core.PeerUp {
		t.Fatalf("disabled breaker reports %v", got)
	}
}
