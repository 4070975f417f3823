package httpproxy

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"summarycache/internal/bloom"
	"summarycache/internal/hashing"
	"summarycache/internal/origin"
)

// mesh starts an origin plus n proxies in the given mode, fully peered.
type mesh struct {
	origin  *origin.Server
	proxies []*Proxy
}

func newMesh(t *testing.T, n int, mode Mode, originLatency time.Duration) *mesh {
	t.Helper()
	org, err := origin.Start(origin.Config{Latency: originLatency})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { org.Close() })
	m := &mesh{origin: org}
	for i := 0; i < n; i++ {
		p, err := Start(Config{
			Mode:       mode,
			CacheBytes: 8 << 20,
			Summary: bloom.DirectoryConfig{
				ExpectedDocs: 2000, UpdateThreshold: 0.01,
			},
			QueryTimeout: 2 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		m.proxies = append(m.proxies, p)
	}
	if mode != ModeNone {
		for i, p := range m.proxies {
			for j, q := range m.proxies {
				if i != j {
					if err := p.AddPeer(q.ICPAddr(), q.URL()); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	return m
}

// fetch requests target through proxy p using the explicit proxy form.
func (m *mesh) fetch(t *testing.T, p *Proxy, target string) []byte {
	t.Helper()
	resp, err := http.Get(p.URL() + ProxyPath + "?url=" + url.QueryEscape(target))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	return body
}

func (m *mesh) docURL(path string, size int64) string {
	return origin.DocURL(m.origin.URL(), path, size, 0)
}

func TestModeStrings(t *testing.T) {
	for _, mo := range []Mode{ModeNone, ModeICP, ModeSCICP, Mode(9)} {
		if mo.String() == "" {
			t.Errorf("empty string for mode %d", int(mo))
		}
	}
}

func TestStartValidation(t *testing.T) {
	if _, err := Start(Config{CacheBytes: 0}); err == nil {
		t.Error("accepted zero cache")
	}
	if _, err := Start(Config{CacheBytes: 1 << 20, Mode: Mode(9)}); err == nil {
		t.Error("accepted unknown mode")
	}
	if _, err := Start(Config{CacheBytes: 1 << 20, ParentURL: "http://[::1"}); err == nil {
		t.Error("accepted a parent URL that does not parse")
	}
}

// TestAddPeerRefusesBadURL: a sibling whose HTTP base URL does not parse is
// refused and not registered, as Start refuses such a ParentURL.
func TestAddPeerRefusesBadURL(t *testing.T) {
	p, err := Start(Config{Mode: ModeSCICP, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	sib := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}
	for _, bad := range []string{"http://[::1", "http://h:x", "%zz"} {
		if err := p.AddPeer(sib, bad); err == nil {
			t.Errorf("accepted the sibling URL %q", bad)
		}
	}
	if peers := p.node.PeerAddrs(); len(peers) != 0 || p.siblingURL(sib.String()) != nil {
		t.Fatalf("a refused sibling was registered: peers %v", peers)
	}
	if err := p.AddPeer(sib, "http://127.0.0.1:1"); err != nil || p.siblingURL(sib.String()) == nil {
		t.Fatalf("refused a sibling URL that parses: %v", err)
	}
}

func TestLocalHitAndMiss(t *testing.T) {
	m := newMesh(t, 1, ModeNone, 0)
	p := m.proxies[0]
	u := m.docURL("doc1", 4096)

	body := m.fetch(t, p, u)
	if len(body) != 4096 {
		t.Fatalf("body %d bytes", len(body))
	}
	body = m.fetch(t, p, u) // second request: local hit
	if len(body) != 4096 {
		t.Fatalf("hit body %d bytes", len(body))
	}
	st := p.Stats()
	if st.ClientRequests != 2 || st.LocalHits != 1 || st.Misses != 1 || st.OriginFetches != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if m.origin.Stats().Requests != 1 {
		t.Fatalf("origin saw %d requests, want 1", m.origin.Stats().Requests)
	}
}

func TestAbsoluteFormProxying(t *testing.T) {
	m := newMesh(t, 1, ModeNone, 0)
	p := m.proxies[0]
	u := m.docURL("abs", 1000)
	proxyURL, _ := url.Parse(p.URL())
	client := &http.Client{Transport: &http.Transport{Proxy: http.ProxyURL(proxyURL)}}
	resp, err := client.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) != 1000 {
		t.Fatalf("status %d, %d bytes", resp.StatusCode, len(body))
	}
	if p.Stats().ClientRequests != 1 {
		t.Fatal("absolute-form request not served by proxy")
	}
}

func TestBadRequests(t *testing.T) {
	m := newMesh(t, 2, ModeSCICP, 0)
	p := m.proxies[1]
	resp, err := http.Get(p.URL() + ProxyPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing url: status %d", resp.StatusCode)
	}
	resp, err = http.Get(p.URL() + "/random")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("origin-form request: status %d", resp.StatusCode)
	}

	// A target that does not parse is refused before the summary probe,
	// even when a sibling's summary claims it: no ICP query goes out.
	const bad = "http://[::1/doc"
	m.proxies[0].node.HandleInsert(bad)
	m.proxies[0].FlushSummary()
	waitForCandidate(t, p, bad)
	resp, err = http.Get(p.URL() + ProxyPath + "?url=" + url.QueryEscape(bad))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed target: status %d, want 400", resp.StatusCode)
	}
	if q := p.Stats().Node.QueriesSent; q != 0 {
		t.Fatalf("a malformed target sent %d ICP queries, want 0", q)
	}

	// Targets outside plainTarget's subset that url.Parse accepts are
	// parsed before the probe and served: here each as a remote hit on the
	// sibling that caches it, so none needs an origin.
	holder := m.proxies[0]
	for i, target := range []string{
		"https://origin.invalid/doc",
		"http://[::1]:8080/doc",
		"http://user@origin.invalid/doc",
	} {
		if _, plain := plainTarget(target); plain {
			t.Fatalf("%q is inside the fast subset", target)
		}
		holder.storeBody(nil, target, signature(holder, target), 0, []byte(target))
		holder.FlushSummary()
		waitForCandidate(t, p, target)
		if body := m.fetch(t, p, target); string(body) != target {
			t.Fatalf("%q: served %q", target, body)
		}
		if st := p.Stats(); st.RemoteHits != uint64(i+1) {
			t.Fatalf("%q: stats %+v, want a remote hit", target, st)
		}
	}
}

// FuzzTargetCheck holds plainTarget to url.Parse: every target it accepts
// url.Parse accepts too, as an http URL whose Host, EscapedPath and
// RawQuery are the bytes between the target's delimiters. For such a
// target the upstream request cut from the string is the one url.Parse's
// URL gives, and requestTarget's fast path reads it as
// url.ParseRequestURI does, with the target itself as the URL's String.
// plainTarget reads a target held as bytes exactly as its string.
func FuzzTargetCheck(f *testing.F) {
	for _, s := range []string{
		// The targets of FuzzURLParam's and FuzzRequestHead's seeds.
		"http://o/d",
		"http://o/d?size=1024&v=0",
		"x y+z",
		"second",
		"%zz",
		"€",
		"/__summarycache/proxy?url=http://o/d",
		"/a%zz",
		"p:443",
		// What a mesh asks for, and escapes.
		"http://127.0.0.1:8080/r/17?size=1024&v=0",
		"http://Host_1.example-2.com/a%2Fb/%41;p=1,q@x:y/~!$&'()*+=?q=%zz&a=[]|{}",
		"http://h?", "http://h", "http://h:80",
		// Malformed: a bad escape in the path and in the host, a control
		// byte, a fragment, an open IPv6 literal, a bad port, no scheme,
		// an empty host.
		"http://h/a%zz", "http://h/a%4", "http://h%zz/", "http://h/\x01", "http://h/?\x7f",
		"http://h/#frag", "http://h/?q#frag", "http://[::1", "http://h:x/", ":x", "http:///p", "http://",
		// Accepted by url.Parse, outside the subset.
		"https://h/", "HTTP://h/", "http://[::1]:80/", "http://u@h/", "http://h:/", "http://h/a b",
	} {
		f.Add(s)
	}
	// The subset covers what a mesh asks for.
	for _, s := range []string{"http://o/d?size=1024&v=0", "http://127.0.0.1:8080/r/17?size=1024&v=0", "http://h?", "http://h:80"} {
		if _, plain := plainTarget(s); !plain {
			f.Fatalf("plainTarget refused %q", s)
		}
	}
	f.Fuzz(func(t *testing.T, target string) {
		n, plain := plainTarget(target)
		if nb, pb := plainTarget([]byte(target)); nb != n || pb != plain {
			t.Fatalf("%q: plainTarget reads the string as %d, %v and its bytes as %d, %v", target, n, plain, nb, pb)
		}
		if !plain {
			return
		}
		u, err := url.Parse(target)
		if err != nil {
			t.Fatalf("plainTarget accepted %q, which url.Parse refuses: %v", target, err)
		}
		authority, _ := strings.CutPrefix(target, "http://")
		rest := ""
		if i := strings.IndexAny(authority, "/?"); i >= 0 {
			authority, rest = authority[:i], authority[i:]
		}
		path, query, _ := strings.Cut(rest, "?")
		if u.Scheme != "http" || u.Host != authority || u.EscapedPath() != path || u.RawQuery != query {
			t.Fatalf("%q: url.Parse reads scheme %q host %q path %q query %q; the target has host %q path %q query %q",
				target, u.Scheme, u.Host, u.EscapedPath(), u.RawQuery, authority, path, query)
		}
		cut, parsed := plainRequest(target, n), mustRequest(t, u)
		if !reflect.DeepEqual(cut, parsed) || string(cut.appendHead(nil)) != string(parsed.appendHead(nil)) {
			t.Fatalf("%q: the request cut from the target is %+v, writing %q; url.Parse's is %+v, writing %q",
				target, cut, cut.appendHead(nil), parsed, parsed.appendHead(nil))
		}
		ru, err := url.ParseRequestURI(target)
		if err != nil || ru.String() != target {
			t.Fatalf("%q: url.ParseRequestURI reads %v, %v; want the target as its String", target, ru, err)
		}
		p, q, abs, ok := requestTarget([]byte(target))
		if !ok || string(p) != ru.Path || string(q) != ru.RawQuery || string(abs) != target {
			t.Fatalf("%q: requestTarget reads path %q query %q abs %q ok %v; url.ParseRequestURI path %q query %q",
				target, p, q, abs, ok, ru.Path, ru.RawQuery)
		}
		checkBytePath(t, abs, target)
	})
}

// checkBytePath holds what a miss does with a key held as bytes to what
// the string path does with want, the same key: the signature, the
// summary probe positions — under the paper's one-digest family and a
// family whose second digest reads the key itself — and the url= value of
// a sibling's request.
func checkBytePath(t *testing.T, key []byte, want string) {
	t.Helper()
	sig := hashing.Signature(want)
	if got := hashing.Signature(key); got != sig {
		t.Fatalf("%q: the signature of the bytes is %x, of the string %x", want, got, sig)
	}
	for _, spec := range []hashing.Spec{hashing.DefaultSpec, {FunctionNum: 6, FunctionBits: 32}} {
		f, err := bloom.NewFilter(1<<20, spec)
		if err != nil {
			t.Fatal(err)
		}
		if got, w := bloom.IndexesSigOf(f, nil, key, sig), f.IndexesSig(nil, want, sig); !slices.Equal(got, w) {
			t.Fatalf("%q under %v: the bytes probe %v, the string %v", want, spec, got, w)
		}
	}
	r := upRequest{hasQuery: true, query: "url="}
	byString, byBytes := r, r
	byString.arg, byBytes.argBytes = want, key
	if got, w := byBytes.appendHead(nil), byString.appendHead(nil); string(got) != string(w) {
		t.Fatalf("%q: the request with the bytes is %q, with the string %q", want, got, w)
	}
}

func mustRequest(t *testing.T, u *url.URL) upRequest {
	t.Helper()
	r, err := urlRequest(u)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// FuzzQueryEscape holds appendQueryEscape, which writes a parent or
// sibling fetch's url= value into the request head, to url.QueryEscape.
func FuzzQueryEscape(f *testing.F) {
	for _, s := range []string{
		"", "http://o/d?size=1024&v=0", "a b+c", "-_.~!*'();:@&=+$,/?#[]", "%zz", "café\x00\x7f\xff",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := string(appendQueryEscape([]byte("x="), s)), "x="+url.QueryEscape(s); got != want {
			t.Fatalf("appendQueryEscape(%q) = %q, want %q", s, got, want)
		}
	})
}

func TestOriginDown(t *testing.T) {
	m := newMesh(t, 1, ModeNone, 0)
	resp, err := http.Get(m.proxies[0].URL() + ProxyPath + "?url=" +
		url.QueryEscape("http://127.0.0.1:1/unreachable"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502", resp.StatusCode)
	}
}

func TestICPRemoteHit(t *testing.T) {
	m := newMesh(t, 2, ModeICP, 0)
	u := m.docURL("shared", 2048)

	m.fetch(t, m.proxies[0], u) // miss → origin; proxy 0 caches
	m.fetch(t, m.proxies[1], u) // miss → ICP finds proxy 0 → remote hit

	st1 := m.proxies[1].Stats()
	if st1.RemoteHits != 1 || st1.Misses != 0 {
		t.Fatalf("proxy1 stats = %+v, want one remote hit", st1)
	}
	if m.origin.Stats().Requests != 1 {
		t.Fatalf("origin saw %d requests, want 1 (remote hit avoided a fetch)",
			m.origin.Stats().Requests)
	}
	// After a remote hit, simple sharing caches locally: a third request on
	// proxy 1 is a local hit.
	m.fetch(t, m.proxies[1], u)
	if m.proxies[1].Stats().LocalHits != 1 {
		t.Fatal("remote hit was not cached locally")
	}
	// ICP traffic flowed.
	if st1.UDP.Sent == 0 || st1.UDP.Received == 0 {
		t.Fatalf("no ICP traffic recorded: %+v", st1.UDP)
	}
}

func TestICPAllMissQueriesEveryone(t *testing.T) {
	m := newMesh(t, 4, ModeICP, 0)
	u := m.docURL("lonely", 512)
	m.fetch(t, m.proxies[0], u)
	st := m.proxies[0].Stats()
	// One miss → 3 queries out, 3 replies back.
	if st.UDP.Sent != 3 || st.UDP.Received != 3 {
		t.Fatalf("UDP stats = %+v, want 3 sent / 3 received", st.UDP)
	}
}

func TestSCICPRemoteHit(t *testing.T) {
	m := newMesh(t, 2, ModeSCICP, 0)
	u := m.docURL("scdoc", 2048)

	m.fetch(t, m.proxies[0], u) // proxy 0 caches; summary update flows
	m.proxies[0].FlushSummary() // force publication
	waitForCandidate(t, m.proxies[1], u)

	m.fetch(t, m.proxies[1], u)
	st := m.proxies[1].Stats()
	if st.RemoteHits != 1 {
		t.Fatalf("stats = %+v, want one remote hit", st)
	}
	if m.origin.Stats().Requests != 1 {
		t.Fatalf("origin saw %d requests", m.origin.Stats().Requests)
	}
	if st.Node.QueriesSent != 1 {
		t.Fatalf("SC-ICP sent %d queries, want exactly 1 (only the promising peer)",
			st.Node.QueriesSent)
	}
}

func waitForCandidate(t *testing.T, p *Proxy, u string) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if len(p.node.Candidates(u)) > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("summary never replicated")
}

func TestSCICPNoQueriesWhenSummariesSayNo(t *testing.T) {
	m := newMesh(t, 3, ModeSCICP, 0)
	// Unique documents per proxy: summaries rule peers out, so SC-ICP sends
	// (almost) no queries — the paper's core claim.
	for i, p := range m.proxies {
		for j := 0; j < 20; j++ {
			m.fetch(t, p, m.docURL(fmt.Sprintf("p%d/doc%d", i, j), 1024))
		}
	}
	var totalQueries uint64
	for _, p := range m.proxies {
		totalQueries += p.Stats().Node.QueriesSent
	}
	// 60 misses × 2 peers = 120 ICP queries under classic ICP; summaries
	// should eliminate nearly all (false positives allow a few).
	if totalQueries > 12 {
		t.Fatalf("SC-ICP sent %d queries for disjoint working sets, want ≈0", totalQueries)
	}
}

func TestCacheOnlyEndpoint(t *testing.T) {
	m := newMesh(t, 1, ModeNone, 0)
	p := m.proxies[0]
	u := m.docURL("co", 100)
	m.fetch(t, p, u)

	resp, err := http.Get(p.URL() + CacheOnlyPath + "?url=" + url.QueryEscape(u))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) != 100 {
		t.Fatalf("cacheonly: status %d, %d bytes", resp.StatusCode, len(body))
	}
	// Cache-only miss must 404, not fetch.
	before := m.origin.Stats().Requests
	resp, err = http.Get(p.URL() + CacheOnlyPath + "?url=" + url.QueryEscape(m.docURL("absent", 10)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cacheonly miss: status %d", resp.StatusCode)
	}
	if m.origin.Stats().Requests != before {
		t.Fatal("cache-only miss triggered an origin fetch")
	}
}

func TestUncacheableLargeDocServed(t *testing.T) {
	m := newMesh(t, 1, ModeNone, 0)
	p := m.proxies[0]
	u := m.docURL("big", 300*1024) // over the 250 KB limit
	body := m.fetch(t, p, u)
	if len(body) != 300*1024 {
		t.Fatalf("body %d", len(body))
	}
	if p.CacheLen() != 0 {
		t.Fatal("uncacheable document was cached")
	}
	// Second request fetches again.
	m.fetch(t, p, u)
	if m.origin.Stats().Requests != 2 {
		t.Fatal("large doc should not be served from cache")
	}
}

func TestAddPeerModeNoneRejected(t *testing.T) {
	m := newMesh(t, 2, ModeNone, 0)
	if err := m.proxies[0].AddPeer(nil, m.proxies[1].URL()); err == nil {
		t.Fatal("ModeNone accepted a peer")
	}
}

func TestConcurrentClients(t *testing.T) {
	m := newMesh(t, 2, ModeSCICP, 0)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 25; i++ {
				u := m.docURL(fmt.Sprintf("c%d", i%10), 1024)
				resp, err := http.Get(m.proxies[g%2].URL() + ProxyPath + "?url=" + url.QueryEscape(u))
				if err != nil {
					done <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	total := m.proxies[0].Stats().ClientRequests + m.proxies[1].Stats().ClientRequests
	if total != 200 {
		t.Fatalf("served %d requests, want 200", total)
	}
}

// Two children behind a parent: a document fetched by one child is a
// parent hit for the other, and the origin is contacted only once — the
// paper's §VIII parent/child configuration.
func TestParentChildHierarchy(t *testing.T) {
	org, err := origin.Start(origin.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { org.Close() })
	parent, err := Start(Config{Mode: ModeNone, CacheBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { parent.Close() })
	var children []*Proxy
	for i := 0; i < 2; i++ {
		c, err := Start(Config{Mode: ModeNone, CacheBytes: 8 << 20, ParentURL: parent.URL()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		children = append(children, c)
	}
	u := origin.DocURL(org.URL(), "hier", 2048, 0)
	get := func(p *Proxy) int {
		resp, err := http.Get(p.URL() + ProxyPath + "?url=" + url.QueryEscape(u))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return len(body)
	}
	if n := get(children[0]); n != 2048 {
		t.Fatalf("child 0 got %d bytes", n)
	}
	if n := get(children[1]); n != 2048 {
		t.Fatalf("child 1 got %d bytes", n)
	}
	if got := org.Stats().Requests; got != 1 {
		t.Fatalf("origin saw %d requests, want 1 (second child served by parent)", got)
	}
	if parent.Stats().LocalHits != 1 {
		t.Fatalf("parent stats: %+v, want one local hit", parent.Stats())
	}
}

// Single-copy sharing: a sibling-served document is not cached locally, so
// repeated requests keep fetching from the sibling (space conserved).
func TestSingleCopySharing(t *testing.T) {
	org, err := origin.Start(origin.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { org.Close() })
	owner, err := Start(Config{Mode: ModeICP, CacheBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { owner.Close() })
	requester, err := Start(Config{Mode: ModeICP, CacheBytes: 8 << 20, SingleCopy: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { requester.Close() })
	if err := requester.AddPeer(owner.ICPAddr(), owner.URL()); err != nil {
		t.Fatal(err)
	}
	if err := owner.AddPeer(requester.ICPAddr(), requester.URL()); err != nil {
		t.Fatal(err)
	}

	u := origin.DocURL(org.URL(), "sc-doc", 1024, 0)
	fetch := func(p *Proxy) {
		resp, err := http.Get(p.URL() + ProxyPath + "?url=" + url.QueryEscape(u))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	fetch(owner) // owner caches from origin
	fetch(requester)
	fetch(requester) // still a remote hit: nothing cached locally
	st := requester.Stats()
	if st.RemoteHits != 2 {
		t.Fatalf("remote hits = %d, want 2 (single-copy keeps refetching)", st.RemoteHits)
	}
	if st.LocalHits != 0 || requester.CacheLen() != 0 {
		t.Fatalf("single-copy requester cached a sibling document: %+v", st)
	}
	if org.Stats().Requests != 1 {
		t.Fatalf("origin saw %d requests, want 1", org.Stats().Requests)
	}
}
