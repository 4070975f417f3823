package httpproxy

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"summarycache/internal/bloom"
	"summarycache/internal/core"
	"summarycache/internal/meshhealth"
	"summarycache/internal/obs"
	"summarycache/internal/origin"
)

func scrape(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	rec := httptest.NewRecorder()
	obs.NewHandler(reg, nil).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return rec.Body.String()
}

// TestRemovePeerDropsMetricSeries is the peer-churn metric-lifecycle
// regression: every series labeled with a departed peer — the breaker
// gauge, the node's replica-health series, the decision counters — must
// disappear from /metrics when RemovePeer drops the peer.
func TestRemovePeerDropsMetricSeries(t *testing.T) {
	m := newMesh(t, 2, ModeSCICP, 0)
	p1, p2 := m.proxies[0], m.proxies[1]
	peerID := p2.ICPAddr().String()

	before := scrape(t, p1.Registry())
	if !strings.Contains(before, `peer="`+peerID+`"`) {
		t.Fatalf("expected per-peer series before removal:\n%s", before)
	}
	if !strings.Contains(before, "summarycache_proxy_breaker_state") {
		t.Fatalf("expected breaker gauge before removal:\n%s", before)
	}

	p1.RemovePeer(p2.ICPAddr())

	after := scrape(t, p1.Registry())
	if strings.Contains(after, `peer="`+peerID+`"`) {
		t.Errorf("stale per-peer series survived RemovePeer:\n%s", after)
	}
	if got := p1.BreakerState(peerID); got != core.PeerUp {
		t.Errorf("BreakerState after removal = %v", got)
	}

	// Re-adding the peer must restore a working breaker gauge.
	if err := p1.AddPeer(p2.ICPAddr(), p2.URL()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(scrape(t, p1.Registry()), `summarycache_proxy_breaker_state{peer="`+peerID+`"`) {
		t.Error("breaker gauge not re-registered after peer rejoined")
	}
}

// TestRemovedPeerSeriesStayGone: a peer removed one way still has us
// registered, so it keeps publishing. Its updates are refused, no replica
// is re-created and no lookup nominates it, and none of its series come
// back.
func TestRemovedPeerSeriesStayGone(t *testing.T) {
	m := newMesh(t, 2, ModeSCICP, 0)
	p1, p2 := m.proxies[0], m.proxies[1]
	p1.RemovePeer(p2.ICPAddr())

	u := m.docURL("doc", 1024)
	m.fetch(t, p2, u)
	rejected := p1.Stats().Node.UpdatesRejected
	p2.FlushSummary()
	deadline := time.Now().Add(3 * time.Second)
	for p1.Stats().Node.UpdatesRejected == rejected {
		if time.Now().After(deadline) {
			t.Fatal("the removed peer's update was never refused")
		}
		time.Sleep(5 * time.Millisecond)
	}
	m.fetch(t, p1, u)
	if st := p1.Stats(); st.RemoteHits != 0 || st.Node.QueriesSent != 0 {
		t.Fatalf("RemoteHits = %d, queries = %d, want none: the removed peer must not be nominated",
			st.RemoteHits, st.Node.QueriesSent)
	}
	label := `peer="` + p2.ICPAddr().String() + `"`
	for _, line := range strings.Split(scrape(t, p1.Registry()), "\n") {
		if strings.Contains(line, label) {
			t.Errorf("the removed peer's series came back: %s", line)
		}
	}
}

// peerDecisions returns the decisions p's mesh report charges to peer.
func peerDecisions(p, peer *Proxy) meshhealth.PeerStats {
	for _, r := range p.MeshReport().Peers {
		if r.Peer == peer.ICPAddr().String() {
			return r.Decisions
		}
	}
	return meshhealth.PeerStats{}
}

// chargedRemoteHits sums the remote hits p's mesh report charges to its
// peers.
func chargedRemoteHits(p *Proxy) (sum uint64) {
	for _, r := range p.MeshReport().Peers {
		sum += r.Decisions.RemoteHits
	}
	return sum
}

// waitForUpdates publishes src's pending summary changes and waits until
// dst's replica names key. (Waiting for any applied update is not enough:
// the full-state push of AddPeer counts too, and may be all dst has seen.)
func waitForUpdates(t *testing.T, src, dst *Proxy, key string) {
	t.Helper()
	src.FlushSummary()
	waitForCandidate(t, dst, key)
}

func TestVersionAwareStaleClassification(t *testing.T) {
	org, err := origin.Start(origin.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { org.Close() })
	var proxies []*Proxy
	for i := 0; i < 2; i++ {
		p, err := Start(Config{
			Mode:         ModeSCICP,
			CacheBytes:   8 << 20,
			VersionAware: true,
			Summary:      bloom.DirectoryConfig{ExpectedDocs: 2000, UpdateThreshold: 0.01},
			QueryTimeout: 2 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		proxies = append(proxies, p)
	}
	p1, p2 := proxies[0], proxies[1]
	for _, pair := range [][2]*Proxy{{p1, p2}, {p2, p1}} {
		if err := pair[0].AddPeer(pair[1].ICPAddr(), pair[1].URL()); err != nil {
			t.Fatal(err)
		}
	}

	m := &mesh{origin: org, proxies: proxies}
	// p1 caches version 1 and advertises it.
	m.fetch(t, p1, origin.DocURL(org.URL(), "doc", 2048, 1))
	key, _ := splitVersion(origin.DocURL(org.URL(), "doc", 2048, 1))
	waitForUpdates(t, p1, p2, key)

	// p2 wants version 2: p1's summary nominates the (version-stripped)
	// key, p1 answers with version 1 inside its HIT_OBJ reply — a stale
	// hit, found without a sibling fetch.
	m.fetch(t, p2, origin.DocURL(org.URL(), "doc", 2048, 2))
	st := p2.Stats()
	if st.StaleHits != 1 || st.PeerFetches != 0 {
		t.Fatalf("StaleHits = %d, PeerFetches = %d, want 1 and 0 (stats %+v)", st.StaleHits, st.PeerFetches, st)
	}
	if st.RemoteHits != 0 {
		t.Errorf("RemoteHits = %d, want 0: a stale delivery must not count as remote hit", st.RemoteHits)
	}
	ps := peerDecisions(p2, p1)
	if ps.StaleHits != 1 {
		t.Errorf("per-peer StaleHits = %d, want 1 (%+v)", ps.StaleHits, ps)
	}
	if got := chargedRemoteHits(p2); got != st.RemoteHits {
		t.Errorf("per-peer RemoteHits sum to %d, proxy RemoteHits = %d: only a fresh delivery is a remote hit", got, st.RemoteHits)
	}

	// The fresh version 2 was stored; re-requesting it is a local hit,
	// and requesting version 3 finds the local copy stale.
	m.fetch(t, p2, origin.DocURL(org.URL(), "doc", 2048, 2))
	if st := p2.Stats(); st.LocalHits != 1 {
		t.Errorf("LocalHits = %d, want 1", st.LocalHits)
	}
	m.fetch(t, p2, origin.DocURL(org.URL(), "doc", 2048, 3))
	if st := p2.Stats(); st.LocalStale != 1 {
		t.Errorf("LocalStale = %d, want 1 (stats %+v)", st.LocalStale, st)
	}

	// Stats()==scrape parity for the new counters.
	body := scrape(t, p2.Registry())
	for _, want := range []string{
		"summarycache_proxy_stale_hits_total{", "summarycache_proxy_local_stale_total{",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

func TestFalseMissAudit(t *testing.T) {
	org, err := origin.Start(origin.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { org.Close() })
	var proxies []*Proxy
	for i := 0; i < 2; i++ {
		p, err := Start(Config{
			Mode:       ModeSCICP,
			CacheBytes: 8 << 20,
			// Never auto-publish: p2's replica of p1 stays empty, so p1's
			// copies are invisible to the summary — every shared doc is a
			// false miss.
			Summary:             bloom.DirectoryConfig{ExpectedDocs: 2000, MinPending: 1 << 20},
			FalseMissAuditEvery: 1,
			QueryTimeout:        2 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		proxies = append(proxies, p)
	}
	p1, p2 := proxies[0], proxies[1]
	for _, pair := range [][2]*Proxy{{p1, p2}, {p2, p1}} {
		if err := pair[0].AddPeer(pair[1].ICPAddr(), pair[1].URL()); err != nil {
			t.Fatal(err)
		}
	}
	m := &mesh{origin: org, proxies: proxies}

	u := m.docURL("doc", 2048)
	m.fetch(t, p1, u) // p1 caches it, unadvertised
	m.fetch(t, p2, u) // p2: no candidates, audit finds p1's copy

	st := p2.Stats()
	if st.Node.FalseMisses != 1 {
		t.Fatalf("FalseMisses = %d, want 1 (node stats %+v)", st.Node.FalseMisses, st.Node)
	}
	if st.Node.AuditQueries == 0 {
		t.Error("AuditQueries = 0, want > 0")
	}
	if st.RemoteHits != 0 {
		t.Errorf("RemoteHits = %d: the audit must not change the lookup result", st.RemoteHits)
	}
	ps := peerDecisions(p2, p1)
	if ps.FalseMisses != 1 {
		t.Errorf("per-peer FalseMisses = %d, want 1 (%+v)", ps.FalseMisses, ps)
	}
}

func TestDebugMeshEndpointLiveMesh(t *testing.T) {
	m := newMesh(t, 3, ModeSCICP, 0)
	p1, p2 := m.proxies[0], m.proxies[1]

	// Warm and advertise so p2 holds a replica of p1.
	m.fetch(t, p1, m.docURL("a", 1024))
	m.fetch(t, p1, m.docURL("b", 1024))
	waitForUpdates(t, p1, p2, m.docURL("a", 1024))
	m.fetch(t, p2, m.docURL("a", 1024)) // remote hit through the mesh

	rep := p2.MeshReport()
	if len(rep.Peers) != 2 {
		t.Fatalf("MeshReport has %d peers, want 2", len(rep.Peers))
	}
	if rep.Mode != "SC-ICP" || rep.Node == "" {
		t.Errorf("report header: %+v", rep)
	}
	if rep.Local.LastAdvertAgeMS < 0 && rep.Local.UpdatesSent > 0 {
		t.Errorf("LastAdvertAgeMS = %v with UpdatesSent = %d", rep.Local.LastAdvertAgeMS, rep.Local.UpdatesSent)
	}
	var p1row *meshhealth.PeerReport
	for i := range rep.Peers {
		if rep.Peers[i].Peer == p1.ICPAddr().String() {
			p1row = &rep.Peers[i]
		}
	}
	if p1row == nil {
		t.Fatalf("no row for p1 in %+v", rep.Peers)
	}
	if !p1row.HasReplica || p1row.FillRatio <= 0 || p1row.FilterBits == 0 {
		t.Errorf("p1 replica health not populated: %+v", p1row)
	}
	if p1row.EstFalsePositive <= 0 || p1row.EstFalsePositive >= 1 {
		t.Errorf("EstFalsePositive = %v, want (0,1)", p1row.EstFalsePositive)
	}
	if p1row.BytesIn == 0 {
		t.Errorf("BytesIn = 0 after applied updates: %+v", p1row)
	}
	if p1row.Decisions.Nominations == 0 || p1row.Decisions.RemoteHits == 0 {
		t.Errorf("decision attribution missing: %+v", p1row.Decisions)
	}
	if got, want := chargedRemoteHits(p2), p2.Stats().RemoteHits; got != want {
		t.Errorf("per-peer RemoteHits sum to %d, proxy RemoteHits = %d", got, want)
	}

	// The handler serves the same content at /debug/mesh.
	srv := httptest.NewServer(p2.MeshHandler())
	t.Cleanup(srv.Close)
	resp, err := http.Get(srv.URL + "?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got []meshhealth.Report
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got[0].Peers) != 2 {
		t.Fatalf("served report shape: %+v", got)
	}

	resp, err = http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	html, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(html), p1.ICPAddr().String()) {
		t.Errorf("HTML view missing peer row:\n%s", html)
	}
}
