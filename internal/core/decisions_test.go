package core

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"summarycache/internal/meshhealth"
	"summarycache/internal/obs"
)

// decisionNode starts a node instrumented against reg (nil: its own) that
// holds the documents in held, which must not change, and samples every
// unresolved lookup for the false-miss audit.
func decisionNode(t *testing.T, reg *obs.Registry, held map[string]bool) *Node {
	t.Helper()
	n, err := NewNode(NodeConfig{
		ListenAddr:          "127.0.0.1:0",
		Directory:           DirectoryConfig{ExpectedDocs: 1000, LoadFactor: 16, UpdateThreshold: 0.01},
		HasDocument:         func(u string) bool { return held[u] },
		MinFlipsToPublish:   1,
		QueryTimeout:        2 * time.Second,
		Metrics:             reg,
		FalseMissAuditEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

func scrapeLines(reg *obs.Registry) []string {
	var b bytes.Buffer
	reg.WritePrometheus(&b)
	return strings.Split(b.String(), "\n")
}

// decisionsOf returns the decisions n charges to the registered peer id
// (ok false: not registered).
func decisionsOf(n *Node, id string) (d meshhealth.PeerStats, ok bool) {
	for _, r := range n.PeerReports() {
		if r.Peer == id {
			return r.Decisions, true
		}
	}
	return d, false
}

// TestPeerDecisionsScrapeParity is the Stats()==scrape contract for the
// summarycache_peer_* decision families, each count charged the way a live
// lookup charges it: nominations and all-MISS false hits by the lookup,
// false misses by the audit, and deliveries by the caller.
func TestPeerDecisionsScrapeParity(t *testing.T) {
	const hit, lie, hidden = "http://o/hit", "http://o/lie", "http://o/hidden"
	reg := obs.NewRegistry()
	a := decisionNode(t, reg, nil)
	b := decisionNode(t, nil, map[string]bool{hit: true, hidden: true})
	if err := b.AddPeer(a.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := a.AddPeer(b.Addr()); err != nil {
		t.Fatal(err)
	}
	b.HandleInsert(hit)
	b.HandleInsert(lie) // summarized, but b answers MISS: a lie
	b.PublishNow()
	waitFor(t, "b's summary at a", func() bool {
		return len(a.Candidates(hit)) > 0 && len(a.Candidates(lie)) > 0
	})

	ctx := context.Background()
	lookup := func(url string, resolved bool) {
		t.Helper()
		if res, err := a.LookupObject(ctx, url); err != nil || (res.Peer != nil) != resolved {
			t.Fatalf("lookup %s = %+v (%v), want resolved=%v", url, res, err, resolved)
		}
	}
	for i := 0; i < 5; i++ {
		lookup(hit, true)
	}
	for _, d := range []Delivery{DeliveredFresh, DeliveredFresh, DeliveredFresh, DeliveredStale, NotDelivered} {
		a.Delivered(ctx, b.Addr(), hit, d)
	}
	lookup(lie, false)
	lookup(lie, false)
	lookup(hidden, false) // no candidate; the audit finds b's copy

	id := b.Addr().String()
	st, ok := decisionsOf(a, id)
	want := meshhealth.PeerStats{Nominations: 7, RemoteHits: 3, FalseHits: 3, FalseMisses: 1, StaleHits: 1}
	if !ok || st != want {
		t.Fatalf("decisions charged to b = %+v (registered %v), want %+v", st, ok, want)
	}

	labels := fmt.Sprintf(`{node="%s",peer="%s"}`, a.Addr(), id)
	wantLines := []string{fmt.Sprintf("summarycache_peer_divergence%s %g", labels, 3.0/7.0)}
	for family, v := range map[string]uint64{
		"summarycache_peer_nominations_total":  st.Nominations,
		"summarycache_peer_remote_hits_total":  st.RemoteHits,
		"summarycache_peer_false_hits_total":   st.FalseHits,
		"summarycache_peer_false_misses_total": st.FalseMisses,
		"summarycache_peer_stale_hits_total":   st.StaleHits,
	} {
		wantLines = append(wantLines, fmt.Sprintf("%s%s %d", family, labels, v))
	}
	lines := scrapeLines(reg)
	for _, w := range wantLines {
		found := false
		for _, l := range lines {
			found = found || l == w
		}
		if !found {
			t.Errorf("scrape missing %q", w)
		}
	}
}

func TestPeerDecisionsRecentRing(t *testing.T) {
	a, b := decisionNode(t, nil, nil), decisionNode(t, nil, nil)
	if err := a.AddPeer(b.Addr()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < recentCap+5; i++ {
		a.Delivered(context.Background(), b.Addr(), fmt.Sprintf("http://o/%d", i), NotDelivered)
	}
	rec := a.RecentFalse()
	if len(rec) != recentCap {
		t.Fatalf("RecentFalse() returned %d entries, want %d", len(rec), recentCap)
	}
	for i, d := range rec {
		want := fmt.Sprintf("http://o/%d", recentCap+4-i)
		if d.URL != want || d.Kind != "false_hit" || d.Peer != b.Addr().String() {
			t.Fatalf("RecentFalse()[%d] = %+v, want a false_hit on %s by %s", i, d, want, b.Addr())
		}
	}
}

// TestPeerDecisionsRemoveRetires is the metric-lifecycle regression: after
// RemovePeer a departed peer leaves no decision series behind, only the
// removing node's series go when a registry is shared, an unregistered
// peer is charged nothing, and a re-added peer restarts from zero.
func TestPeerDecisionsRemoveRetires(t *testing.T) {
	reg := obs.NewRegistry()
	a1, a2, b := decisionNode(t, reg, nil), decisionNode(t, reg, nil), decisionNode(t, nil, nil)
	ctx, id := context.Background(), b.Addr().String()
	for _, a := range []*Node{a1, a2} {
		if err := a.AddPeer(b.Addr()); err != nil {
			t.Fatal(err)
		}
		a.Delivered(ctx, b.Addr(), "http://o/x", NotDelivered)
	}

	a1.RemovePeer(b.Addr())
	a1.Delivered(ctx, b.Addr(), "http://o/x", NotDelivered) // no longer registered

	a1b := fmt.Sprintf(`{node="%s",peer="%s"}`, a1.Addr(), id)
	a2Line := fmt.Sprintf(`summarycache_peer_false_hits_total{node="%s",peer="%s"} 1`, a2.Addr(), id)
	a2Kept := false
	for _, l := range scrapeLines(reg) {
		if strings.Contains(l, a1b) {
			t.Errorf("a1's series about b survived RemovePeer: %s", l)
		}
		a2Kept = a2Kept || l == a2Line
	}
	if !a2Kept {
		t.Errorf("a2's series about the same peer was collaterally removed: want %q", a2Line)
	}
	if d, ok := decisionsOf(a1, id); ok {
		t.Errorf("b still charged at a1 after RemovePeer: %+v", d)
	}

	if err := a1.AddPeer(b.Addr()); err != nil {
		t.Fatal(err)
	}
	if d, _ := decisionsOf(a1, id); d != (meshhealth.PeerStats{}) {
		t.Errorf("re-added peer starts at %+v, want zero", d)
	}
	a1.Delivered(ctx, b.Addr(), "http://o/x", NotDelivered)
	if d, _ := decisionsOf(a1, id); d.FalseHits != 1 {
		t.Errorf("re-added peer FalseHits = %d, want 1", d.FalseHits)
	}
}
