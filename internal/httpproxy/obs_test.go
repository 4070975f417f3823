package httpproxy

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"summarycache/internal/bloom"
	"summarycache/internal/obs"
	"summarycache/internal/origin"
)

// parseProm reads Prometheus text exposition into series -> value, keyed
// exactly as rendered ("name{a=\"b\"}").
func parseProm(t *testing.T, r io.Reader) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("bad exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// waitQuiesce waits until every proxy's stats stop changing, so that a
// scrape and a Stats() call taken afterwards observe the same world.
func waitQuiesce(t *testing.T, proxies []*Proxy) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	prev := make([]Stats, len(proxies))
	for time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		stable := true
		for i, p := range proxies {
			st := p.Stats()
			if st != prev[i] {
				stable = false
				prev[i] = st
			}
		}
		if stable {
			return
		}
	}
	t.Fatal("mesh never quiesced")
}

// TestMetricsScrapeMatchesStats stands up a 3-proxy SC-ICP mesh sharing one
// registry, drives local hits, misses, and a remote hit through it, then
// scrapes /metrics and asserts the scraped series equal the values reported
// by Proxy.Stats() / Node.Stats() — the "one source of truth" invariant.
func TestMetricsScrapeMatchesStats(t *testing.T) {
	reg := obs.NewRegistry()
	org, err := origin.Start(origin.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { org.Close() })

	var proxies []*Proxy
	for i := 0; i < 3; i++ {
		p, err := Start(Config{
			Mode:       ModeSCICP,
			CacheBytes: 8 << 20,
			Summary: bloom.DirectoryConfig{
				ExpectedDocs: 2000, UpdateThreshold: 0.01,
			},
			QueryTimeout: 2 * time.Second,
			Metrics:      reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		proxies = append(proxies, p)
	}
	for i, p := range proxies {
		for j, q := range proxies {
			if i != j {
				if err := p.AddPeer(q.ICPAddr(), q.URL()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	m := &mesh{origin: org, proxies: proxies}

	// Traffic: per proxy, 5 unique misses and 2 repeat local hits.
	for i, p := range proxies {
		for j := 0; j < 5; j++ {
			m.fetch(t, p, m.docURL(fmt.Sprintf("obs/p%d/doc%d", i, j), 1024))
		}
		m.fetch(t, p, m.docURL(fmt.Sprintf("obs/p%d/doc0", i), 1024))
		m.fetch(t, p, m.docURL(fmt.Sprintf("obs/p%d/doc1", i), 1024))
	}
	// A remote hit: proxy 1 fetches a document proxy 0 holds.
	proxies[0].FlushSummary()
	shared := m.docURL("obs/p0/doc0", 1024)
	waitForCandidate(t, proxies[1], shared)
	m.fetch(t, proxies[1], shared)

	waitQuiesce(t, proxies)

	srv := httptest.NewServer(obs.NewHandler(reg, nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	series := parseProm(t, resp.Body)

	var sawRemoteHit bool
	for i, p := range proxies {
		st := p.Stats()
		paddr := strings.TrimPrefix(p.URL(), "http://")
		naddr := p.ICPAddr().String()
		if st.RemoteHits > 0 {
			sawRemoteHit = true
		}

		checks := []struct {
			series string
			want   uint64
		}{
			{fmt.Sprintf(`summarycache_proxy_requests_total{proxy=%q}`, paddr), st.ClientRequests},
			{fmt.Sprintf(`summarycache_proxy_local_hits_total{proxy=%q}`, paddr), st.LocalHits},
			{fmt.Sprintf(`summarycache_proxy_remote_hits_total{proxy=%q}`, paddr), st.RemoteHits},
			{fmt.Sprintf(`summarycache_proxy_misses_total{proxy=%q}`, paddr), st.Misses},
			{fmt.Sprintf(`summarycache_proxy_false_hits_total{proxy=%q}`, paddr), st.FalseHits},
			{fmt.Sprintf(`summarycache_proxy_origin_fetches_total{proxy=%q}`, paddr), st.OriginFetches},
			{fmt.Sprintf(`summarycache_proxy_peer_fetches_total{proxy=%q}`, paddr), st.PeerFetches},
			{fmt.Sprintf(`summarycache_node_queries_sent_total{node=%q}`, naddr), st.Node.QueriesSent},
			{fmt.Sprintf(`summarycache_node_queries_received_total{node=%q}`, naddr), st.Node.QueriesReceived},
			{fmt.Sprintf(`summarycache_node_remote_hits_total{node=%q}`, naddr), st.Node.RemoteHits},
			{fmt.Sprintf(`summarycache_node_false_hits_total{node=%q}`, naddr), st.Node.FalseHits},
			{fmt.Sprintf(`summarycache_node_updates_sent_total{node=%q}`, naddr), st.Node.UpdatesSent},
			{fmt.Sprintf(`summarycache_node_updates_received_total{node=%q}`, naddr), st.Node.UpdatesReceived},
			{fmt.Sprintf(`summarycache_node_updates_rejected_total{node=%q}`, naddr), st.Node.UpdatesRejected},
			{fmt.Sprintf(`summarycache_node_update_events_total{node=%q}`, naddr), st.Node.UpdateEvents},
			{fmt.Sprintf(`summarycache_node_flips_published_total{node=%q}`, naddr), st.Node.FlipsPublished},
			{fmt.Sprintf(`summarycache_node_filter_rebuilds_total{node=%q}`, naddr), st.Node.FilterRebuilds},
			{fmt.Sprintf(`summarycache_node_directory_underflows_total{node=%q}`, naddr), st.Node.DirectoryUnderflows},
			{fmt.Sprintf(`summarycache_udp_sent_total{node=%q}`, naddr), st.Node.UDP.Sent},
			{fmt.Sprintf(`summarycache_udp_received_total{node=%q}`, naddr), st.Node.UDP.Received},
			{fmt.Sprintf(`summarycache_udp_send_errors_total{node=%q}`, naddr), st.Node.UDP.SendErrors},
			{fmt.Sprintf(`summarycache_udp_dropped_total{node=%q,reason="undecodable"}`, naddr), st.Node.UDP.Undecodable},
			{fmt.Sprintf(`summarycache_udp_dropped_total{node=%q,reason="late_reply"}`, naddr), st.Node.UDP.LateReplies},
			{fmt.Sprintf(`summarycache_udp_dropped_total{node=%q,reason="unasked"}`, naddr), st.Node.UDP.Unasked},
		}
		for _, c := range checks {
			got, ok := series[c.series]
			if !ok {
				t.Errorf("proxy %d: series %s missing from scrape", i, c.series)
				continue
			}
			if got != float64(c.want) {
				t.Errorf("proxy %d: scraped %s = %v, Stats says %d", i, c.series, got, c.want)
			}
		}

		// Every classified request landed in exactly one outcome histogram.
		var observed float64
		for _, o := range []string{"local_hit", "remote_hit", "miss", "false_hit"} {
			k := fmt.Sprintf(`summarycache_proxy_request_seconds_count{outcome=%q,proxy=%q}`, o, paddr)
			v, ok := series[k]
			if !ok {
				t.Errorf("proxy %d: histogram series %s missing", i, k)
			}
			observed += v
		}
		if observed != float64(st.ClientRequests) {
			t.Errorf("proxy %d: histogram outcomes sum to %v, want %d requests", i, observed, st.ClientRequests)
		}

		// Spot-check a scrape-time gauge: both siblings are known peers.
		if got := series[fmt.Sprintf(`summarycache_node_peers_known{node=%q}`, naddr)]; got != 2 {
			t.Errorf("proxy %d: peers_known = %v, want 2", i, got)
		}
	}
	if !sawRemoteHit {
		t.Error("mesh produced no remote hit; test drove the wrong traffic")
	}
}
