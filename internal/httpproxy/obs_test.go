package httpproxy

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
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

// parseFamilies reads the "# TYPE name kind" headers of a Prometheus text
// exposition into family name -> kind.
func parseFamilies(scrape []byte) map[string]string {
	out := make(map[string]string)
	for _, line := range strings.Split(string(scrape), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			out[name] = kind
		}
	}
	return out
}

// metricInitialisms are metric-name words rendered fully uppercase in Go
// field names, so summarycache_node_query_rtt_seconds normalizes to
// QueryRTTSeconds rather than QueryRttSeconds.
var metricInitialisms = map[string]string{
	"cpu":  "CPU",
	"fpr":  "FPR",
	"http": "HTTP",
	"icp":  "ICP",
	"id":   "ID",
	"lru":  "LRU",
	"rtt":  "RTT",
	"slo":  "SLO",
	"tcp":  "TCP",
	"udp":  "UDP",
	"url":  "URL",
}

// metricFieldName normalizes a metric family name to the exported Stats
// field it corresponds to: summarycache_node_queries_sent_total →
// QueriesSent (prefix, component word and _total suffix stripped, the
// rest CamelCased with initialisms uppercased).
func metricFieldName(metric string) string {
	name := strings.TrimPrefix(metric, "summarycache_")
	words := strings.Split(name, "_")
	if len(words) > 1 && words[len(words)-1] == "total" {
		words = words[:len(words)-1]
	}
	if len(words) > 1 {
		words = words[1:] // drop the component prefix (proxy_, node_, ...)
	}
	var b strings.Builder
	for _, w := range words {
		if w == "" {
			continue
		}
		if up, ok := metricInitialisms[w]; ok {
			b.WriteString(up)
			continue
		}
		b.WriteString(strings.ToUpper(w[:1]))
		b.WriteString(w[1:])
	}
	return b.String()
}

func TestMetricFieldName(t *testing.T) {
	cases := []struct{ metric, want string }{
		{"summarycache_node_queries_sent_total", "QueriesSent"},
		{"summarycache_proxy_requests_total", "Requests"},
		{"summarycache_pos_frames_dropped_total", "FramesDropped"},
		{"summarycache_hits_total", "Hits"},                          // single word: nothing to strip
		{"summarycache_proxy_cache_hits", "CacheHits"},               // no _total suffix
		{"plain_name_total", "Name"},                                 // no summarycache_ prefix
		{"summarycache_node_query_rtt_seconds", "QueryRTTSeconds"},   // initialism uppercased
		{"summarycache_proxy_inflight_requests", "InflightRequests"}, // gauge, no _total
		{"summarycache_icp_udp_send_errors_total", "UDPSendErrors"},  // leading initialism
	}
	for _, c := range cases {
		if got := metricFieldName(c.metric); got != c.want {
			t.Errorf("metricFieldName(%q) = %q, want %q", c.metric, got, c.want)
		}
	}
}

// statsField finds the field of stats that family name of the given kind
// surfaces as: the normalized name itself, or a field ending in it
// ("requests" is ClientRequests). A counter's field is a uint64.
func statsField(stats reflect.Value, name, kind string) (string, reflect.Value, bool) {
	want := metricFieldName(name)
	typ := stats.Type()
	for _, exact := range []bool{true, false} {
		for i := 0; i < typ.NumField(); i++ {
			field, f := typ.Field(i).Name, stats.Field(i)
			if (field == want || !exact && strings.HasSuffix(field, want)) &&
				(kind != "counter" || f.Kind() == reflect.Uint64) {
				return field, f, true
			}
		}
	}
	return "", reflect.Value{}, false
}

// readAtScrape reports whether a counter or gauge series is a function the
// registry calls at scrape time (CounterFunc, GaugeFunc) rather than an
// instrument it owns: asking the registry for the instrument again returns
// an owned one and panics for a function.
func readAtScrape(reg *obs.Registry, name, kind string, labels obs.Labels) (fn bool) {
	defer func() { fn = recover() != nil }()
	if kind == "counter" {
		reg.Counter(name, "", labels)
	} else {
		reg.Gauge(name, "", labels)
	}
	return false
}

// seriesLabels parses the label set of a scraped series key.
func seriesLabels(key string) obs.Labels {
	_, inner, _ := strings.Cut(strings.TrimSuffix(key, "}"), "{")
	var kv []string
	for _, pair := range strings.Split(inner, ",") {
		k, v, _ := strings.Cut(pair, "=")
		kv = append(kv, k, strings.Trim(v, `"`))
	}
	return obs.L(kv...)
}

// checkStatsFields holds one Stats struct to the scrape. Every family under
// prefix with a series labeled label=addr needs a field of stats named as
// metricFieldName says, unless the registry reads it at scrape time from
// state owned elsewhere; and a counter's field equals its series.
func checkStatsFields(t *testing.T, reg *obs.Registry, families map[string]string, series map[string]float64, stats reflect.Value, prefix, label, addr string) {
	t.Helper()
	var names []string
	for name := range families {
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	mine := fmt.Sprintf(`%s=%q`, label, addr)
	for _, name := range names {
		kind := families[name]
		var key string // one of this component's series in the family
		for k := range series {
			if (strings.HasPrefix(k, name+"{") || strings.HasPrefix(k, name+"_count{")) && strings.Contains(k, mine) {
				key = k
				break
			}
		}
		if key == "" {
			continue
		}
		field, value, ok := statsField(stats, name, kind)
		if !ok {
			if kind == "histogram" || !readAtScrape(reg, name, kind, seriesLabels(key)) {
				t.Errorf("%s %s{%s} has no %s field %s (or one ending in it): Stats() and the scrape have drifted",
					kind, name, mine, stats.Type(), metricFieldName(name))
			}
			continue
		}
		if kind != "counter" {
			continue
		}
		own := name + "{" + mine + "}"
		if got, ok := series[own]; !ok {
			t.Errorf("series %s missing from scrape", own)
		} else if got != float64(value.Uint()) {
			t.Errorf("scraped %s = %v, %s.%s says %d", own, got, stats.Type(), field, value.Uint())
		}
	}
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
// scrapes /metrics and holds every summarycache_proxy_* and
// summarycache_node_* family to Proxy.Stats() / Node.Stats() through
// checkStatsFields, and the UDP families to icp.Stats — the "one source of
// truth" invariant. A new instrument without a Stats field fails here.
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
	scrape, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	series := parseProm(t, bytes.NewReader(scrape))
	families := parseFamilies(scrape)

	var sawRemoteHit bool
	for i, p := range proxies {
		st := p.Stats()
		paddr := strings.TrimPrefix(p.URL(), "http://")
		naddr := p.ICPAddr().String()
		if st.RemoteHits > 0 {
			sawRemoteHit = true
		}
		checkStatsFields(t, reg, families, series, reflect.ValueOf(st), "summarycache_proxy_", "proxy", paddr)
		checkStatsFields(t, reg, families, series, reflect.ValueOf(st.Node), "summarycache_node_", "node", naddr)

		// The UDP families re-export icp.Stats under names and reasons of
		// their own.
		checks := []struct {
			series string
			want   uint64
		}{
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
