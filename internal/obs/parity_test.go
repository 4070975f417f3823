package obs

import (
	"bufio"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
)

// scrapeFamilies GETs /metrics from a handler serving reg and returns the
// set of family names announced by "# TYPE name kind" headers.
func scrapeFamilies(t *testing.T, reg *Registry) map[string]bool {
	t.Helper()
	srv := httptest.NewServer(NewHandler(reg, nil))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("/metrics status = %d, body %q", resp.StatusCode, body)
	}

	families := map[string]bool{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 3 && fields[0] == "#" && fields[1] == "TYPE" {
			families[fields[2]] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return families
}

// TestStatsScrapeParity pins the registration==exposition invariant from
// the other side of httpproxy's TestMetricsScrapeMatchesStats: every name
// the registry has ever seen appears in a /metrics scrape, and the scrape
// invents no families the registry does not know about. A metric silently dropped
// from the exposition path (or leaked into it) fails here.
func TestStatsScrapeParity(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("parity_requests_total", "plain counter", L("proxy", "a")).Add(1)
	reg.Counter("parity_requests_total", "plain counter", L("proxy", "b")).Add(2) // second series, same family
	reg.CounterFunc("parity_evictions_total", "callback counter", nil, func() uint64 { return 7 })
	reg.Gauge("parity_inflight", "plain gauge", nil).Set(3)
	reg.GaugeFunc("parity_entries", "callback gauge", nil, func() float64 { return 42 })
	reg.Histogram("parity_seconds", "latency", nil, []float64{0.1, 1}).Observe(0.5)

	names := reg.Names()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names() not sorted: %v", names)
	}
	registered := map[string]bool{}
	for _, n := range names {
		if registered[n] {
			t.Errorf("Names() returned duplicate %q", n)
		}
		registered[n] = true
	}
	if len(registered) != 5 {
		t.Errorf("got %d registered families %v, want 5", len(registered), names)
	}

	scraped := scrapeFamilies(t, reg)
	for n := range registered {
		if !scraped[n] {
			t.Errorf("registered metric %q missing from /metrics scrape", n)
		}
	}
	for n := range scraped {
		if !registered[n] {
			t.Errorf("/metrics exposes %q which was never registered", n)
		}
	}
}
