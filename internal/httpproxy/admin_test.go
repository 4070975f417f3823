package httpproxy

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"summarycache/internal/bloom"
	"summarycache/internal/core"
	"summarycache/internal/obs"
	"summarycache/internal/perfwatch"
	"summarycache/internal/tracing"
)

// get fetches url and returns its status, Content-Type and body.
func get(t *testing.T, url string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), body
}

// TestAdminHandlerServesEveryEndpoint checks the one admin surface: every
// endpoint a traced proxy has answers, the /debug views are JSON on a
// plain GET (a leftover ?format=json changes nothing), the stage
// histograms of the tracer's perf watch are served with every other
// series, a proxy without a tracer serves no trace view, and nothing is
// served at /debug/slo or /debug/perf.
func TestAdminHandlerServesEveryEndpoint(t *testing.T) {
	start := func(reg *obs.Registry, tracer *tracing.Tracer) *httptest.Server {
		p, err := Start(Config{
			Mode:       ModeSCICP,
			CacheBytes: 1 << 20,
			Summary:    bloom.DirectoryConfig{ExpectedDocs: 100, UpdateThreshold: 0.01},
			Metrics:    reg,
			Tracer:     tracer,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		srv := httptest.NewServer(p.AdminHandler())
		t.Cleanup(srv.Close)
		return srv
	}

	reg := obs.NewRegistry()
	full := start(reg, tracing.New(tracing.Config{HeadRate: 1, Registry: reg,
		Sink: perfwatch.New(perfwatch.Config{Registry: reg})}))
	for _, path := range []string{"/metrics", "/debug/vars", "/debug/pprof/", "/healthz",
		"/debug/mesh", "/debug/traces"} {
		if code, _, body := get(t, full.URL+path); code != http.StatusOK {
			t.Errorf("GET %s = %d, want 200: %s", path, code, body)
		}
	}
	for path, want := range map[string]string{
		"/metrics":    `summarycache_perf_stage_seconds_count{stage="request"}`,
		"/debug/vars": `"summarycache_perf_stage_seconds{stage=\"request\"}"`,
	} {
		if _, _, body := get(t, full.URL+path); !bytes.Contains(body, []byte(want)) {
			t.Errorf("GET %s lacks %s", path, want)
		}
	}
	for path, v := range map[string]any{
		"/debug/mesh":   &[]Report{},
		"/debug/traces": &json.RawMessage{},
	} {
		_, ct, body := get(t, full.URL+path)
		if !strings.HasPrefix(ct, "application/json") {
			t.Errorf("GET %s Content-Type = %q, want JSON", path, ct)
		}
		if err := json.Unmarshal(body, v); err != nil {
			t.Errorf("GET %s: %v\n%s", path, err, body)
		}
		if path == "/debug/mesh" {
			continue // its ages move between two reads
		}
		if _, _, again := get(t, full.URL+path+"?format=json"); !bytes.Equal(again, body) {
			t.Errorf("GET %s?format=json differs from the plain GET:\n%s\n%s", path, again, body)
		}
	}
	for _, path := range []string{"/debug/slo", "/debug/perf"} {
		if code, _, _ := get(t, full.URL+path); code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, code)
		}
	}

	bare := start(nil, nil)
	if code, _, _ := get(t, bare.URL+"/debug/mesh"); code != http.StatusOK {
		t.Errorf("GET /debug/mesh without tracer = %d, want 200", code)
	}
	if code, _, _ := get(t, bare.URL+"/debug/traces"); code != http.StatusNotFound {
		t.Errorf("GET /debug/traces without tracer = %d, want 404", code)
	}
}

// TestMeshReportJSON pins the /debug/mesh wire names: the report renders
// through the admin plane's one JSON helper with its fields' tags.
func TestMeshReportJSON(t *testing.T) {
	reports := []Report{{
		Proxy: "127.0.0.1:8080",
		Node:  "127.0.0.1:3130",
		Mode:  "SC-ICP",
		Local: LocalReport{DirectoryDocs: 3, PendingFlips: 1, LastAdvertAgeMS: 12},
		Peers: []core.PeerReport{{
			Peer: "127.0.0.1:3131", Up: true, Breaker: "closed",
			HasReplica: true, FillRatio: 0.25, EstFalsePositive: 1e-3,
			Decisions:  core.PeerStats{Nominations: 10, FalseHits: 1},
			Divergence: 0.1,
		}},
		RecentFalse: []core.FalseDecision{{Kind: "false_hit", Peer: "127.0.0.1:3131",
			URL: "http://o/x", TraceID: "deadbeef"}},
	}}
	rec := httptest.NewRecorder()
	obs.ServeJSON(rec, http.StatusOK, reports)
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("json Content-Type = %q", ct)
	}
	for _, want := range []string{`"proxy": "127.0.0.1:8080"`, `"fill_ratio": 0.25`, `"trace_id": "deadbeef"`} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("json body missing %q", want)
		}
	}
}
