package httpproxy

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

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
// endpoint a proxy with a tracer and a perf watch has answers, the /debug
// views are JSON on a plain GET (a leftover ?format=json changes nothing),
// and a proxy with neither serves no trace, SLO or capture view.
func TestAdminHandlerServesEveryEndpoint(t *testing.T) {
	start := func(tracer *tracing.Tracer, watch *perfwatch.Watch) *httptest.Server {
		p, err := Start(Config{
			Mode:       ModeSCICP,
			CacheBytes: 1 << 20,
			Summary:    bloom.DirectoryConfig{ExpectedDocs: 100, UpdateThreshold: 0.01},
			Tracer:     tracer,
			Perf:       watch,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		srv := httptest.NewServer(p.AdminHandler())
		t.Cleanup(srv.Close)
		return srv
	}

	watch := perfwatch.New(perfwatch.Config{Objectives: []perfwatch.Objective{{
		Name: "client_p99", Threshold: time.Second,
	}}})
	full := start(tracing.New(tracing.Config{HeadRate: 1, Sink: watch}), watch)
	for _, path := range []string{"/metrics", "/debug/vars", "/debug/pprof/", "/healthz",
		"/debug/mesh", "/debug/traces", "/debug/slo", "/debug/perf"} {
		if code, _, body := get(t, full.URL+path); code != http.StatusOK {
			t.Errorf("GET %s = %d, want 200: %s", path, code, body)
		}
	}
	for path, v := range map[string]any{
		"/debug/mesh": &[]Report{},
		"/debug/slo":  &struct{ Objectives []perfwatch.SLOStatus }{},
		"/debug/perf": &[]json.RawMessage{},
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

	bare := start(nil, nil)
	if code, _, _ := get(t, bare.URL+"/debug/mesh"); code != http.StatusOK {
		t.Errorf("GET /debug/mesh without tracer or watch = %d, want 200", code)
	}
	for _, path := range []string{"/debug/traces", "/debug/slo", "/debug/perf"} {
		if code, _, _ := get(t, bare.URL+path); code != http.StatusNotFound {
			t.Errorf("GET %s without tracer or watch = %d, want 404", path, code)
		}
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
