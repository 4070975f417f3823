package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// goldenRegistry builds a registry with one instrument of every kind, using
// binary-exact observation values so the shortest-float rendering is stable.
func goldenRegistry() *Registry {
	reg := NewRegistry()
	reg.Counter("demo_requests_total", "Total requests.", L("proxy", "a")).Add(3)
	reg.Gauge("demo_inflight", "In-flight requests.", nil).Set(2)
	h := reg.Histogram("demo_seconds", "Request latency.", nil, []float64{0.25, 1, 4})
	for _, v := range []float64{0.0625, 0.5, 5} {
		h.Observe(v)
	}
	return reg
}

const goldenExposition = `# HELP demo_inflight In-flight requests.
# TYPE demo_inflight gauge
demo_inflight 2
# HELP demo_requests_total Total requests.
# TYPE demo_requests_total counter
demo_requests_total{proxy="a"} 3
# HELP demo_seconds Request latency.
# TYPE demo_seconds histogram
demo_seconds_bucket{le="0.25"} 1
demo_seconds_bucket{le="1"} 2
demo_seconds_bucket{le="4"} 2
demo_seconds_bucket{le="+Inf"} 3
demo_seconds_sum 5.5625
demo_seconds_count 3
`

func TestPrometheusExpositionGolden(t *testing.T) {
	var buf strings.Builder
	goldenRegistry().WritePrometheus(&buf)
	if got := buf.String(); got != goldenExposition {
		t.Errorf("exposition mismatch\n--- got ---\n%s--- want ---\n%s", got, goldenExposition)
	}
}

func TestHandlerMetrics(t *testing.T) {
	srv := httptest.NewServer(NewHandler(goldenRegistry(), nil))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	if string(body) != goldenExposition {
		t.Errorf("/metrics body mismatch\n--- got ---\n%s", body)
	}
}

func TestHandlerDebugVars(t *testing.T) {
	srv := httptest.NewServer(NewHandler(goldenRegistry(), nil))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("/debug/vars is not valid JSON: %v", err)
	}
	if got := vars[`demo_requests_total{proxy="a"}`]; got != float64(3) {
		t.Errorf("demo_requests_total = %v, want 3", got)
	}
	hist, ok := vars["demo_seconds"].(map[string]any)
	if !ok {
		t.Fatalf("demo_seconds missing: %v", vars)
	}
	if hist["count"] != float64(3) || hist["sum"] != 5.5625 {
		t.Errorf("demo_seconds summary = %v", hist)
	}
}

func TestHandlerHealthz(t *testing.T) {
	get := func(peers func() (up, down []string)) (int, map[string]any) {
		rec := httptest.NewRecorder()
		NewHandler(NewRegistry(), peers).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		var out map[string]any
		if err := json.NewDecoder(rec.Body).Decode(&out); err != nil {
			t.Fatalf("/healthz not JSON: %v", err)
		}
		return rec.Code, out
	}
	peers := func(up, down []string) func() ([]string, []string) {
		return func() ([]string, []string) { return up, down }
	}

	if code, out := get(nil); code != http.StatusOK || out["status"] != "ok" {
		t.Fatalf("no peers: status %d %v, want 200 ok", code, out)
	}
	code, out := get(peers([]string{"peer1"}, []string{"peer2"}))
	if code != http.StatusServiceUnavailable || out["status"] != "degraded" {
		t.Fatalf("with a down peer: status %d %v, want 503 degraded", code, out)
	}
	if code, out := get(peers([]string{"peer1", "peer2"}, nil)); code != http.StatusOK || out["status"] != "ok" {
		t.Fatalf("peer recovered: status %d %v, want 200 ok", code, out)
	}
}

func TestHandlerHealthzBuildInfo(t *testing.T) {
	srv := httptest.NewServer(NewHandler(NewRegistry(), nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Build BuildInfo `json:"build"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("/healthz not JSON: %v", err)
	}
	// Test binaries always carry module build info.
	if out.Build.GoVersion == "" {
		t.Errorf("build.go_version missing: %+v", out.Build)
	}
	if out.Build.Path != "summarycache" {
		t.Errorf("build.path = %q, want summarycache", out.Build.Path)
	}
	if got := ReadBuildInfo(); got != out.Build {
		t.Errorf("handler build %+v != ReadBuildInfo() %+v", out.Build, got)
	}
}

func TestHandlerMounts(t *testing.T) {
	extra := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("mounted"))
	})
	mux := NewHandler(NewRegistry(), nil)
	mux.Handle("/debug/traces", extra)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || string(body) != "mounted" {
		t.Fatalf("mounted handler: status %d body %q", resp.StatusCode, body)
	}
	// The built-in endpoints still work alongside the added one.
	resp2, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("/metrics alongside an added endpoint: status %d", resp2.StatusCode)
	}
}

func TestHandlerPprof(t *testing.T) {
	srv := httptest.NewServer(NewHandler(NewRegistry(), nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ status = %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "goroutine") {
		t.Error("/debug/pprof/ index does not list profiles")
	}
}
