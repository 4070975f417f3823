package meshhealth

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestDivergence(t *testing.T) {
	if d := (PeerStats{}).Divergence(); d != 0 {
		t.Errorf("zero-nomination divergence = %v, want 0", d)
	}
	if d := (PeerStats{Nominations: 8, FalseHits: 2}).Divergence(); d != 0.25 {
		t.Errorf("divergence = %v, want 0.25", d)
	}
}

func TestHandlerJSONAndHTML(t *testing.T) {
	reports := []Report{{
		Proxy: "127.0.0.1:8080",
		Node:  "127.0.0.1:3130",
		Mode:  "SC-ICP",
		Local: LocalReport{DirectoryDocs: 3, PendingFlips: 1, LastAdvertAgeMS: 12},
		Peers: []PeerReport{{
			Peer: "127.0.0.1:3131", Up: true, Breaker: "closed",
			HasReplica: true, FillRatio: 0.25, EstFalsePositive: 1e-3,
			Decisions:  PeerStats{Nominations: 10, FalseHits: 1},
			Divergence: 0.1,
		}},
		RecentFalse: []FalseDecision{{Kind: "false_hit", Peer: "127.0.0.1:3131",
			URL: "http://o/x", TraceID: "deadbeef"}},
	}}
	h := NewHandler(func() []Report { return reports })

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/mesh?format=json", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("json Content-Type = %q", ct)
	}
	for _, want := range []string{`"proxy": "127.0.0.1:8080"`, `"fill_ratio": 0.25`, `"trace_id": "deadbeef"`} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("json body missing %q", want)
		}
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/mesh", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/html") {
		t.Fatalf("html Content-Type = %q", ct)
	}
	for _, want := range []string{"mesh health", "127.0.0.1:3131", `/debug/traces?id=deadbeef`} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("html body missing %q", want)
		}
	}
}
