package tracing

import (
	"net/http"

	"summarycache/internal/obs"
)

// Handler serves the trace store as JSON at /debug/traces:
//
//	GET /debug/traces                 newest-first summary list
//	GET /debug/traces?id=<hex>        every retained trace with that ID
//	GET /debug/traces?outcome=<o>     list filtered by outcome (e.g. false_hit)
//	GET /debug/traces?kind=<k>        list filtered by kind (request, icp_answer)
//
// The list view elides spans; the id view includes them (the single-trace
// view, plus — when one store serves a whole mesh — the answering-side
// traces that share the exchange ID).
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()

		if idStr := q.Get("id"); idStr != "" {
			id, ok := ParseID(idStr)
			if !ok {
				http.Error(w, "bad trace id", http.StatusBadRequest)
				return
			}
			matches := t.Find(id)
			if len(matches) == 0 {
				http.Error(w, "trace not found", http.StatusNotFound)
				return
			}
			out := make([]view, 0, len(matches))
			for _, tr := range matches {
				out = append(out, tr.snapshotView())
			}
			obs.ServeJSON(w, http.StatusOK, out)
			return
		}

		outcome, kind := q.Get("outcome"), q.Get("kind")
		type summary struct {
			ID         string  `json:"id"`
			Node       string  `json:"node"`
			Kind       string  `json:"kind"`
			URL        string  `json:"url"`
			Outcome    string  `json:"outcome"`
			Anomaly    string  `json:"anomaly,omitempty"`
			Kept       string  `json:"kept"`
			DurationUS float64 `json:"duration_us"`
			Spans      int     `json:"spans"`
		}
		var list []summary
		for _, tr := range t.Traces() {
			v := tr.snapshotView()
			if outcome != "" && v.Outcome != outcome {
				continue
			}
			if kind != "" && v.Kind != kind {
				continue
			}
			list = append(list, summary{
				ID: v.ID, Node: v.Node, Kind: v.Kind, URL: v.URL,
				Outcome: v.Outcome, Anomaly: v.Anomaly, Kept: v.Kept,
				DurationUS: v.DurationUS, Spans: len(v.Spans),
			})
		}
		obs.ServeJSON(w, http.StatusOK, struct {
			Count  int       `json:"count"`
			Traces []summary `json:"traces"`
		}{len(list), list})
	})
}
