package perfwatch

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"summarycache/internal/obs"
)

// sloView is the JSON document /debug/slo serves.
type sloView struct {
	EvaluatedAt time.Time      `json:"evaluated_at"`
	Objectives  []SLOStatus    `json:"objectives"`
	Stages      []StageSummary `json:"stages"`
}

// SLOHandler serves the objectives and the per-stage table as JSON at
// /debug/slo. It shows the most recent evaluation (the Run loop's window),
// never evaluating on scrape — a scrape must not shrink the windows the
// burn rates are computed over.
func (w *Watch) SLOHandler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		statuses, when := w.Status()
		obs.ServeJSON(rw, http.StatusOK, sloView{EvaluatedAt: when, Objectives: statuses, Stages: w.Stages()})
	})
}

// captureView is one ring entry in the /debug/perf listing; profile bytes
// are linked, not inlined.
type captureView struct {
	Seq        int               `json:"seq"`
	Reason     string            `json:"reason"`
	Start      time.Time         `json:"start"`
	DurationMS float64           `json:"duration_ms"`
	Profiles   map[string]int    `json:"profile_bytes"`
	Links      map[string]string `json:"links"`
}

// PerfHandler serves the anomaly-triggered capture ring at /debug/perf:
//
//	GET /debug/perf                           JSON capture listing
//	GET /debug/perf?capture=3&profile=cpu     raw pprof bytes of one profile
//
// Raw profiles feed straight into `go tool pprof <url>`.
func (w *Watch) PerfHandler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		caps := w.Capturer().Captures()
		if seqStr := req.URL.Query().Get("capture"); seqStr != "" {
			seq, err := strconv.Atoi(seqStr)
			name := req.URL.Query().Get("profile")
			if err != nil || name == "" {
				http.Error(rw, "want ?capture=<seq>&profile=<cpu|heap|mutex|block>", http.StatusBadRequest)
				return
			}
			for _, cp := range caps {
				if cp.Seq != seq {
					continue
				}
				raw, ok := cp.Profiles[name]
				if !ok {
					break
				}
				rw.Header().Set("Content-Type", "application/octet-stream")
				rw.Header().Set("Content-Disposition",
					fmt.Sprintf(`attachment; filename="capture%d-%s.pprof"`, seq, name))
				rw.Write(raw)
				return
			}
			http.Error(rw, "no such capture/profile", http.StatusNotFound)
			return
		}
		views := make([]captureView, 0, len(caps))
		for _, cp := range caps {
			v := captureView{
				Seq:        cp.Seq,
				Reason:     cp.Reason,
				Start:      cp.Start,
				DurationMS: cp.DurationMS,
				Profiles:   make(map[string]int, len(cp.Profiles)),
				Links:      make(map[string]string, len(cp.Profiles)),
			}
			for name, raw := range cp.Profiles {
				v.Profiles[name] = len(raw)
				v.Links[name] = fmt.Sprintf("/debug/perf?capture=%d&profile=%s", cp.Seq, name)
			}
			views = append(views, v)
		}
		obs.ServeJSON(rw, http.StatusOK, views)
	})
}
