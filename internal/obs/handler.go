package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"sync"
)

// BuildInfo identifies the running binary: what /healthz reports so an
// operator polling a mesh can tell which build answered.
type BuildInfo struct {
	GoVersion string `json:"go_version"`
	Path      string `json:"path,omitempty"`     // main module path
	Version   string `json:"version,omitempty"`  // main module version
	Revision  string `json:"revision,omitempty"` // vcs.revision build setting
	Modified  bool   `json:"modified,omitempty"` // vcs.modified: dirty tree
}

var (
	buildInfoOnce sync.Once
	buildInfo     BuildInfo
)

// ReadBuildInfo returns the binary's build identity from
// runtime/debug.ReadBuildInfo, computed once. Binaries built without
// module support report only the Go version.
func ReadBuildInfo() BuildInfo {
	buildInfoOnce.Do(func() {
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		buildInfo.GoVersion = bi.GoVersion
		buildInfo.Path = bi.Main.Path
		buildInfo.Version = bi.Main.Version
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				buildInfo.Revision = s.Value
			case "vcs.modified":
				buildInfo.Modified = s.Value == "true"
			}
		}
	})
	return buildInfo
}

// ServeJSON writes v, indented, as a JSON response with status code: the
// one rendering behind /healthz and every /debug/* view.
func ServeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// NewHandler builds the admin endpoint multiplexer:
//
//	/metrics      Prometheus text exposition of the registry
//	/debug/vars   expvar-style JSON of the same metrics
//	/debug/pprof/ the standard net/http/pprof profile handlers
//	/healthz      200 when every known peer is up, 503 otherwise;
//	              the body carries the binary's build info
//
// peers reports the peers up and down; nil means no peers (always 200 ok).
// Callers attach further endpoints to the returned mux. It is meant for a
// loopback or otherwise access-controlled admin listener — pprof exposes
// stacks and heap contents.
func NewHandler(r *Registry, peers func() (up, down []string)) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		r.WriteJSON(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		type resp struct {
			Status    string    `json:"status"`
			Build     BuildInfo `json:"build"`
			PeersUp   []string  `json:"peers_up,omitempty"`
			PeersDown []string  `json:"peers_down,omitempty"`
		}
		out := resp{Status: "ok", Build: ReadBuildInfo()}
		code := http.StatusOK
		if peers != nil {
			out.PeersUp, out.PeersDown = peers()
			if len(out.PeersDown) > 0 {
				out.Status = "degraded"
				code = http.StatusServiceUnavailable
			}
		}
		ServeJSON(w, code, out)
	})
	return mux
}
