package httpproxy

import (
	"net/http"

	"summarycache/internal/core"
	"summarycache/internal/obs"
)

// AdminHandler assembles the proxy's admin plane, the one place its
// endpoints are mounted:
//
//	/metrics       Prometheus text exposition of Config.Metrics
//	/debug/vars    the same metrics as JSON
//	/debug/pprof/  the standard net/http/pprof profile handlers
//	/healthz       sibling liveness (Health) and the binary's build info
//	/debug/mesh    MeshReport, rebuilt per request
//	/debug/traces  the trace store (only with Config.Tracer)
//	/debug/slo     objectives and per-stage latencies (only with Config.Perf)
//	/debug/perf    the profile-capture ring (only with Config.Perf)
//
// Every view but /metrics and the pprof handlers is JSON. Serve it on a
// loopback or otherwise access-controlled listener: pprof exposes stacks
// and heap contents.
func (p *Proxy) AdminHandler() http.Handler {
	mux := obs.NewHandler(p.reg, p.Health)
	mux.HandleFunc("/debug/mesh", func(w http.ResponseWriter, _ *http.Request) {
		obs.ServeJSON(w, http.StatusOK, []Report{p.MeshReport()})
	})
	if p.tracer != nil {
		mux.Handle("/debug/traces", p.tracer.Handler())
	}
	if perf := p.cfg.Perf; perf != nil {
		mux.Handle("/debug/slo", perf.SLOHandler())
		mux.Handle("/debug/perf", perf.PerfHandler())
	}
	return mux
}

// Report is one proxy's complete mesh-health view, served at /debug/mesh:
// its own advertisement state plus one row per peer, which its node's peer
// records give.
type Report struct {
	// Proxy is the HTTP listen address; Node the ICP address (empty when
	// the proxy runs without a protocol node, in ModeNone).
	Proxy string `json:"proxy"`
	Node  string `json:"node,omitempty"`
	Mode  string `json:"mode"`

	Local LocalReport       `json:"local"`
	Peers []core.PeerReport `json:"peers"`

	// RecentFalse is the evidence trail: the latest false decisions with
	// the IDs of their traces at /debug/traces.
	RecentFalse []core.FalseDecision `json:"recent_false_decisions,omitempty"`
}

// LocalReport is the local-advertisement staleness view: how far the
// local directory has drifted ahead of what the peers have been told.
type LocalReport struct {
	// DirectoryDocs is the local directory's document count.
	DirectoryDocs int64 `json:"directory_docs"`
	// PendingFlips counts bit flips journaled but not yet advertised.
	PendingFlips int `json:"pending_flips"`
	// LastAdvertAgeMS is milliseconds since the last published update
	// (-1: never published).
	LastAdvertAgeMS float64 `json:"last_advert_age_ms"`
	// UpdatesSent / UpdateEvents count DIRUPDATE messages and publish
	// events; FullBytesOut and DeltaBytesOut split the advertised bytes
	// by update kind.
	UpdatesSent   uint64 `json:"updates_sent"`
	UpdateEvents  uint64 `json:"update_events"`
	FullBytesOut  uint64 `json:"full_bytes_out"`
	DeltaBytesOut uint64 `json:"delta_bytes_out"`
	// CacheEntries / CacheBytes describe the document cache backing the
	// directory.
	CacheEntries int   `json:"cache_entries"`
	CacheBytes   int64 `json:"cache_bytes"`
	// Recoveries counts warm restarts this node recovered persisted state
	// on; RecoveredEntries is the document count the most recent recovery
	// reinstalled (both zero when persistence is off).
	Recoveries       uint64 `json:"recoveries"`
	RecoveredEntries int    `json:"recovered_entries"`
}

// MeshReport assembles this proxy's mesh-health view: local advertisement
// staleness, one row per sibling (replica health, liveness, wire bytes,
// attributed decisions), and the recent false-decision trail.
func (p *Proxy) MeshReport() Report {
	rep := Report{
		Proxy: p.ln.Addr().String(),
		Mode:  p.cfg.Mode.String(),
	}
	rep.Local.CacheEntries = p.cache.Len()
	rep.Local.CacheBytes = p.cache.Bytes()
	rep.Local.LastAdvertAgeMS = -1
	if p.recovery.Recovered {
		rep.Local.Recoveries = 1 // refined from node accounting below
		rep.Local.RecoveredEntries = p.restored
	}
	if p.node != nil {
		rep.Node = p.node.Addr().String()
		st := p.node.Stats()
		rep.Local.DirectoryDocs = int64(p.node.Directory().Docs())
		rep.Local.PendingFlips = p.node.Directory().PendingFlips()
		rep.Local.UpdatesSent = st.UpdatesSent
		rep.Local.UpdateEvents = st.UpdateEvents
		rep.Local.Recoveries = st.Recoveries
		rep.Local.FullBytesOut = st.UpdateFullBytes
		rep.Local.DeltaBytesOut = st.UpdateDeltaBytes
		if age, ok := p.node.LastAdvertAge(); ok {
			rep.Local.LastAdvertAgeMS = float64(age.Microseconds()) / 1e3
		}
		rep.Peers = p.node.PeerReports()
		rep.RecentFalse = p.node.RecentFalse()
	}
	return rep
}
