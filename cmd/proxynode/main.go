// Command proxynode runs one cooperating caching proxy — the deployable
// unit of the summary-cache system. Point browsers (or the repository's
// benchmark clients) at its HTTP port; peer it with sibling proxynodes via
// -peer flags (repeatable, "udpAddr,httpURL").
//
// Example 3-node mesh on one machine:
//
//	proxynode -http=127.0.0.1:3128 -icp=127.0.0.1:3130 -mode=scicp \
//	    -admin=127.0.0.1:9128 \
//	    -peer=127.0.0.1:3131,http://127.0.0.1:3129 &
//	proxynode -http=127.0.0.1:3129 -icp=127.0.0.1:3131 -mode=scicp \
//	    -admin=127.0.0.1:9129 \
//	    -peer=127.0.0.1:3130,http://127.0.0.1:3128 &
//
// The -admin listener serves the observability plane: Prometheus metrics
// at /metrics, expvar-style JSON at /debug/vars, pprof profiles at
// /debug/pprof/, peer-health (with build info) at /healthz, mesh health
// (per-peer summary divergence and false-decision accounting) at
// /debug/mesh, and — when -trace-sample or -trace-buffer enables
// tracing — request traces with summary-decision audits at /debug/traces.
// The -slo-latency-p99 and -slo-false-hit flags add named service-level
// objectives with error-budget burn-rate tracking at /debug/slo; with
// -perf-profile-capture, an SLO breach additionally captures a
// rate-limited ring of pprof profiles served at /debug/perf, and the
// breaching requests' traces are always retained at /debug/traces.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	sc "summarycache"
)

type peerList []string

func (p *peerList) String() string     { return strings.Join(*p, ";") }
func (p *peerList) Set(v string) error { *p = append(*p, v); return nil }

var (
	httpAddr  = flag.String("http", "127.0.0.1:3128", "HTTP listen address")
	icpAddr   = flag.String("icp", "127.0.0.1:3130", "ICP (UDP) listen address")
	adminAddr = flag.String("admin", "", "admin listen address serving /metrics, /debug/vars, /debug/pprof/ and /healthz (empty: disabled)")
	mode      = flag.String("mode", "scicp", "cooperation mode: none, icp, scicp")
	cacheMB   = flag.Int64("cache-mb", 256, "cache capacity in MB")
	threshold = flag.Float64("threshold", 0.01, "summary update threshold (scicp)")
	loadf     = flag.Float64("load-factor", 16, "Bloom filter bits per expected document (scicp)")
	statsSec  = flag.Duration("stats-interval", 30*time.Second, "stats logging interval (0: off)")
	healthSec = flag.Duration("health-interval", 0, "peer health-probe interval (icp and scicp; 0: off)")
	parentURL = flag.String("parent", "", "parent proxy HTTP base URL (hierarchical mode)")
	logLevel  = flag.String("log-level", "info", "log level: debug, info, warn, error")
	logFormat = flag.String("log-format", "text", "log format: text, json")
	traceRate = flag.Float64("trace-sample", 0,
		"head-sampling rate in [0,1] for request traces; anomalous traces (false hits, timeouts) are always kept once tracing is on")
	traceBuf = flag.Int("trace-buffer", 0,
		"trace ring-buffer capacity (0 with -trace-sample=0: tracing disabled entirely)")
	sloLatency = flag.Duration("slo-latency-p99", 0,
		"client latency SLO: requests slower than this are error-budget burn (budget 0.01) and their traces are always retained (0: no latency objective)")
	sloFalseHit = flag.Float64("slo-false-hit", 0,
		"false-hit ratio SLO ceiling: false hits over client requests above this ratio burn the error budget (0: no false-hit objective)")
	perfCapture = flag.Bool("perf-profile-capture", false,
		"on SLO breach, capture a rate-limited ring of pprof profiles (5s CPU + heap/mutex/block), served at /debug/perf")
	sloEvalSec = flag.Duration("slo-interval", 10*time.Second,
		"SLO evaluation window length")
	persistDir = flag.String("persist-dir", "",
		"warm-restart persistence directory: the cache, directory filter and peer replicas are checkpointed there and recovered on the next start (empty: persistence off)")
	persistFsync = flag.String("persist-fsync", "",
		"journal fsync policy: always, interval, never (empty: interval)")
	persistFsyncSec = flag.Duration("persist-fsync-interval", 0,
		"background journal sync cadence under the interval policy (0: 1s)")
	persistSnapSec = flag.Duration("persist-snapshot-interval", 30*time.Second,
		"periodic checkpoint cadence (0: only the boot and shutdown checkpoints)")
	peers peerList
)

func main() {
	flag.Var(&peers, "peer", "sibling proxy as udpAddr,httpURL (repeatable)")
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "proxynode:", err)
		os.Exit(1)
	}
}

func parseMode(s string) (sc.ProxyMode, error) {
	switch strings.ToLower(s) {
	case "none":
		return sc.ProxyModeNone, nil
	case "icp":
		return sc.ProxyModeICP, nil
	case "scicp", "sc-icp":
		return sc.ProxyModeSCICP, nil
	}
	return 0, fmt.Errorf("unknown mode %q", s)
}

// newLogger builds the slog handler the -log-level and -log-format flags
// describe.
func newLogger(level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn", "warning":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
}

func run() error {
	m, err := parseMode(*mode)
	if err != nil {
		return err
	}
	log, err := newLogger(*logLevel, *logFormat)
	if err != nil {
		return err
	}
	reg := sc.NewRegistry()
	sc.RegisterRuntimeMetrics(reg)

	// The performance watch is built before the proxy (it wires into the
	// tracer and the proxy config), so the false-hit ratio objective reads
	// the proxy through a reference filled in after StartProxy.
	var proxyRef *sc.Proxy
	var watch *sc.PerfWatch
	if *sloLatency > 0 || *sloFalseHit > 0 || *perfCapture {
		var objectives []sc.PerfObjective
		if *sloLatency > 0 {
			objectives = append(objectives, sc.PerfObjective{
				Name:      "client_p99",
				Threshold: *sloLatency,
				Budget:    0.01,
			})
		}
		if *sloFalseHit > 0 {
			objectives = append(objectives, sc.PerfObjective{
				Name:   "false_hit_ratio",
				Budget: *sloFalseHit,
				Num: func() uint64 {
					if proxyRef == nil {
						return 0
					}
					return proxyRef.Stats().FalseHits
				},
				Den: func() uint64 {
					if proxyRef == nil {
						return 0
					}
					return proxyRef.Stats().ClientRequests
				},
			})
		}
		watch = sc.NewPerfWatch(sc.PerfConfig{
			Registry:   reg,
			Logger:     log,
			Objectives: objectives,
			Capture:    sc.PerfCaptureConfig{Enabled: *perfCapture},
		})
	}

	var tracer *sc.Tracer
	if *traceRate > 0 || *traceBuf > 0 || watch != nil {
		if *traceRate < 0 || *traceRate > 1 {
			return fmt.Errorf("-trace-sample %v outside [0,1]", *traceRate)
		}
		// The watch needs the tracer's span stream even when no explicit
		// tracing flags are set: at head rate 0 only SLO-breaching
		// (anomalous) traces are retained, but every span still feeds the
		// per-stage histograms.
		cfg := sc.TracerConfig{
			HeadRate: *traceRate,
			Buffer:   *traceBuf,
			Registry: reg,
			Logger:   log,
		}
		if watch != nil {
			cfg.Sink = watch
		}
		tracer = sc.NewTracer(cfg)
	}
	var persistCfg *sc.PersistConfig
	if *persistDir != "" {
		policy, err := sc.ParsePersistFsyncPolicy(*persistFsync)
		if err != nil {
			return err
		}
		persistCfg = &sc.PersistConfig{
			Dir:              *persistDir,
			Fsync:            policy,
			FsyncInterval:    *persistFsyncSec,
			SnapshotInterval: *persistSnapSec,
		}
	}
	cacheBytes := *cacheMB << 20
	p, err := sc.StartProxy(sc.ProxyConfig{
		ListenAddr: *httpAddr,
		ICPAddr:    *icpAddr,
		Mode:       m,
		CacheBytes: cacheBytes,
		Summary: sc.DirectoryConfig{
			ExpectedDocs:    uint64(cacheBytes / 8192),
			LoadFactor:      *loadf,
			UpdateThreshold: *threshold,
		},
		ParentURL: *parentURL,
		Persist:   persistCfg,
		Metrics:   reg,
		Logger:    log,
		Tracer:    tracer,
		Perf:      watch,
	})
	if err != nil {
		return err
	}
	defer p.Close()
	proxyRef = p
	if watch != nil {
		watchStop := make(chan struct{})
		go watch.Run(*sloEvalSec, watchStop)
		defer close(watchStop)
	}
	attrs := []any{"mode", m.String(), "http", p.URL()}
	if m != sc.ProxyModeNone {
		attrs = append(attrs, "icp", p.ICPAddr().String())
	}
	if rec := p.Recovery(); rec.Recovered {
		log.Info("warm restart: recovered persisted state",
			"dir", *persistDir, "snapshot_gen", rec.SnapshotGen,
			"entries", rec.Entries, "journal_records", rec.JournalRecords,
			"torn_tail", rec.TornTail)
	}
	log.Info("proxy up", attrs...)

	if *adminAddr != "" {
		ln, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			return fmt.Errorf("admin listen %q: %w", *adminAddr, err)
		}
		var mounts []sc.Mount
		endpoints := "/metrics /debug/vars /debug/pprof/ /healthz"
		if tracer != nil {
			mounts = append(mounts, sc.Mount{Pattern: "/debug/traces", Handler: tracer.Handler()})
			endpoints += " /debug/traces"
		}
		if watch != nil {
			mounts = append(mounts,
				sc.Mount{Pattern: "/debug/slo", Handler: watch.SLOHandler()},
				sc.Mount{Pattern: "/debug/perf", Handler: watch.PerfHandler()})
			endpoints += " /debug/slo /debug/perf"
		}
		mounts = append(mounts, sc.Mount{Pattern: "/debug/mesh", Handler: p.MeshHandler()})
		endpoints += " /debug/mesh"
		admin := &http.Server{Handler: sc.NewAdminHandler(reg, p.Health, mounts...)}
		go admin.Serve(ln)
		defer admin.Close()
		log.Info("admin endpoint up", "addr", ln.Addr().String(),
			"endpoints", endpoints)
	}

	for _, spec := range peers {
		parts := strings.SplitN(spec, ",", 2)
		if len(parts) != 2 {
			return fmt.Errorf("bad -peer %q: want udpAddr,httpURL", spec)
		}
		ua, err := net.ResolveUDPAddr("udp", parts[0])
		if err != nil {
			return fmt.Errorf("bad peer UDP address %q: %w", parts[0], err)
		}
		if err := p.AddPeer(ua, parts[1]); err != nil {
			return err
		}
		log.Info("peered", "icp", parts[0], "http", parts[1])
	}
	if *healthSec > 0 {
		stop := p.StartHealthChecks(sc.HealthConfig{Interval: *healthSec})
		defer stop()
	}

	logStats := func(msg string) {
		st := p.Stats()
		log.Info(msg,
			"requests", st.ClientRequests,
			"local_hits", st.LocalHits,
			"remote_hits", st.RemoteHits,
			"misses", st.Misses,
			"false_hits", st.FalseHits,
			"origin_fetches", st.OriginFetches,
			"udp_sent", st.UDP.Sent,
			"udp_received", st.UDP.Received,
			"udp_send_errors", st.UDP.SendErrors,
			"cached_docs", p.CacheLen(),
		)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	var tick <-chan time.Time
	if *statsSec > 0 {
		t := time.NewTicker(*statsSec)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-stop:
			// The final partial interval would otherwise be lost: flush a
			// last stats line before exiting.
			logStats("final stats")
			log.Info("shutting down")
			return nil
		case <-tick:
			logStats("stats")
		}
	}
}
