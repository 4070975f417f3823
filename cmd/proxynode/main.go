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
// The -admin listener serves the proxy's AdminHandler: Prometheus metrics
// at /metrics, pprof profiles at /debug/pprof/, and JSON at /debug/vars
// (the same metrics), /healthz (peer health and build info) and
// /debug/mesh (per-peer summary divergence and false-decision
// accounting). When -trace-sample or -trace-buffer enables tracing,
// request traces with summary-decision audits are at /debug/traces, and
// every span also feeds the per-stage latency histograms
// summarycache_perf_stage_seconds{stage=...} at /metrics and /debug/vars.
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

	"summarycache/internal/bloom"
	"summarycache/internal/core"
	"summarycache/internal/httpproxy"
	"summarycache/internal/obs"
	"summarycache/internal/perfwatch"
	"summarycache/internal/persist"
	"summarycache/internal/tracing"
)

type peerList []string

func (p *peerList) String() string     { return strings.Join(*p, ";") }
func (p *peerList) Set(v string) error { *p = append(*p, v); return nil }

var (
	httpAddr  = flag.String("http", "127.0.0.1:3128", "HTTP listen address")
	icpAddr   = flag.String("icp", "127.0.0.1:3130", "ICP (UDP) listen address")
	adminAddr = flag.String("admin", "", "admin listen address serving /metrics, /debug/vars, /debug/pprof/, /healthz and /debug/mesh, plus /debug/traces with tracing (empty: disabled)")
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
	persistDir = flag.String("persist-dir", "",
		"warm-restart persistence directory: the cache and peer replicas are checkpointed there and recovered on the next start, and the directory filter is rebuilt from the recovered cache (empty: persistence off)")
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

func parseMode(s string) (httpproxy.Mode, error) {
	switch strings.ToLower(s) {
	case "none":
		return httpproxy.ModeNone, nil
	case "icp":
		return httpproxy.ModeICP, nil
	case "scicp", "sc-icp":
		return httpproxy.ModeSCICP, nil
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
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)

	var tracer *tracing.Tracer
	if *traceRate > 0 || *traceBuf > 0 {
		if *traceRate < 0 || *traceRate > 1 {
			return fmt.Errorf("-trace-sample %v outside [0,1]", *traceRate)
		}
		// Every span, kept or not, feeds the per-stage latency histograms.
		tracer = tracing.New(tracing.Config{
			HeadRate: *traceRate,
			Buffer:   *traceBuf,
			Registry: reg,
			Logger:   log,
			Sink:     perfwatch.New(perfwatch.Config{Registry: reg}),
		})
	}
	var persistCfg *persist.Config
	if *persistDir != "" {
		policy, err := persist.ParseFsyncPolicy(*persistFsync)
		if err != nil {
			return err
		}
		persistCfg = &persist.Config{
			Dir:              *persistDir,
			Fsync:            policy,
			FsyncInterval:    *persistFsyncSec,
			SnapshotInterval: *persistSnapSec,
		}
	}
	cacheBytes := *cacheMB << 20
	p, err := httpproxy.Start(httpproxy.Config{
		ListenAddr: *httpAddr,
		ICPAddr:    *icpAddr,
		Mode:       m,
		CacheBytes: cacheBytes,
		Summary: bloom.DirectoryConfig{
			ExpectedDocs:    uint64(cacheBytes / 8192),
			LoadFactor:      *loadf,
			UpdateThreshold: *threshold,
		},
		ParentURL: *parentURL,
		Persist:   persistCfg,
		Metrics:   reg,
		Logger:    log,
		Tracer:    tracer,
	})
	if err != nil {
		return err
	}
	defer p.Close()
	attrs := []any{"mode", m.String(), "http", p.URL()}
	if m != httpproxy.ModeNone {
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
		admin := &http.Server{Handler: p.AdminHandler()}
		go admin.Serve(ln)
		defer admin.Close()
		log.Info("admin endpoint up", "addr", ln.Addr().String())
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
		stop := p.StartHealthChecks(core.HealthConfig{Interval: *healthSec})
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
