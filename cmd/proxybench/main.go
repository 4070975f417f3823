// Command proxybench runs the paper's networked prototype experiments on
// loopback: the Table II synthetic benchmark (no-ICP vs ICP vs SC-ICP with
// no inter-proxy hits) and the Table IV/V trace replays (client-bound and
// round-robin).
//
// Usage:
//
//	proxybench -experiment=table2|table4|table5|all [-latency=20ms] [-clients=30] [-requests=200]
//
// The per-layer and end-to-end speed of the mesh is measured by the
// benchmark module in benchmark/, not here.
//
// With -admin set, an observability endpoint serves live /metrics,
// /debug/vars and /debug/pprof/ for every proxy in the running mesh —
// profile the benchmark while it runs. Add -trace-sample to also serve
// /debug/traces: correlated request traces (with summary-decision audits)
// from the whole mesh, one store per run.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"summarycache/internal/bench"
	"summarycache/internal/faultnet"
	"summarycache/internal/httpproxy"
	"summarycache/internal/obs"
	"summarycache/internal/perfwatch"
	"summarycache/internal/tracegen"
	"summarycache/internal/tracing"
)

var (
	experiment = flag.String("experiment", "all", "experiment: all, table2, table4, table5")
	latency    = flag.Duration("latency", 20*time.Millisecond, "origin latency (paper: 1s)")
	clients    = flag.Int("clients", 30, "clients per proxy (paper: 30)")
	requests   = flag.Int("requests", 200, "requests per client (paper: 200)")
	replayN    = flag.Int("replay", 12000, "trace requests to replay for tables 4/5 (paper: 24000)")
	traceScale = flag.Float64("trace-scale", 0.25, "UPisa trace scale for replays")
	chaosRate  = flag.Float64("chaos", 0, "fault-injection intensity: UDP loss rate per direction, with proportional delay/duplication and HTTP fault bursts (0: no injection layer)")
	chaosSeed  = flag.Int64("chaos-seed", 1, "fault-injection scenario seed; the same seed replays the same fault schedule")
	adminAddr  = flag.String("admin", "", "admin listen address serving /metrics, /debug/vars and /debug/pprof/ for the live mesh (empty: disabled)")
	traceRate  = flag.Float64("trace-sample", 0, "head-sampling rate in [0,1] for request traces; anomalous traces are always kept once tracing is on")
	traceBuf   = flag.Int("trace-buffer", 0, "trace ring-buffer capacity (0 with -trace-sample=0: tracing disabled)")
	sloP99     = flag.Duration("slo", 0, "client latency SLO threshold: each mesh run gets a per-stage latency breakdown and a client_p99 objective at this threshold (budget 0.01), and proxybench exits non-zero when any run breaches (0: disabled)")
)

// current is the registry (and tracer) of the mesh currently running; each
// benchmark run starts fresh (sequential runs may reuse ephemeral ports,
// and stale series from a finished mesh would otherwise be inherited). The
// admin endpoint always serves the live run.
var (
	current       atomic.Pointer[obs.Registry]
	currentTracer atomic.Pointer[tracing.Tracer]
	currentWatch  atomic.Pointer[perfwatch.Watch]
	sloBreaches   int // mesh runs whose -slo objective breached
)

func tracingOn() bool { return *traceRate > 0 || *traceBuf > 0 }
func perfOn() bool    { return *sloP99 > 0 }

func newRunRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)
	current.Store(reg)
	if perfOn() {
		currentWatch.Store(perfwatch.New(perfwatch.Config{
			Registry: reg,
			Objectives: []perfwatch.Objective{{
				Name:      "client_p99",
				Threshold: *sloP99,
				Budget:    0.01,
			}},
		}))
	}
	// A perf watch needs a tracer to feed it spans, even when no traces
	// are retained (-trace-sample=0 keeps only anomalous ones).
	if tracingOn() || perfOn() {
		currentTracer.Store(tracing.New(tracing.Config{
			HeadRate: *traceRate,
			Buffer:   *traceBuf,
			Registry: reg,
			Sink:     runWatchSink(),
		}))
	}
	return reg
}

// runTracer returns the live run's shared tracer (nil: tracing disabled).
func runTracer() *tracing.Tracer { return currentTracer.Load() }

// runWatch returns the live run's perf watch (nil: -slo disabled).
func runWatch() *perfwatch.Watch { return currentWatch.Load() }

// runWatchSink adapts runWatch for tracing.Config.Sink, whose interface a
// typed-nil *perfwatch.Watch would otherwise satisfy non-nil.
func runWatchSink() tracing.SpanSink {
	if w := runWatch(); w != nil {
		return w
	}
	return nil
}

var modes = []httpproxy.Mode{httpproxy.ModeNone, httpproxy.ModeICP, httpproxy.ModeSCICP}

// chaosScenario derives the run's fault schedule from -chaos/-chaos-seed
// (nil when -chaos is 0: the benchmark runs with no injection layer).
func chaosScenario() *faultnet.Scenario {
	if *chaosRate <= 0 {
		return nil
	}
	udp := faultnet.Rates{
		Drop:      *chaosRate,
		Duplicate: *chaosRate / 3,
		Delay:     *chaosRate / 2,
		DelayMin:  time.Millisecond,
		DelayMax:  10 * time.Millisecond,
	}
	return &faultnet.Scenario{
		Seed:     *chaosSeed,
		Inbound:  udp,
		Outbound: udp,
		HTTP: faultnet.HTTPRates{
			ConnectFail: *chaosRate / 3,
			Stall:       *chaosRate / 8,
			StallFor:    50 * time.Millisecond,
			Truncate:    *chaosRate / 3,
			Err5xx:      *chaosRate / 2,
			Burst:       2,
		},
	}
}

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "proxybench:", err)
		os.Exit(1)
	}
}

func run() error {
	switch *experiment {
	case "all", "table2", "table4", "table5":
	default:
		return fmt.Errorf("unknown -experiment %q (want all, table2, table4 or table5)", *experiment)
	}
	newRunRegistry()
	if *adminAddr != "" {
		ln, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			return fmt.Errorf("admin listen %q: %w", *adminAddr, err)
		}
		srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// Re-resolved per request: each run swaps in a fresh registry
			// and tracer, and the admin plane must follow the live mesh.
			mux := obs.NewHandler(current.Load(), nil)
			if tr := runTracer(); tr != nil {
				mux.Handle("/debug/traces", tr.Handler())
			}
			if pw := runWatch(); pw != nil {
				mux.Handle("/debug/slo", pw.SLOHandler())
				mux.Handle("/debug/perf", pw.PerfHandler())
			}
			mux.ServeHTTP(w, r)
		})}
		go srv.Serve(ln)
		defer srv.Close()
		endpoints := "/metrics /debug/vars /debug/pprof/"
		if tracingOn() {
			endpoints += " /debug/traces"
		}
		if perfOn() {
			endpoints += " /debug/slo /debug/perf"
		}
		fmt.Fprintf(os.Stderr, "admin endpoint on http://%s (%s)\n", ln.Addr(), endpoints)
	}
	want := func(n string) bool { return *experiment == "all" || *experiment == n }
	if want("table2") {
		for _, hr := range []float64{0.25, 0.45} {
			if err := table2(hr); err != nil {
				return err
			}
		}
	}
	if want("table4") {
		if err := replay(bench.ClientBound, "Table IV (experiment 3: client-bound replay)"); err != nil {
			return err
		}
	}
	if want("table5") {
		if err := replay(bench.RoundRobin, "Table V (experiment 4: round-robin replay)"); err != nil {
			return err
		}
	}
	if sloBreaches > 0 {
		return fmt.Errorf("%d run(s) breached the -slo=%v client_p99 objective", sloBreaches, *sloP99)
	}
	return nil
}

// checkSLO closes the finished run's SLO window, prints the per-stage
// latency breakdown and objective verdict, and tallies a breach. No-op
// without -slo.
func checkSLO(mode httpproxy.Mode) {
	pw := runWatch()
	if pw == nil {
		return
	}
	fmt.Printf("-- stage breakdown (%v) --\n", mode)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "stage\tcount\ttotal\tp50\tp99")
	for _, s := range pw.Stages() {
		fmt.Fprintf(w, "%s\t%d\t%.3fs\t%v\t%v\n",
			s.Stage, s.Count, s.Sum,
			time.Duration(s.P50*float64(time.Second)).Round(time.Microsecond),
			time.Duration(s.P99*float64(time.Second)).Round(time.Microsecond))
	}
	w.Flush()
	for _, st := range pw.Evaluate() {
		verdict := "ok"
		if st.Breached {
			verdict = "BREACHED"
			sloBreaches++
		}
		fmt.Printf("slo %s: %s (burn %.2f, %d/%d bad over budget %.4f)\n",
			st.Name, verdict, st.BurnRate, st.WindowBad, st.WindowTotal, st.Budget)
	}
	fmt.Println()
}

func render(title string, results []bench.Result) {
	fmt.Printf("== %s ==\n", title)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "mode\thit ratio\tremote hits\tlatency (mean)\tlatency (p90)\tuser CPU\tsys CPU\tUDP msgs\tHTTP msgs\torigin reqs\tload CV\tretries\tfaults")
	for _, r := range results {
		fmt.Fprintf(w, "%v\t%.1f%%\t%.1f%%\t%v\t%v\t%v\t%v\t%d\t%d\t%d\t%.3f\t%d\t%d\n",
			r.Mode, 100*r.HitRatio, 100*r.RemoteHitRatio,
			r.MeanLatency.Round(time.Millisecond), r.P90Latency.Round(time.Millisecond),
			r.CPU.User.Round(10*time.Millisecond), r.CPU.System.Round(10*time.Millisecond),
			r.UDPSent+r.UDPReceived, r.HTTPMessages, r.OriginRequests, r.LoadCV,
			r.Retries, r.FaultsInjected)
	}
	w.Flush()
	fmt.Println()
}

func table2(hitRatio float64) error {
	fmt.Fprintf(os.Stderr, "running Table II at inherent hit ratio %.0f%%...\n", 100*hitRatio)
	var results []bench.Result
	for _, m := range modes {
		r, err := bench.RunSynthetic(bench.SyntheticConfig{
			Mode:              m,
			Proxies:           4,
			ClientsPerProxy:   *clients,
			RequestsPerClient: *requests,
			InherentHitRatio:  hitRatio,
			OriginLatency:     *latency,
			Seed:              42, // "we use the same seeds ... to ensure comparable results"
			Chaos:             chaosScenario(),
			Metrics:           newRunRegistry(),
			Tracer:            runTracer(),
			Perf:              runWatch(),
		})
		if err != nil {
			return err
		}
		results = append(results, r)
		checkSLO(m)
	}
	render(fmt.Sprintf("Table II: ICP overhead, 4 proxies, inherent hit ratio %.0f%%, no inter-proxy hits", 100*hitRatio), results)
	return nil
}

func replay(a bench.Assignment, title string) error {
	fmt.Fprintf(os.Stderr, "generating UPisa trace for %v replay...\n", a)
	reqs, _, err := tracegen.GeneratePreset(tracegen.UPisa, *traceScale)
	if err != nil {
		return err
	}
	if len(reqs) > *replayN {
		reqs = reqs[:*replayN]
	}
	var results []bench.Result
	for _, m := range modes {
		fmt.Fprintf(os.Stderr, "replaying %d requests under %v...\n", len(reqs), m)
		r, err := bench.RunReplay(bench.ReplayConfig{
			Mode:          m,
			Proxies:       4,
			Workers:       80,
			Assignment:    a,
			Trace:         reqs,
			OriginLatency: *latency,
			Chaos:         chaosScenario(),
			Metrics:       newRunRegistry(),
			Tracer:        runTracer(),
			Perf:          runWatch(),
		})
		if err != nil {
			return err
		}
		results = append(results, r)
		checkSLO(m)
	}
	render(title, results)
	return nil
}
