// Package bench is the Go analog of the Wisconsin Proxy Benchmark setup
// the paper uses for its prototype experiments (§IV, §VII): fleets of
// client workers issue requests with configurable inherent hit ratio and
// heavy-tailed (Pareto) document sizes against a mesh of cooperating
// proxies backed by a latency-injecting origin, measuring hit ratios,
// client latency, process CPU time, and UDP/HTTP message counts — the
// columns of Tables II, IV and V. It also replays traces in the paper's
// two modes: client-bound (experiment 3) and round-robin (experiment 4).
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"time"

	"summarycache/internal/bloom"
	"summarycache/internal/faultnet"
	"summarycache/internal/httpproxy"
	"summarycache/internal/obs"
	"summarycache/internal/origin"
	"summarycache/internal/stats"
	"summarycache/internal/trace"
	"summarycache/internal/tracing"
)

// SyntheticConfig parameterizes a Table II-style run. The paper's full
// setup is 4 proxies × 30 clients × 200 requests with a 1 s origin delay;
// tests scale these down and the ratios survive.
type SyntheticConfig struct {
	Mode              httpproxy.Mode
	Proxies           int
	ClientsPerProxy   int
	RequestsPerClient int
	// InherentHitRatio is the revisit probability in each client's request
	// stream (the paper runs 25% and 45%).
	InherentHitRatio float64
	// Sizes draws document sizes (zero value: the benchmark's Pareto).
	Sizes stats.Pareto
	// OriginLatency delays origin replies (paper: 1 s; scale down here).
	OriginLatency time.Duration
	// CacheBytes per proxy (paper: 75 MB).
	CacheBytes int64
	// MinPending forwards to the SC-ICP summaries' publication floor (0
	// keeps the prototype's one-IP-packet default); their threshold is the
	// node's default 1%.
	MinPending int
	Seed       int64
	// Chaos, when set, runs the benchmark under fault injection: each
	// proxy wraps its network edges with an injector built from
	// Chaos.Fork(i), and the proxies get a resilient fetch pipeline
	// (generous retries, tight backoff) so injected faults degrade to
	// retries and false hits rather than failed runs. Nil: no injection
	// layer is interposed at all.
	Chaos *faultnet.Scenario
	// Metrics, when set, is shared by every proxy in the mesh so one
	// admin endpoint (proxybench -admin) exposes the whole run; each
	// proxy's series are distinguished by its proxy="<addr>" label.
	Metrics *obs.Registry
	// Tracer, when set, is shared by every proxy in the mesh so
	// /debug/traces on the admin endpoint shows correlated request and
	// answer traces from the whole run. Nil: tracing disabled.
	Tracer *tracing.Tracer
}

func (c *SyntheticConfig) applyDefaults() {
	if c.Proxies <= 0 {
		c.Proxies = 4
	}
	if c.ClientsPerProxy <= 0 {
		c.ClientsPerProxy = 30
	}
	if c.RequestsPerClient <= 0 {
		c.RequestsPerClient = 200
	}
	if c.Sizes == (stats.Pareto{}) {
		c.Sizes = stats.Pareto{Alpha: 1.1, Min: 1024, Max: 200 * 1024}
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 75 << 20
	}
}

// Result is one benchmark run's measurements — a column of Table II/IV/V.
type Result struct {
	Mode     httpproxy.Mode
	Requests uint64
	Wall     time.Duration

	HitRatio       float64 // (local + remote) / requests, across the mesh
	LocalHitRatio  float64
	RemoteHitRatio float64

	MeanLatency time.Duration
	P90Latency  time.Duration
	P99Latency  time.Duration

	CPU CPUSample // process CPU consumed during the run

	// UDP totals across all proxies (the ICP traffic).
	UDPSent, UDPReceived       uint64
	UDPSentBytes, UDPRecvBytes uint64
	// HTTPMessages approximates TCP traffic at the application level.
	HTTPMessages uint64
	// OriginRequests counts fetches that reached the servers.
	OriginRequests uint64
	// Retries counts fetch attempts repeated after retryable failures
	// across the mesh (nonzero only under chaos or a flaky origin).
	Retries uint64
	// FaultsInjected totals the faults the chaos layer injected across
	// every proxy (zero when SyntheticConfig.Chaos is nil).
	FaultsInjected uint64
	// PerProxyRequests is each proxy's client-request count; LoadCV is
	// their coefficient of variation (stddev/mean) — the paper's Table
	// IV/V load-balance observation ("the proxies are more load-balanced
	// in the fourth experiment than in the third") made quantitative.
	PerProxyRequests []uint64
	LoadCV           float64
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("%-7v reqs=%-6d hit=%5.1f%% (L %5.1f%% R %5.1f%%) lat=%-8v udp=%d/%d http=%d cpu=%v+%v",
		r.Mode, r.Requests, 100*r.HitRatio, 100*r.LocalHitRatio, 100*r.RemoteHitRatio,
		r.MeanLatency.Round(time.Millisecond), r.UDPSent, r.UDPReceived, r.HTTPMessages,
		r.CPU.User.Round(10*time.Millisecond), r.CPU.System.Round(10*time.Millisecond))
}

// testbed is a running origin + proxy mesh.
type testbed struct {
	origin    *origin.Server
	proxies   []*httpproxy.Proxy
	injectors []*faultnet.Injector // non-empty only under chaos
	client    *http.Client
}

func newTestbed(mode httpproxy.Mode, proxies int, cacheBytes int64, originLatency time.Duration, minPending int, chaos *faultnet.Scenario, reg *obs.Registry, tracer *tracing.Tracer) (*testbed, error) {
	org, err := origin.Start(origin.Config{Latency: originLatency})
	if err != nil {
		return nil, err
	}
	tb := &testbed{origin: org, client: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 256, MaxIdleConns: 1024},
	}}
	for i := 0; i < proxies; i++ {
		cfg := httpproxy.Config{
			Mode:       mode,
			CacheBytes: cacheBytes,
			Summary: bloom.DirectoryConfig{
				ExpectedDocs: uint64(cacheBytes / 8192),
				LoadFactor:   16,
				MinPending:   minPending,
			},
			QueryTimeout: 2 * time.Second,
			Metrics:      reg,
			Tracer:       tracer,
		}
		if chaos != nil {
			inj := faultnet.New(chaos.Fork(int64(i)))
			tb.injectors = append(tb.injectors, inj)
			cfg.Faults = inj
			// Ride out the injected faults: retries absorb transient
			// fetch failures so the run measures degradation, not deaths.
			cfg.FetchTimeout = 5 * time.Second
			cfg.FetchRetries = 8
			cfg.FetchBackoff = 2 * time.Millisecond
		}
		p, err := httpproxy.Start(cfg)
		if err != nil {
			tb.Close()
			return nil, err
		}
		tb.proxies = append(tb.proxies, p)
	}
	if mode != httpproxy.ModeNone {
		for i, p := range tb.proxies {
			for j, q := range tb.proxies {
				if i != j {
					if err := p.AddPeer(q.ICPAddr(), q.URL()); err != nil {
						tb.Close()
						return nil, err
					}
				}
			}
		}
	}
	return tb, nil
}

// Close tears the testbed down. Teardown errors are dropped: the bench
// run's results are already collected by the time the mesh is dismantled.
func (tb *testbed) Close() {
	for _, p := range tb.proxies {
		_ = p.Close()
	}
	if tb.origin != nil {
		_ = tb.origin.Close()
	}
}

// get issues one request through a proxy and returns its latency.
func (tb *testbed) get(p *httpproxy.Proxy, target string) (time.Duration, error) {
	return tb.getURL(p.URL() + httpproxy.ProxyPath + "?url=" + url.QueryEscape(target))
}

// getURL issues one pre-built proxy request and returns its latency; the
// synthetic client loop keeps each URL it builds so a revisit reuses it.
func (tb *testbed) getURL(u string) (time.Duration, error) {
	start := time.Now()
	resp, err := tb.client.Get(u)
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("bench: proxy status %d for %s", resp.StatusCode, u)
	}
	return time.Since(start), nil
}

// collect aggregates the mesh-wide counters of the whole run into r.
func (tb *testbed) collect(r *Result) {
	var clientReqs, localHits, remoteHits uint64
	var w stats.Welford
	for _, p := range tb.proxies {
		st := p.Stats()
		clientReqs += st.ClientRequests
		localHits += st.LocalHits
		remoteHits += st.RemoteHits
		r.UDPSent += st.UDP.Sent
		r.UDPReceived += st.UDP.Received
		r.UDPSentBytes += st.UDP.SentBytes
		r.UDPRecvBytes += st.UDP.RecvBytes
		r.HTTPMessages += st.HTTPMessages
		r.Retries += st.Retries
		r.PerProxyRequests = append(r.PerProxyRequests, st.ClientRequests)
		w.Add(float64(st.ClientRequests))
	}
	for _, inj := range tb.injectors {
		r.FaultsInjected += inj.Total()
	}
	r.Requests = clientReqs
	if clientReqs > 0 {
		r.HitRatio = float64(localHits+remoteHits) / float64(clientReqs)
		r.LocalHitRatio = float64(localHits) / float64(clientReqs)
		r.RemoteHitRatio = float64(remoteHits) / float64(clientReqs)
	}
	r.OriginRequests = tb.origin.Stats().Requests
	if w.Mean() > 0 {
		r.LoadCV = w.Stddev() / w.Mean()
	}
}

// RunSynthetic executes one Table II-style benchmark run. Different
// clients' URL spaces never overlap ("the requests issued by different
// clients do not overlap; there is no remote cache hit. This is the
// worst-case scenario for ICP"), and the counters cover the whole run
// from a cold mesh, setup traffic included.
func RunSynthetic(cfg SyntheticConfig) (Result, error) {
	cfg.applyDefaults()
	tb, err := newTestbed(cfg.Mode, cfg.Proxies, cfg.CacheBytes, cfg.OriginLatency, cfg.MinPending, cfg.Chaos, cfg.Metrics, cfg.Tracer)
	if err != nil {
		return Result{}, err
	}
	defer tb.Close()

	var lat stats.LatencyRecorder
	var wg sync.WaitGroup
	start := make(chan struct{})
	errCh := make(chan error, cfg.Proxies*cfg.ClientsPerProxy)
	clientID := 0
	for _, proxy := range tb.proxies {
		for ci := 0; ci < cfg.ClientsPerProxy; ci++ {
			wg.Add(1)
			go func(proxy *httpproxy.Proxy, id int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(cfg.Seed + int64(id)*7919))
				proxyBase := proxy.URL() + httpproxy.ProxyPath + "?url="
				var history []string
				<-start
				for i := 0; i < cfg.RequestsPerClient; i++ {
					var reqURL string
					if len(history) > 0 && rng.Float64() < cfg.InherentHitRatio {
						reqURL = history[rng.Intn(len(history))]
					} else {
						// A per-client namespace of effectively unique
						// documents.
						doc := rng.Intn(1 << 30)
						target := origin.DocURL(tb.origin.URL(),
							fmt.Sprintf("c%d/doc%d", id, doc),
							cfg.Sizes.Sample(rng), 0)
						reqURL = proxyBase + url.QueryEscape(target)
						history = append(history, reqURL)
					}
					d, err := tb.getURL(reqURL)
					if err != nil {
						errCh <- err
						return
					}
					lat.Record(d)
				}
			}(proxy, clientID)
			clientID++
		}
	}
	// Every client is spawned: start the clocks and release
	// them in unison.
	cpuStart := ReadCPU()
	wallStart := time.Now()
	close(start)
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		return Result{}, err
	}

	res := Result{Mode: cfg.Mode, Wall: time.Since(wallStart)}
	res.CPU = ReadCPU().Sub(cpuStart)
	res.MeanLatency = lat.Mean()
	res.P90Latency = lat.Percentile(90)
	res.P99Latency = lat.Percentile(99)
	tb.collect(&res)
	return res, nil
}

// Assignment selects how trace requests map onto client workers.
type Assignment int

// The two replay modes of §VII.
const (
	// ClientBound preserves the binding between a trace client and its
	// requests; all of a client's requests go through the same proxy
	// (experiment 3 — order across clients is not preserved).
	ClientBound Assignment = iota
	// RoundRobin hands requests to workers round-robin regardless of the
	// originating client, preserving global order but not client binding
	// (experiment 4 — proxies are more load-balanced).
	RoundRobin
)

// String implements fmt.Stringer.
func (a Assignment) String() string {
	switch a {
	case ClientBound:
		return "client-bound"
	case RoundRobin:
		return "round-robin"
	}
	return fmt.Sprintf("Assignment(%d)", int(a))
}

// ReplayConfig parameterizes a trace-replay run (Tables IV and V).
type ReplayConfig struct {
	Mode    httpproxy.Mode
	Proxies int
	// Workers is the number of client processes (paper: 80 across 4
	// workstations).
	Workers    int
	Assignment Assignment
	// Trace supplies the requests; URLs are mapped onto the synthetic
	// origin, carrying each request's size ("each request's URL carries
	// the size of the request in the trace file, and the server replies
	// with the specified number of bytes").
	Trace         []trace.Request
	OriginLatency time.Duration
	CacheBytes    int64
	// MinPending forwards to the SC-ICP summaries' publication floor
	// (see SyntheticConfig.MinPending).
	MinPending int
	// Chaos runs the replay under fault injection (see
	// SyntheticConfig.Chaos).
	Chaos *faultnet.Scenario
	// Metrics, when set, is shared by every proxy in the mesh (see
	// SyntheticConfig.Metrics).
	Metrics *obs.Registry
	// Tracer, when set, is shared by every proxy (see
	// SyntheticConfig.Tracer).
	Tracer *tracing.Tracer
}

// RunReplay executes one trace-replay benchmark run.
func RunReplay(cfg ReplayConfig) (Result, error) {
	if cfg.Proxies <= 0 {
		cfg.Proxies = 4
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 80
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 75 << 20
	}
	if len(cfg.Trace) == 0 {
		return Result{}, fmt.Errorf("bench: empty trace")
	}
	if cfg.Assignment != ClientBound && cfg.Assignment != RoundRobin {
		return Result{}, fmt.Errorf("bench: unknown assignment %v", cfg.Assignment)
	}
	tb, err := newTestbed(cfg.Mode, cfg.Proxies, cfg.CacheBytes, cfg.OriginLatency, cfg.MinPending, cfg.Chaos, cfg.Metrics, cfg.Tracer)
	if err != nil {
		return Result{}, err
	}
	defer tb.Close()

	// Partition the trace across workers.
	queues := make([][]trace.Request, cfg.Workers)
	switch cfg.Assignment {
	case ClientBound:
		// A trace client's stream stays intact on one worker (and hence
		// one proxy).
		for _, req := range cfg.Trace {
			w := req.Group(cfg.Workers)
			queues[w] = append(queues[w], req)
		}
	case RoundRobin:
		for i, req := range cfg.Trace {
			queues[i%cfg.Workers] = append(queues[i%cfg.Workers], req)
		}
	}

	var lat stats.LatencyRecorder
	var wg sync.WaitGroup
	errCh := make(chan error, cfg.Workers)
	cpuStart := ReadCPU()
	wallStart := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		if len(queues[w]) == 0 {
			continue
		}
		wg.Add(1)
		go func(w int, reqs []trace.Request) {
			defer wg.Done()
			proxy := tb.proxies[w%cfg.Proxies]
			for _, req := range reqs {
				target := origin.DocURL(tb.origin.URL(), "t/"+url.PathEscape(req.URL), req.Size, req.Version)
				d, err := tb.get(proxy, target)
				if err != nil {
					errCh <- err
					return
				}
				lat.Record(d)
			}
		}(w, queues[w])
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		return Result{}, err
	}

	res := Result{Mode: cfg.Mode, Wall: time.Since(wallStart)}
	res.CPU = ReadCPU().Sub(cpuStart)
	res.MeanLatency = lat.Mean()
	res.P90Latency = lat.Percentile(90)
	res.P99Latency = lat.Percentile(99)
	tb.collect(&res)
	return res, nil
}
