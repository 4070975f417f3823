package bench

import (
	"math"
	"strings"
	"testing"
	"time"

	"summarycache/internal/httpproxy"
	"summarycache/internal/trace"
	"summarycache/internal/tracegen"
)

func TestReadCPU(t *testing.T) {
	c := ReadCPU()
	if !c.Valid {
		t.Skip("/proc/self/stat unavailable")
	}
	if c.User < 0 || c.System < 0 {
		t.Fatalf("negative CPU: %+v", c)
	}
	// Burn some CPU and confirm the counter moves (or at least doesn't go
	// backwards).
	x := 0
	for i := 0; i < 50_000_000; i++ {
		x += i % 7
	}
	_ = x
	d := ReadCPU().Sub(c)
	if !d.Valid || d.User < 0 || d.System < 0 {
		t.Fatalf("CPU went backwards: %+v", d)
	}
}

// smallSynthetic is a fast configuration shared by the mode tests.
func smallSynthetic(mode httpproxy.Mode, hitRatio float64) SyntheticConfig {
	return SyntheticConfig{
		Mode:              mode,
		Proxies:           4,
		ClientsPerProxy:   3,
		RequestsPerClient: 30,
		InherentHitRatio:  hitRatio,
		OriginLatency:     2 * time.Millisecond,
		CacheBytes:        16 << 20,
		Seed:              1,
	}
}

func TestSyntheticNoICP(t *testing.T) {
	r, err := RunSynthetic(smallSynthetic(httpproxy.ModeNone, 0.45))
	if err != nil {
		t.Fatal(err)
	}
	if r.Requests != 4*3*30 {
		t.Fatalf("requests = %d", r.Requests)
	}
	// The inherent hit ratio must be visible (revisits hit the cache).
	if r.HitRatio < 0.25 || r.HitRatio > 0.60 {
		t.Errorf("hit ratio %.3f outside plausible band for 45%% revisits", r.HitRatio)
	}
	if r.UDPSent != 0 || r.UDPReceived != 0 {
		t.Error("no-ICP run produced UDP traffic")
	}
	if r.RemoteHitRatio != 0 {
		t.Error("disjoint no-ICP run produced remote hits")
	}
	if r.MeanLatency <= 0 {
		t.Error("no latency recorded")
	}
	if r.String() == "" {
		t.Error("empty String()")
	}
}

// The paper's Table II comparison: with disjoint URL spaces (no remote
// hits), ICP's UDP overhead is pure waste — (N-1) queries per miss plus as
// many replies — while SC-ICP sends almost nothing. Hit ratios match.
func TestSyntheticICPOverheadVsSCICP(t *testing.T) {
	icp, err := RunSynthetic(smallSynthetic(httpproxy.ModeICP, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := RunSynthetic(smallSynthetic(httpproxy.ModeSCICP, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	none, err := RunSynthetic(smallSynthetic(httpproxy.ModeNone, 0.25))
	if err != nil {
		t.Fatal(err)
	}

	// Hit ratios are statistically identical across modes (same seeds).
	for _, r := range []Result{icp, sc} {
		if d := r.HitRatio - none.HitRatio; d > 0.05 || d < -0.05 {
			t.Errorf("%v hit ratio %.3f deviates from no-ICP %.3f", r.Mode, r.HitRatio, none.HitRatio)
		}
	}
	// ICP sends exactly 2×(N-1) datagrams per origin request, a query and a
	// reply per peer, and nothing else: no summary is ever published. The
	// run is deterministic, so every one is received.
	cfg := smallSynthetic(httpproxy.ModeICP, 0.25)
	want := uint64(2*(cfg.Proxies-1)) * icp.OriginRequests
	if icp.UDPSent != want || icp.UDPReceived != want {
		t.Errorf("ICP UDP sent %d, received %d, want %d each (2×%d peers×%d origin requests)",
			icp.UDPSent, icp.UDPReceived, want, cfg.Proxies-1, icp.OriginRequests)
	}
	// SC-ICP must slash UDP query traffic. Updates remain, so compare
	// against ICP's total with a generous factor.
	if sc.UDPSent*5 > icp.UDPSent {
		t.Errorf("SC-ICP UDP %d not ≪ ICP UDP %d", sc.UDPSent, icp.UDPSent)
	}
}

// Table II is reproducible from its seed ("we use the same seeds ... to
// ensure comparable results"): two runs of one configuration report the
// same columns, and every request that missed locally reached the origin
// exactly once, cold-start traffic included.
func TestSyntheticReproducibleFromSeed(t *testing.T) {
	for _, m := range []httpproxy.Mode{httpproxy.ModeNone, httpproxy.ModeICP} {
		var runs [2]Result
		for i := range runs {
			r, err := RunSynthetic(smallSynthetic(m, 0.25))
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = r
		}
		a, b := runs[0], runs[1]
		if a.Requests != b.Requests || a.HitRatio != b.HitRatio ||
			a.OriginRequests != b.OriginRequests || a.HTTPMessages != b.HTTPMessages ||
			a.UDPSent != b.UDPSent || a.UDPReceived != b.UDPReceived {
			t.Errorf("%v: runs differ:\n%+v\n%+v", m, a, b)
		}
		if m != httpproxy.ModeNone {
			continue
		}
		localHits := uint64(math.Round(a.LocalHitRatio * float64(a.Requests)))
		if a.OriginRequests != a.Requests-localHits {
			t.Errorf("no-ICP origin requests = %d, want requests %d - local hits %d",
				a.OriginRequests, a.Requests, localHits)
		}
	}
}

func TestAssignmentString(t *testing.T) {
	for a, want := range map[Assignment]string{
		ClientBound:   "client-bound",
		RoundRobin:    "round-robin",
		Assignment(7): "Assignment(7)",
	} {
		if got := a.String(); got != want {
			t.Errorf("Assignment(%d).String() = %q, want %q", int(a), got, want)
		}
	}
}

func TestReplayBothAssignments(t *testing.T) {
	reqs, _, err := tracegen.GeneratePreset(tracegen.UPisa, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) > 800 {
		reqs = reqs[:800]
	}
	for _, a := range []Assignment{ClientBound, RoundRobin} {
		r, err := RunReplay(ReplayConfig{
			Mode:          httpproxy.ModeSCICP,
			Proxies:       4,
			Workers:       8,
			Assignment:    a,
			Trace:         reqs,
			OriginLatency: time.Millisecond,
			CacheBytes:    8 << 20,
		})
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if r.Requests != uint64(len(reqs)) {
			t.Errorf("%v: served %d of %d requests", a, r.Requests, len(reqs))
		}
		if r.HitRatio <= 0 {
			t.Errorf("%v: zero hit ratio replaying a skewed trace", a)
		}
	}
}

// A bad configuration is refused before any origin or proxy starts.
func TestReplayEmptyTrace(t *testing.T) {
	one := []trace.Request{{URL: "http://example.test/a", Size: 1024}}
	for _, tc := range []struct {
		name    string
		cfg     ReplayConfig
		wantErr string
	}{
		{"empty trace", ReplayConfig{Mode: httpproxy.ModeNone}, "empty trace"},
		{"unknown assignment", ReplayConfig{Mode: httpproxy.ModeNone, Assignment: Assignment(7), Trace: one}, "Assignment(7)"},
	} {
		_, err := RunReplay(tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.wantErr)
		}
	}
}

// The headline of Tables IV/V: replaying a real-ish trace, SC-ICP keeps
// ICP's remote hits while sending far fewer datagrams.
func TestReplayICPvsSCICP(t *testing.T) {
	reqs, _, err := tracegen.GeneratePreset(tracegen.UPisa, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) > 1500 {
		reqs = reqs[:1500]
	}
	run := func(mode httpproxy.Mode) Result {
		r, err := RunReplay(ReplayConfig{
			Mode: mode, Proxies: 4, Workers: 8, Assignment: RoundRobin,
			Trace: reqs, OriginLatency: time.Millisecond, CacheBytes: 8 << 20,
			// At this miniature scale the prototype's fill-an-IP-packet
			// batching would delay summaries past the whole replay; batch
			// every ~10 documents instead.
			MinUpdateFlips: 40,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	icp := run(httpproxy.ModeICP)
	sc := run(httpproxy.ModeSCICP)
	if icp.RemoteHitRatio == 0 {
		t.Fatal("replay produced no remote hits under ICP; workload too cold")
	}
	if sc.HitRatio < icp.HitRatio*0.9 {
		t.Errorf("SC-ICP hit ratio %.3f lost too much vs ICP %.3f", sc.HitRatio, icp.HitRatio)
	}
	if sc.UDPSent >= icp.UDPSent {
		t.Errorf("SC-ICP UDP %d not below ICP %d", sc.UDPSent, icp.UDPSent)
	}
}

func TestParseProcStat(t *testing.T) {
	// 52 fields as on a modern kernel; comm contains spaces and parens.
	line := "1234 (weird (comm) name) S 1 1 1 0 -1 4194304 500 0 0 0 250 75 0 0 20 0 8 0 100 1000000 200 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 3 0 0 0 0 0 0 0 0 0 0 0 0 0"
	c := parseProcStat(line)
	if !c.Valid {
		t.Fatal("valid line rejected")
	}
	if c.User != 2500*time.Millisecond {
		t.Errorf("utime = %v, want 2.5s (250 ticks)", c.User)
	}
	if c.System != 750*time.Millisecond {
		t.Errorf("stime = %v, want 750ms (75 ticks)", c.System)
	}
	for _, bad := range []string{
		"",
		"no parens at all",
		"1 (x) S 1 2 3", // too few fields
		"1 (x) S 1 1 1 0 -1 4194304 500 0 0 0 abc 75 0 0 20 0 8 0 100", // non-numeric utime
	} {
		if parseProcStat(bad).Valid {
			t.Errorf("accepted malformed line %q", bad)
		}
	}
}

// Round-robin assignment balances proxy load better than client-bound
// assignment when clients are skewed — the paper's Table IV/V contrast.
func TestReplayLoadBalance(t *testing.T) {
	reqs, _, err := tracegen.GeneratePreset(tracegen.UPisa, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) > 1000 {
		reqs = reqs[:1000]
	}
	run := func(a Assignment) Result {
		r, err := RunReplay(ReplayConfig{
			Mode: httpproxy.ModeNone, Proxies: 4, Workers: 8, Assignment: a,
			Trace: reqs, OriginLatency: time.Millisecond, CacheBytes: 8 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	cb := run(ClientBound)
	rr := run(RoundRobin)
	if len(cb.PerProxyRequests) != 4 || len(rr.PerProxyRequests) != 4 {
		t.Fatalf("per-proxy counts missing: %v / %v", cb.PerProxyRequests, rr.PerProxyRequests)
	}
	if rr.LoadCV > cb.LoadCV+1e-9 {
		t.Errorf("round-robin CV %.4f should be ≤ client-bound CV %.4f "+
			"(the paper's load-balance observation)", rr.LoadCV, cb.LoadCV)
	}
	if rr.LoadCV < 0 || cb.LoadCV < 0 {
		t.Fatal("negative CV")
	}
}
