package httpproxy

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"testing"
	"time"

	"summarycache/internal/core"
	"summarycache/internal/faultnet"
	"summarycache/internal/origin"
	"summarycache/internal/testutil/leakcheck"
)

// chaosScenario is the soak's fault schedule: 15% UDP loss each way plus
// delay-induced reordering and duplication on the ICP path, and a burst
// of HTTP-level faults (refused connects, stalls, truncated bodies, 503
// runs) on every outbound fetch. The seed is fixed so a failure replays.
func chaosScenario() faultnet.Scenario {
	udp := faultnet.Rates{
		Drop:      0.15,
		Duplicate: 0.05,
		Delay:     0.10,
		DelayMin:  time.Millisecond,
		DelayMax:  10 * time.Millisecond,
	}
	return faultnet.Scenario{
		Seed:     0xC4A05,
		Inbound:  udp,
		Outbound: udp,
		HTTP: faultnet.HTTPRates{
			ConnectFail: 0.05,
			Stall:       0.02,
			StallFor:    50 * time.Millisecond,
			Truncate:    0.05,
			Err5xx:      0.08,
			Burst:       2,
		},
	}
}

// TestChaosSoakSCICP is the end-to-end fault soak: a 3-proxy SC-ICP mesh
// under sustained UDP loss/reorder/duplication and origin fault bursts
// must (a) serve every client request with the correct body — failures
// degrade to origin fetches and false hits, never to client errors — and
// (b) reconverge every summary replica to the peer's authoritative filter
// once the faults clear.
func TestChaosSoakSCICP(t *testing.T) {
	leakcheck.Install(t)
	org, err := origin.Start(origin.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { org.Close() })

	base := chaosScenario()
	const nProxies = 3
	var proxies []*Proxy
	var injectors []*faultnet.Injector
	for i := 0; i < nProxies; i++ {
		inj := faultnet.New(base.Fork(int64(i)))
		p, err := Start(Config{
			Mode: ModeSCICP, CacheBytes: 32 << 20,
			Summary:      core.DirectoryConfig{ExpectedDocs: 2000, UpdateThreshold: 0.01},
			QueryTimeout: 300 * time.Millisecond,
			FetchTimeout: 2 * time.Second,
			FetchRetries: 8,
			FetchBackoff: 2 * time.Millisecond,
			// Generous threshold: injected flakiness should exhaust retries
			// and fall back, not amputate siblings mid-soak.
			BreakerThreshold: 10,
			BreakerCooldown:  200 * time.Millisecond,
			Faults:           inj,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		proxies = append(proxies, p)
		injectors = append(injectors, inj)
	}
	for i, p := range proxies {
		for j, q := range proxies {
			if i != j {
				if err := p.AddPeer(q.ICPAddr(), q.URL()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// The soak: a shared working set small enough that sibling hits and
	// summary traffic actually occur, round-robined across the proxies.
	// Every response is checked byte-for-byte against the origin's
	// deterministic document body.
	const (
		docs     = 30
		requests = 240
		docSize  = 2048
	)
	for r := 0; r < requests; r++ {
		p := proxies[r%nProxies]
		path := fmt.Sprintf("chaos/doc%d", r%docs)
		u := origin.DocURL(org.URL(), path, docSize, 0)
		resp, err := http.Get(p.URL() + ProxyPath + "?url=" + url.QueryEscape(u))
		if err != nil {
			t.Fatalf("request %d: client-visible transport error: %v", r, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("request %d: body read: %v", r, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: client-visible status %d: %s", r, resp.StatusCode, body)
		}
		if len(body) != docSize {
			t.Fatalf("request %d: body %d bytes, want %d — a truncated fetch leaked to the client",
				r, len(body), docSize)
		}
	}

	// The injectors must actually have been in the path.
	for i, inj := range injectors {
		if inj.Total() == 0 {
			t.Fatalf("proxy %d: no faults injected — the soak exercised nothing", i)
		}
	}
	var totalRetries uint64
	for _, p := range proxies {
		st := p.Stats()
		if st.ClientRequests != requests/nProxies {
			t.Fatalf("stats lost requests: %+v", st)
		}
		totalRetries += st.Retries
	}
	if totalRetries == 0 {
		t.Fatal("no fetch retries across the whole soak — fault rates not biting")
	}

	// Faults clear. Drain the in-flight delayed datagrams, then resync and
	// require exact replica convergence: for every ordered pair (i,j),
	// proxy i's replica of j equals j's authoritative filter snapshot.
	for _, inj := range injectors {
		inj.SetEnabled(false)
	}
	time.Sleep(base.Inbound.DelayMax + 20*time.Millisecond)
	for _, p := range proxies {
		if err := p.Resync(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for i, p := range proxies {
		for j, q := range proxies {
			if i == j {
				continue
			}
			for {
				snap, ok := p.node.ReplicaSnapshot(q.ICPAddr())
				if ok && bytes.Equal(snap, q.node.Directory().FilterSnapshot()) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("proxy %d's replica of proxy %d never reconverged after faults cleared", i, j)
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
	}
}

// TestChaosDisabledInjectorIsInert: a proxy configured with a disabled
// injector behaves identically to one with none — no faults fire and no
// counters move (the nil/disabled paths the bench passthrough relies on).
func TestChaosDisabledInjectorIsInert(t *testing.T) {
	leakcheck.Install(t)
	org, err := origin.Start(origin.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { org.Close() })
	inj := faultnet.New(chaosScenario())
	inj.SetEnabled(false)
	p, err := Start(Config{
		Mode: ModeNone, CacheBytes: 1 << 20,
		Faults: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	for i := 0; i < 50; i++ {
		u := origin.DocURL(org.URL(), fmt.Sprintf("inert%d", i), 256, 0)
		resp, err := http.Get(p.URL() + ProxyPath + "?url=" + url.QueryEscape(u))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	if inj.Total() != 0 {
		t.Fatalf("disabled injector recorded %d faults", inj.Total())
	}
	if st := p.Stats(); st.Retries != 0 {
		t.Fatalf("retries with disabled injector: %+v", st)
	}
}
