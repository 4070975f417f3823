package httpproxy

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"summarycache/internal/bloom"
	"summarycache/internal/faultnet"
	"summarycache/internal/origin"
	"summarycache/internal/sim"
	"summarycache/internal/trace"
)

// e2eAvgDocBytes / e2eEntries pin the live and offline Bloom geometries to
// the same filter: sim sizes its filter from CacheBytes/AvgDocBytes
// entries, the live directory from ExpectedDocs — both through
// bloom.SizeForLoadFactor with the default load factor and hash family.
const (
	e2eAvgDocBytes = 8192
	e2eEntries     = 16
	e2eCacheBytes  = e2eEntries * e2eAvgDocBytes
)

// e2eTrace builds the seeded workload: a Zipf-skewed stream over a doc
// universe larger than one cache (eviction pressure → nonzero false
// decisions), with per-doc version bumps (stale local and remote hits).
// The returned requests carry the *live cache key* as URL, so the offline
// replay hashes exactly the strings the live summaries hash. salt names
// the documents: which keys collide in the Bloom filters depends on the
// whole URL, origin port included, so the caller picks a salt under which
// the trace exercises the taxonomy.
func e2eTrace(originURL string, n, salt int) []trace.Request {
	rng := rand.New(rand.NewSource(42))
	zipf := rand.NewZipf(rng, 1.05, 1, 119)
	counts := make(map[int]int)
	reqs := make([]trace.Request, 0, n)
	for i := 0; i < n; i++ {
		d := int(zipf.Uint64())
		counts[d]++
		version := int64(1 + counts[d]/6)
		size := int64(2048 + (d%5)*1024)
		key, _ := splitVersion(origin.DocURL(originURL, fmt.Sprintf("s%d/doc%02d", salt, d), size, version))
		reqs = append(reqs, trace.Request{
			Time:    int64(i),
			Client:  rng.Intn(3),
			URL:     key,
			Size:    size,
			Version: version,
		})
	}
	return reqs
}

// liveCounts aggregates the mesh-wide decision taxonomy.
type liveCounts struct {
	localHits, remoteHits, falseHits, falseMisses, staleHits, localStale uint64
}

func (c liveCounts) String() string {
	return fmt.Sprintf("local=%d remote=%d false_hits=%d false_misses=%d stale_hits=%d local_stale=%d",
		c.localHits, c.remoteHits, c.falseHits, c.falseMisses, c.staleHits, c.localStale)
}

// TestE2EClassificationMatchesSim replays one seeded trace through BOTH a
// live 3-proxy SC-ICP mesh (riding the faultnet harness with a zero-fault
// scenario, so the injected transport layer is in the path but silent) and
// internal/sim's offline engine with identical filter geometry, then
// checks the live false-decision accounting against the simulator's ground
// truth.
//
// The two engines share the lru package, the hash family, the filter size,
// and — because the trace URLs are the live cache keys — the exact hash
// inputs, so after each request the mesh is driven to convergence
// (FlushSummary + update-count equality) to make replicas bit-identical to
// the simulator's. Both sides publish under the same rule, with the floor
// at one flip. Residual divergence is inherent and bounded: the live mesh
// serves the earliest-registered peer that answers HIT, and its ICP answers
// are version-blind, so a stale copy can win where the simulator prefers a
// fresh one; and the false-miss audit only runs on rounds with no ICP HIT.
// Hence tolerances, not equality.
func TestE2EClassificationMatchesSim(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e comparison is slow")
	}
	org, err := origin.Start(origin.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { org.Close() })
	// Offline ground truth. The trace must exercise the taxonomy, or the
	// comparison below is vacuous; whether the simulator sees a Bloom false
	// hit depends on the origin's ephemeral port, so take the first salt
	// (of a bounded set) under which stale, local-stale and false hits all
	// occur for this origin.
	var reqs []trace.Request
	var simRes sim.Result
	for salt := 0; ; salt++ {
		if salt == 64 {
			t.Fatalf("no salt makes the seeded trace exercise the taxonomy; last: %+v", simRes)
		}
		reqs = e2eTrace(org.URL(), 400, salt)
		simRes, err = sim.Run(sim.Config{
			NumProxies: 3,
			CacheBytes: e2eCacheBytes,
			Scheme:     sim.SimpleSharing,
			Summary: sim.SummaryConfig{
				Kind:        sim.Bloom,
				AvgDocBytes: e2eAvgDocBytes,
				Directory:   bloom.DirectoryConfig{UpdateThreshold: 0.01, MinPending: 1},
			},
		}, reqs)
		if err != nil {
			t.Fatal(err)
		}
		if simRes.RemoteStaleHits > 0 && simRes.LocalStale > 0 && simRes.FalseHits > 0 {
			break
		}
	}

	// Live mesh.
	var proxies []*Proxy
	for i := 0; i < 3; i++ {
		p, err := Start(Config{
			Mode:                ModeSCICP,
			CacheBytes:          e2eCacheBytes,
			VersionAware:        true,
			FalseMissAuditEvery: 1,
			Summary: bloom.DirectoryConfig{
				ExpectedDocs:    e2eEntries,
				UpdateThreshold: 0.01,
				MinPending:      1,
			},
			QueryTimeout: 2 * time.Second,
			Faults:       faultnet.New(faultnet.Scenario{}), // harness in path, zero faults
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		proxies = append(proxies, p)
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
	m := &mesh{origin: org, proxies: proxies}

	converge := func() {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			var sent, recv uint64
			for _, p := range proxies {
				st := p.Stats().Node
				sent += st.UpdatesSent
				recv += st.UpdatesReceived
			}
			if sent == recv {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatal("mesh did not converge")
	}

	for _, r := range reqs {
		p := proxies[r.Group(3)]
		// r.URL is the version-stripped cache key (…?size=N); re-attach
		// the wanted version to form the client's target.
		u := fmt.Sprintf("%s&%s=%d", r.URL, versionParam, r.Version)
		m.fetch(t, p, u)
		// Publish everything pending (the simulator drains eviction clear
		// flips at insert time; the live node defers them), then wait for
		// every update to land before the next request.
		for _, q := range proxies {
			q.FlushSummary()
		}
		converge()
	}

	var live liveCounts
	for _, p := range proxies {
		st := p.Stats()
		live.localHits += st.LocalHits
		live.remoteHits += st.RemoteHits
		live.falseHits += st.FalseHits
		live.falseMisses += st.Node.FalseMisses
		live.staleHits += st.StaleHits
		live.localStale += st.LocalStale
	}
	t.Logf("live: %v", live)
	t.Logf("sim:  local=%d remote=%d false_hits=%d false_misses=%d stale_hits=%d local_stale=%d",
		simRes.LocalHits, simRes.RemoteHits, simRes.FalseHits, simRes.FalseMisses,
		simRes.RemoteStaleHits, simRes.LocalStale)

	within := func(name string, got, want uint64) {
		t.Helper()
		diff := got - want
		if want > got {
			diff = want - got
		}
		mx := max(got, want)
		limit := max(6, (mx+1)/2) // ±50%, floor of 6 events
		if diff > limit {
			t.Errorf("%s: live %d vs sim %d differ by %d (limit %d)", name, got, want, diff, limit)
		}
	}
	within("false hits", live.falseHits, simRes.FalseHits)
	within("false misses", live.falseMisses, simRes.FalseMisses)
	within("stale hits", live.staleHits, simRes.RemoteStaleHits)
	within("local stale", live.localStale, simRes.LocalStale)
	within("local hits", live.localHits, simRes.LocalHits)
	within("remote hits", live.remoteHits, simRes.RemoteHits)
}
