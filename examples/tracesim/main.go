// Tracesim: drive the trace-driven simulator on a synthetic DEC-like
// workload and print the paper's headline comparison — cache sharing's hit
// ratio benefit (Fig. 1) and summary cache's message economy versus ICP
// (Figs. 5–7) — from one program.
package main

import (
	"fmt"
	"log"

	"summarycache/internal/bloom"
	"summarycache/internal/experiments"
	"summarycache/internal/sim"
	"summarycache/internal/tracegen"
)

func main() {
	fmt.Println("generating a DEC-like trace (16 proxy groups)...")
	ts, err := experiments.Load(tracegen.DEC, 0.25)
	if err != nil {
		log.Fatal(err)
	}
	st := ts.Stats
	fmt.Printf("  %d requests, %d clients, %d unique docs, infinite cache %.1f MB\n\n",
		st.Requests, st.Clients, st.UniqueDocs, float64(st.InfiniteCacheSize)/(1<<20))

	run := func(scheme sim.Scheme, kind sim.SummaryKind, lf float64) sim.Result {
		r, err := sim.Run(sim.Config{
			NumProxies: ts.Groups,
			CacheBytes: ts.CacheBytesPerProxy(0.10),
			Scheme:     scheme,
			Summary: sim.SummaryConfig{
				Kind: kind, AvgDocBytes: ts.AvgDocBytes,
				Directory: bloom.DirectoryConfig{UpdateThreshold: 0.01, LoadFactor: lf},
			},
		}, ts.Requests)
		if err != nil {
			log.Fatal(err)
		}
		return r
	}

	fmt.Println("benefit of sharing (cache = 10% of infinite):")
	noShare := run(sim.NoSharing, sim.Oracle, 0)
	shared := run(sim.SimpleSharing, sim.Oracle, 0)
	global := run(sim.GlobalCache, sim.Oracle, 0)
	fmt.Printf("  no sharing:     %5.1f%% hit ratio\n", 100*noShare.HitRatio())
	fmt.Printf("  simple sharing: %5.1f%% hit ratio (remote hits %4.1f%%)\n",
		100*shared.HitRatio(), 100*float64(shared.RemoteHits)/float64(shared.Requests))
	fmt.Printf("  global cache:   %5.1f%% hit ratio\n\n", 100*global.HitRatio())

	fmt.Println("protocol cost of discovering those remote hits:")
	icp := run(sim.SimpleSharing, sim.ICP, 0)
	blm := run(sim.SimpleSharing, sim.Bloom, 8)
	fmt.Printf("  ICP:          %6.3f msgs/req, %6.1f bytes/req, hit %5.1f%%\n",
		icp.MessagesPerRequest(), icp.BytesPerRequest(), 100*icp.HitRatio())
	fmt.Printf("  summary cache: %6.3f msgs/req, %6.1f bytes/req, hit %5.1f%% (bloom lf=8)\n",
		blm.MessagesPerRequest(), blm.BytesPerRequest(), 100*blm.HitRatio())
	fmt.Printf("  reduction:     %.0fx fewer messages, %.0f%% fewer bytes, %.2f%% hit ratio given up\n",
		icp.MessagesPerRequest()/blm.MessagesPerRequest(),
		100*(1-blm.BytesPerRequest()/icp.BytesPerRequest()),
		100*(icp.HitRatio()-blm.HitRatio()))
	fmt.Printf("  summary memory: %.2f%% of cache size per peer (vs %.1f MB cache)\n",
		100*float64(blm.SummaryMemoryBytes)/float64(blm.Config.CacheBytes),
		float64(blm.Config.CacheBytes)/(1<<20))
}
