// Quickstart: build a cache-directory summary with a counting Bloom
// filter, ship it to a "peer" as directory-update messages over the wire
// format, and probe the peer's replica — the summary-cache protocol in
// thirty lines.
package main

import (
	"fmt"
	"log"

	"summarycache/internal/bloom"
	"summarycache/internal/core"
	"summarycache/internal/icp"
)

func main() {
	// A proxy summarizes its cache directory with a counting Bloom filter.
	dir, err := core.NewDirectory(core.DirectoryConfig{
		ExpectedDocs:    10_000, // ≈ cache bytes / 8 KB average document
		LoadFactor:      16,     // bits per document (paper's recommendation)
		UpdateThreshold: 0.01,   // publish after 1% of the directory is new
	})
	if err != nil {
		log.Fatal(err)
	}

	// Documents enter and leave the cache; the directory journals bit flips.
	for i := 0; i < 500; i++ {
		dir.Insert(fmt.Sprintf("http://www.example.com/page/%d.html", i))
	}
	dir.Remove("http://www.example.com/page/17.html")

	// Publication: drain the journal into ICP_OP_DIRUPDATE datagrams.
	flips := dir.Drain()
	msgs := icp.SplitUpdate(1, dir.Spec(), uint32(dir.Bits()), flips, 360)
	fmt.Printf("directory of %d docs -> %d bit flips -> %d update datagrams\n",
		dir.Docs(), len(flips), len(msgs))

	// A peer replays the datagrams (possibly reordered or duplicated — the
	// flips are absolute, so that is safe) into its replica.
	peers := core.NewPeerTable()
	for _, m := range msgs {
		wire, err := m.MarshalBinary() // what actually crosses the network
		if err != nil {
			log.Fatal(err)
		}
		decoded, err := icp.Parse(wire)
		if err != nil {
			log.Fatal(err)
		}
		if err := peers.ApplyUpdate("proxyA", &decoded.Update, false); err != nil {
			log.Fatal(err)
		}
	}

	// On a local miss the peer probes replicas before sending any query.
	for _, url := range []string{
		"http://www.example.com/page/42.html", // cached at proxyA
		"http://www.example.com/page/17.html", // was removed
		"http://elsewhere.org/never-seen",     // never cached
	} {
		fmt.Printf("probe %-40s -> candidates %v\n", url, peers.Candidates(url))
	}

	// The economics: one summary costs bits, not a directory.
	fmt.Printf("replica memory: %d bytes for %d documents (%.1f bits/doc)\n",
		peers.MemoryBytes(), dir.Docs(),
		8*float64(peers.MemoryBytes())/float64(dir.Docs()))
	fmt.Printf("analytic false-positive rate at this load: %.4f\n",
		bloom.FalsePositiveRate(dir.Bits(), uint64(dir.Docs()), dir.Spec().FunctionNum))
}
