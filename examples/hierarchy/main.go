// Hierarchy: a two-level cache hierarchy on loopback — two SC-ICP sibling
// children under a shared parent proxy (the §VIII configuration) — plus
// the paper's §V-E recommended-configuration calculator.
package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"time"

	"summarycache/internal/core"
	"summarycache/internal/httpproxy"
	"summarycache/internal/origin"
)

func main() {
	// What would the paper configure for an 8 GB proxy? (§V-E/§V-F.)
	rec, err := core.Recommend(8<<30, 8192, 100, 0.5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("paper-recommended configuration for an 8 GB proxy:")
	fmt.Println(" ", rec)
	fmt.Println()

	org, err := origin.Start(origin.Config{Latency: 80 * time.Millisecond})
	if err != nil {
		log.Fatal(err)
	}
	defer org.Close()

	parent, err := httpproxy.Start(httpproxy.Config{
		Mode: httpproxy.ModeNone, CacheBytes: 128 << 20,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer parent.Close()
	fmt.Println("parent proxy:", parent.URL())

	var children []*httpproxy.Proxy
	for i := 0; i < 2; i++ {
		c, err := httpproxy.Start(httpproxy.Config{
			Mode:       httpproxy.ModeSCICP,
			CacheBytes: 32 << 20,
			Summary:    core.DirectoryConfig{ExpectedDocs: 4000, UpdateThreshold: 0.01},
			ParentURL:  parent.URL(),
		})
		if err != nil {
			log.Fatal(err)
		}
		defer c.Close()
		children = append(children, c)
		fmt.Printf("child %d: %s (sibling via SC-ICP, misses via parent)\n", i, c.URL())
	}
	for i, c := range children {
		for j, d := range children {
			if i != j {
				if err := c.AddPeer(d.ICPAddr(), d.URL()); err != nil {
					log.Fatal(err)
				}
			}
		}
	}

	get := func(p *httpproxy.Proxy, target string) time.Duration {
		start := time.Now()
		resp, err := http.Get(p.URL() + httpproxy.ProxyPath + "?url=" + url.QueryEscape(target))
		if err != nil {
			log.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return time.Since(start)
	}

	docA := origin.DocURL(org.URL(), "dept-a/handbook.html", 30000, 0)
	docB := origin.DocURL(org.URL(), "dept-b/schedule.html", 12000, 0)

	fmt.Println("\n1. child 0 fetches doc A: miss everywhere → parent → origin:")
	fmt.Printf("   %v (pays origin latency once; parent now caches A)\n",
		get(children[0], docA).Round(time.Millisecond))

	fmt.Println("2. child 1 fetches doc B the same way:")
	fmt.Printf("   %v\n", get(children[1], docB).Round(time.Millisecond))

	fmt.Println("3. child 1 fetches doc A: its cache misses, sibling summary may still")
	fmt.Println("   be in flight, but the PARENT serves it without touching the origin:")
	fmt.Printf("   %v\n", get(children[1], docA).Round(time.Millisecond))

	fmt.Printf("\norigin requests: %d (three user fetches, two origin round-trips)\n",
		org.Stats().Requests)
	ps := parent.Stats()
	fmt.Printf("parent: %d requests from children, %d local hits\n",
		ps.ClientRequests, ps.LocalHits)
}
