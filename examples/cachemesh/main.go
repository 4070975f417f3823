// Cachemesh: a live three-proxy summary-cache mesh on loopback. Three
// caching proxies peer via SC-ICP, a synthetic origin serves sized
// documents with injected latency, and a client demonstrates the paper's
// request flows: local miss → origin; sibling's local hit replicated via
// summary → one targeted query → remote hit; document nobody has →
// summaries rule everyone out → zero queries.
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
	org, err := origin.Start(origin.Config{Latency: 100 * time.Millisecond})
	if err != nil {
		log.Fatal(err)
	}
	defer org.Close()
	fmt.Println("origin server:", org.URL(), "(100ms latency per fetch)")

	var proxies []*httpproxy.Proxy
	for i := 0; i < 3; i++ {
		p, err := httpproxy.Start(httpproxy.Config{
			Mode:       httpproxy.ModeSCICP,
			CacheBytes: 64 << 20,
			Summary: core.DirectoryConfig{
				ExpectedDocs: 8000, LoadFactor: 16, UpdateThreshold: 0.01,
			},
			MinUpdateFlips: 1, // demo: propagate summaries immediately
		})
		if err != nil {
			log.Fatal(err)
		}
		defer p.Close()
		proxies = append(proxies, p)
		fmt.Printf("proxy %d: HTTP %s  ICP %v\n", i, p.URL(), p.ICPAddr())
	}
	for i, p := range proxies {
		for j, q := range proxies {
			if i != j {
				if err := p.AddPeer(q.ICPAddr(), q.URL()); err != nil {
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

	doc := origin.DocURL(org.URL(), "popular/story.html", 16384, 0)

	fmt.Println("\n1. proxy 0 fetches the document (cold miss, pays origin latency):")
	fmt.Printf("   latency %v\n", get(proxies[0], doc).Round(time.Millisecond))

	fmt.Println("2. proxy 0 again (local hit, no latency):")
	fmt.Printf("   latency %v\n", get(proxies[0], doc).Round(time.Millisecond))

	// Give the summary update a moment to replicate.
	time.Sleep(150 * time.Millisecond)

	fmt.Println("3. proxy 1 requests it: summary points at proxy 0 → remote hit, no origin fetch:")
	fmt.Printf("   latency %v\n", get(proxies[1], doc).Round(time.Millisecond))

	fmt.Println("4. a document nobody has: summaries rule all peers out → zero ICP queries:")
	before := proxies[2].Stats().Node.QueriesSent
	get(proxies[2], origin.DocURL(org.URL(), "obscure/page.html", 2048, 0))
	fmt.Printf("   ICP queries sent by proxy 2: %d\n", proxies[2].Stats().Node.QueriesSent-before)

	fmt.Println("\nfinal accounting:")
	for i, p := range proxies {
		st := p.Stats()
		fmt.Printf("  proxy %d: reqs=%d localHits=%d remoteHits=%d misses=%d | ICP queries=%d updates=%d\n",
			i, st.ClientRequests, st.LocalHits, st.RemoteHits, st.Misses,
			st.Node.QueriesSent, st.Node.UpdatesSent)
	}
	fmt.Printf("  origin fetches: %d (three user requests for the popular doc cost ONE)\n",
		org.Stats().Requests-1)
}
