package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"summarycache/internal/lru"
	"summarycache/internal/stats"
	"summarycache/internal/tracegen"
)

// smallDoc is the body size of the three single-class workloads: small
// enough that per-request cost, not copying, dominates.
const smallDoc = 1024

// workload is one request class on a live mesh. A value is built per run
// from the seed; setup is then called once per round on a fresh mesh.
type workload struct {
	name string
	mesh meshConfig
	// setup preloads and warms m until the class holds, and returns what the
	// workers send during the window. All of it is charged to setup_s.
	setup func(m *mesh, round int) ([workers]source, error)
	// check asserts the class from the window's counter deltas.
	check func(m *mesh, d counts) error
	// cheLocal is the local hit ratio the Che model predicts for the window.
	cheLocal float64
}

// workloadNames is the order every report uses; the reasons are in
// BENCHMARK.json and the README.
var workloadNames = []string{"local_hit", "remote_hit", "origin_miss", "zipf_mix"}

func scaled(n int, scale float64, floor int) int {
	if v := int(float64(n) * scale); v > floor {
		return v
	}
	return floor
}

func newWorkload(name string, seed int64, scale float64) (*workload, error) {
	switch name {
	case "local_hit":
		return localHit(seed, scale), nil
	case "remote_hit":
		return remoteHit(seed, scale), nil
	case "origin_miss":
		return originMiss(seed, scale), nil
	case "zipf_mix":
		return zipfMix(seed, scale)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// classError reports a window whose requests were not all of the class.
func classError(class string, d counts) error {
	return fmt.Errorf("not all %s: %d requests, %d local hits, %d remote hits, %d misses, %d false hits, %d origin fetches",
		class, d[cRequests], d[cLocalHits], d[cRemoteHits], d[cMisses], d[cFalseHits], d[cOriginFetches])
}

// smallDocs builds n escaped document URLs under a namespace that is new
// for every seed and round.
func smallDocs(m *mesh, seed int64, round int, kind string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = docTarget(m, fmt.Sprintf("s%d/r%d/%s/%d", seed, round, kind, i), smallDoc)
	}
	return out
}

// uniformSources has worker w draw uniformly from targets for proxy w.
func uniformSources(targets []string, seed int64, round int) [workers]source {
	var srcs [workers]source
	for w := range srcs {
		rng := rand.New(rand.NewSource(seed<<8 + int64(round*workers+w)))
		srcs[w] = func() request {
			return request{proxy: w, target: targets[rng.Intn(len(targets))], size: smallDoc}
		}
	}
	return srcs
}

// onePass asks proxy w for every target from worker w.
func onePass(targets []string) [workers][]request {
	var lists [workers][]request
	for w := range lists {
		for _, t := range targets {
			lists[w] = append(lists[w], request{proxy: w, target: t, size: smallDoc})
		}
	}
	return lists
}

// checkedPass replays lists and requires the class of its requests to hold.
func checkedPass(m *mesh, lists [workers][]request, check func(*mesh, counts) error) error {
	before, err := m.snapshot()
	if err != nil {
		return err
	}
	if err := replay(m, lists); err != nil {
		return err
	}
	after, err := m.snapshot()
	if err != nil {
		return err
	}
	return check(m, after.sub(before))
}

func localHit(seed int64, scale float64) *workload {
	w := &workload{
		name:     "local_hit",
		mesh:     meshConfig{cacheBytes: int64(scaled(64<<20, scale, 1<<20)), meanDoc: smallDoc},
		cheLocal: 1, // every document fits, so the model has nothing to evict
	}
	w.check = func(_ *mesh, d counts) error {
		if d[cLocalHits] != d[cRequests] {
			return classError("local hits", d)
		}
		return nil
	}
	w.setup = func(m *mesh, round int) ([workers]source, error) {
		targets := smallDocs(m, seed, round, "hit", scaled(2000, scale, 20))
		if err := replay(m, onePass(targets)); err != nil { // preload P0 and P1
			return [workers]source{}, err
		}
		return uniformSources(targets, seed, round), checkedPass(m, onePass(targets), w.check)
	}
	return w
}

func remoteHit(seed int64, scale float64) *workload {
	w := &workload{
		name:     "remote_hit",
		mesh:     meshConfig{cacheBytes: int64(scaled(64<<20, scale, 1<<20)), meanDoc: smallDoc, singleCopy: true},
		cheLocal: 0, // single-copy sharing: the asked proxies never store the documents
	}
	w.check = func(_ *mesh, d counts) error {
		if d[cRemoteHits] != d[cRequests] || d[cOriginFetches] != 0 {
			return classError("remote hits", d)
		}
		return nil
	}
	w.setup = func(m *mesh, round int) ([workers]source, error) {
		targets := smallDocs(m, seed, round, "remote", scaled(2000, scale, 20))
		// The holders are P2 and P3, each with half of the documents; the
		// workers only ever ask P0 and P1, which single-copy sharing keeps
		// from storing what a sibling serves.
		var preload [workers][]request
		for i, t := range targets {
			k := i % workers
			preload[k] = append(preload[k], request{proxy: workers + k, target: t, size: smallDoc})
		}
		if err := replay(m, preload); err != nil {
			return [workers]source{}, err
		}
		for _, p := range m.proxies {
			p.FlushSummary()
		}
		if err := m.awaitUpdates(); err != nil {
			return [workers]source{}, err
		}
		return uniformSources(targets, seed, round), checkedPass(m, onePass(targets), w.check)
	}
	return w
}

// neverSeen returns a source of URLs that no proxy has been asked for,
// alternating between proxy w and proxy w+2 so that all four insert, evict
// and publish.
func neverSeen(m *mesh, seed int64, round int, kind string, w int) source {
	prefix := docTarget(m, fmt.Sprintf("s%d/r%d/%s/%d/", seed, round, kind, w), smallDoc)
	// docTarget escaped "<path>?size=...": split it so the counter can go
	// between path and query without formatting the whole URL per request.
	cut := strings.Index(prefix, "%3F")
	head, tail := prefix[:cut], prefix[cut:]
	n := 0
	return func() request {
		n++
		return request{proxy: w + workers*(n%2), target: head + strconv.Itoa(n) + tail, size: smallDoc}
	}
}

func originMiss(seed int64, scale float64) *workload {
	w := &workload{
		name:     "origin_miss",
		mesh:     meshConfig{cacheBytes: int64(scaled(8<<20, scale, 64<<10)), meanDoc: smallDoc},
		cheLocal: 0, // no document is asked for twice
	}
	w.check = func(_ *mesh, d counts) error {
		// A Bloom false positive costs a wasted query and is counted as a
		// false hit as well as a miss; the request still ends at the origin.
		if d[cLocalHits] != 0 || d[cRemoteHits] != 0 || d[cMisses] != d[cRequests] || d[cOriginFetches] != d[cRequests] {
			return classError("origin misses", d)
		}
		return nil
	}
	w.setup = func(m *mesh, round int) ([workers]source, error) {
		// Fill every cache past its capacity (a tenth more, so both lock
		// stripes of the document cache are full), then require that each
		// further insert displaces exactly one document.
		perProxy := int(w.mesh.cacheBytes/smallDoc) * 11 / 10
		var fill [workers][]request
		for i := range fill {
			src := neverSeen(m, seed, round, "fill", i)
			for n := 0; n < 2*perProxy; n++ {
				fill[i] = append(fill[i], src())
			}
		}
		if err := replay(m, fill); err != nil {
			return [workers]source{}, err
		}
		var srcs [workers]source
		var warm [workers][]request
		for i := range srcs {
			srcs[i] = neverSeen(m, seed, round, "miss", i)
			for n := 0; n < 100; n++ {
				warm[i] = append(warm[i], srcs[i]())
			}
		}
		full := func(m *mesh, d counts) error {
			if d[cEvictions] != d[cRequests] {
				return fmt.Errorf("caches not full after preload: %d inserts displaced %d documents", d[cRequests], d[cEvictions])
			}
			return w.check(m, d)
		}
		return srcs, checkedPass(m, warm, full)
	}
	return w
}

// corpusSize is the body size of document doc of the zipf_mix corpus: the
// default Pareto of the trace generator, laid over the popularity ranks by a
// low-discrepancy sequence. The corpus is the same for every seed — the seed
// draws the request sequence — because with Zipf popularity and a heavy tail
// the sizes of the few most popular documents decide the bytes moved per
// request, and redrawing them moves every metric by more than any change to
// the program would.
func corpusSize(doc int) int64 {
	p := stats.DefaultPareto
	_, u := math.Modf(float64(doc+1) * 0.6180339887498949)
	trunc := 1 - math.Pow(p.Min/p.Max, p.Alpha)
	return int64(p.Min / math.Pow(1-u*trunc, 1/p.Alpha))
}

func zipfMix(seed int64, scale float64) (*workload, error) {
	cfg := tracegen.Config{
		Seed: seed, Requests: scaled(400000, scale, 4000),
		Clients: 64, Groups: meshProxies,
		Docs: scaled(40000, scale, 400), ZipfAlpha: 0.8,
		SharedFraction: 1, // one shared universe: an IRM stream at every proxy
	}
	reqs, err := tracegen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	// Client-bound onto the four proxies; worker 0 replays the streams of
	// P0 and P1 and worker 1 those of P2 and P3, each in trace order.
	type ref struct{ proxy, doc int }
	var queues [workers][]ref
	seen := make([]bool, cfg.Docs)
	for _, r := range reqs {
		i := strings.LastIndex(r.URL, "/doc")
		doc, err := strconv.Atoi(strings.TrimSuffix(r.URL[i+len("/doc"):], ".html"))
		if err != nil || doc >= cfg.Docs {
			return nil, fmt.Errorf("trace URL %q names no document of the corpus", r.URL)
		}
		seen[doc] = true
		proxy := r.Group(meshProxies)
		w := proxy * workers / meshProxies
		queues[w] = append(queues[w], ref{proxy, doc})
	}
	sizes := make([]int64, cfg.Docs)
	var distinctBytes, cacheableBytes, cacheable int64
	for doc := range sizes {
		sizes[doc] = corpusSize(doc)
		if seen[doc] {
			distinctBytes += sizes[doc]
			if sizes[doc] <= lru.DefaultMaxObjectSize {
				cacheableBytes += sizes[doc]
				cacheable++
			}
		}
	}
	w := &workload{
		name: "zipf_mix",
		mesh: meshConfig{
			cacheBytes: distinctBytes / 10, // per proxy: a tenth of the trace's distinct bytes
			meanDoc:    cacheableBytes / cacheable,
			persist:    true,
		},
	}
	// Under simple sharing every proxy's cache is plain LRU over its own
	// clients' stream, which has the trace's popularity law.
	pop := stats.MustNewZipf(cfg.Docs, cfg.ZipfAlpha)
	var prob []float64
	var size []int64
	for doc, s := range sizes {
		if s <= lru.DefaultMaxObjectSize {
			prob = append(prob, pop.Prob(doc))
			size = append(size, s)
		}
	}
	w.cheLocal = cheHitRatio(prob, size, w.mesh.cacheBytes)

	w.check = func(m *mesh, d counts) error {
		for i, p := range m.proxies {
			if docs, cached := p.MeshReport().Local.DirectoryDocs, p.CacheLen(); int(docs) != cached {
				return fmt.Errorf("proxy %d: directory summarizes %d documents, cache holds %d", i, docs, cached)
			}
		}
		return nil
	}
	w.setup = func(m *mesh, round int) ([workers]source, error) {
		targets := make([]string, cfg.Docs)
		for doc := range targets {
			targets[doc] = docTarget(m, fmt.Sprintf("s%d/r%d/doc%d", seed, round, doc), sizes[doc])
		}
		var srcs [workers]source
		for i := range srcs {
			q := queues[i]
			next := len(q) * round / rounds // every round replays its own stretch of the trace
			srcs[i] = func() request {
				r := q[next%len(q)]
				next++
				return request{proxy: r.proxy, target: targets[r.doc], size: sizes[r.doc]}
			}
		}
		// Warm up in trace order until every cache has filled, then for as
		// long again so that the LRU order has settled.
		chunk := scaled(2000, scale, 200)
		warmChunk := func() error {
			var lists [workers][]request
			for i := range lists {
				for n := 0; n < chunk; n++ {
					lists[i] = append(lists[i], srcs[i]())
				}
			}
			return replay(m, lists)
		}
		filled := func() bool {
			for _, p := range m.proxies {
				if p.MeshReport().Local.CacheBytes < w.mesh.cacheBytes*8/10 {
					return false
				}
			}
			return true
		}
		chunks := 0
		for ; !filled(); chunks++ {
			if chunks*chunk > len(queues[0]) {
				return srcs, fmt.Errorf("caches not full after replaying the whole trace")
			}
			if err := warmChunk(); err != nil {
				return srcs, err
			}
		}
		for ; chunks > 0; chunks-- {
			if err := warmChunk(); err != nil {
				return srcs, err
			}
		}
		return srcs, nil
	}
	return w, nil
}
