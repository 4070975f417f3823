package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"time"

	"summarycache/internal/bloom"
	"summarycache/internal/core"
	"summarycache/internal/hashing"
	"summarycache/internal/httpproxy"
	"summarycache/internal/icp"
	"summarycache/internal/lru"
	"summarycache/internal/persist"
)

// The isolated probes time one public call of one layer, with nothing else
// running. They do not depend on the workload or on the seed's request
// order; a run makes them once.

const (
	probeKeys  = 1 << 16 // distinct URLs a probe cycles through
	probeDocs  = 8192    // documents in a probed cache, directory or replica
	probeFlips = 300     // flips per probed DIRUPDATE, near the 360 that fill a packet
)

// prober carries what the probes share.
type prober struct {
	d    time.Duration // time budget of one probe
	keys []string
	out  metrics
}

// runProbes writes every isolated per-layer metric into out. Each probe
// runs for a second at scale 1.
func runProbes(scale float64, out metrics) error {
	p := &prober{d: time.Duration(scaled(int(time.Second), scale, int(5*time.Millisecond))), out: out}
	p.keys = make([]string, probeKeys)
	for i := range p.keys {
		p.keys[i] = fmt.Sprintf("http://s%d.example.com/doc%d.html", i/10, i)
	}
	p.hashing()
	if err := p.bloom(); err != nil {
		return err
	}
	if err := p.lru(scale); err != nil {
		return err
	}
	if err := p.core(); err != nil {
		return err
	}
	if err := p.icp(); err != nil {
		return err
	}
	if err := p.persist(scale); err != nil {
		return err
	}
	return p.http()
}

// timeOp calls op(0), op(1), ... for about d, reading the clock once per
// batch calls, and returns the median ns per call of five equal parts.
func timeOp(d time.Duration, batch int, op func(i int)) float64 {
	const parts = 5
	var ns []float64
	i := 0
	for part := 0; part < parts; part++ {
		n := 0
		start := time.Now()
		for time.Since(start) < d/parts {
			for k := 0; k < batch; k++ {
				op(i)
				i++
			}
			n += batch
		}
		ns = append(ns, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return median(ns)
}

func (p *prober) key(i int) string { return p.keys[i&(probeKeys-1)] }

func (p *prober) hashing() {
	fam := hashing.MustNew(hashing.DefaultSpec)
	dst := make([]uint64, hashing.DefaultSpec.FunctionNum)
	p.out.put("hashing.indexes_ns", timeOp(p.d, 256, func(i int) {
		_, _ = fam.IndexesInto(dst, p.key(i), 1<<20) // cannot fail: dst is long enough and m > 0
	}), "ns")
}

// flipPair returns probeFlips set-flips of distinct random bits below bits
// and the clear-flips that undo them, so that applying the two in turn
// changes every bit every time.
func flipPair(bits uint64) (set, clear []bloom.Flip) {
	rng := rand.New(rand.NewSource(1))
	for _, idx := range rng.Perm(int(bits))[:probeFlips] {
		set = append(set, bloom.Flip{Index: uint32(idx), Set: true})
		clear = append(clear, bloom.Flip{Index: uint32(idx)})
	}
	return set, clear
}

func (p *prober) bloom() error {
	bits := bloom.SizeForLoadFactor(probeDocs, 16)
	f, err := bloom.NewFilter(bits, hashing.DefaultSpec)
	if err != nil {
		return err
	}
	for i := 0; i < probeDocs; i++ {
		f.Add(p.key(i))
	}
	p.out.put("bloom.test_ns", timeOp(p.d, 256, func(i int) { f.Test(p.key(i)) }), "ns")

	set, clear := flipPair(bits)
	var applyErr error
	p.out.put("bloom.apply_ns_per_flip", timeOp(p.d, 2, func(i int) {
		flips := set
		if i%2 == 1 {
			flips = clear
		}
		if err := f.Apply(flips); err != nil {
			applyErr = err
		}
	})/probeFlips, "ns")
	if applyErr != nil {
		return applyErr
	}

	cf, err := bloom.NewCountingFilter(bits, 4, hashing.DefaultSpec)
	if err != nil {
		return err
	}
	add, remove := addRemove(p.d, probeDocs/2,
		func(i int) { cf.Add(p.key(i), nil) },
		func(i int) { cf.Remove(p.key(i), nil) }, nil)
	p.out.put("bloom.counting_add_ns", add, "ns")
	p.out.put("bloom.counting_remove_ns", remove, "ns")
	return nil
}

// addRemove alternates n adds, n removes of the same items and then after
// (which may be nil) for about d, and returns the median ns per add and per
// remove. Adding before removing keeps a counting structure honest: nothing
// is removed that was not added, and nothing saturates.
func addRemove(d time.Duration, n int, add, remove func(i int), after func()) (addNS, removeNS float64) {
	var adds, removes []float64
	for start := time.Now(); len(adds) < 3 || time.Since(start) < d; {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			add(i)
		}
		t1 := time.Now()
		for i := 0; i < n; i++ {
			remove(i)
		}
		t2 := time.Now()
		adds = append(adds, float64(t1.Sub(t0).Nanoseconds())/float64(n))
		removes = append(removes, float64(t2.Sub(t1).Nanoseconds())/float64(n))
		if after != nil {
			after()
		}
	}
	return median(adds), median(removes)
}

// fullCache returns a cache holding probeDocs 1 KiB entries, at capacity.
func fullCache(p *prober, shards int) (*lru.Cache, error) {
	c, err := lru.NewCache(lru.Config{Capacity: probeDocs * smallDoc, Shards: shards})
	if err != nil {
		return nil, err
	}
	for i := 0; i < probeDocs; i++ {
		c.Put(lru.Entry{Key: p.key(i), Size: smallDoc})
	}
	return c, nil
}

// parallelGets is the rate of Gets from one goroutine per worker, in Mops/s.
func parallelGets(p *prober, c *lru.Cache) float64 {
	var wg sync.WaitGroup
	var ops [workers]int
	start := time.Now()
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := g * 4099; time.Since(start) < p.d; {
				for k := 0; k < 256; k++ {
					c.Get(p.keys[n&(probeDocs-1)])
					n++
				}
				ops[g] += 256
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, n := range ops {
		total += n
	}
	return float64(total) / time.Since(start).Seconds() / 1e6
}

func (p *prober) lru(scale float64) error {
	for _, v := range []struct {
		suffix string
		shards int
	}{{"", 0}, {"_1shard", 1}} { // 0: the default, one stripe per GOMAXPROCS
		c, err := fullCache(p, v.shards)
		if err != nil {
			return err
		}
		p.out.put("lru.get_ns"+v.suffix, timeOp(p.d, 256, func(i int) { c.Get(p.keys[i&(probeDocs-1)]) }), "ns")
		p.out.put("lru.get_par_mops"+v.suffix, parallelGets(p, c), "Mops/s")
	}
	c, err := fullCache(p, 0)
	if err != nil {
		return err
	}
	// The key ring is eight times the capacity, so a key comes round again
	// long after it was evicted: every Put inserts and displaces one entry.
	p.out.put("lru.put_evict_ns", timeOp(p.d, 256, func(i int) {
		c.Put(lru.Entry{Key: p.key(i + probeDocs), Size: smallDoc})
	}), "ns")

	entries := make([]lru.Entry, scaled(50000, scale, 500))
	for i := range entries {
		entries[i] = lru.Entry{Key: p.key(i), Size: smallDoc}
	}
	var rates []float64
	for n := 0; n < 3; n++ {
		start := time.Now()
		fresh, err := lru.NewCache(lru.Config{Capacity: 2 * int64(len(entries)) * smallDoc})
		if err != nil {
			return err
		}
		if stored, _ := fresh.Restore(entries); stored != len(entries) {
			return fmt.Errorf("lru.Restore kept %d of %d entries", stored, len(entries))
		}
		rates = append(rates, float64(len(entries))/time.Since(start).Seconds())
	}
	p.out.put("lru.restore_entries_per_s", median(rates), "1/s")
	return nil
}

// replicaOf returns the full-state update a directory of probeDocs
// documents would ship.
func replicaOf(p *prober, offset int) (*icp.DirUpdate, error) {
	dir, err := core.NewDirectory(core.DirectoryConfig{ExpectedDocs: probeDocs})
	if err != nil {
		return nil, err
	}
	for i := 0; i < probeDocs; i++ {
		dir.Insert(p.key(offset + i))
	}
	return &icp.DirUpdate{Spec: dir.Spec(), Bits: uint32(dir.Bits()), Flips: dir.SnapshotFlips()}, nil
}

func (p *prober) core() error {
	pt := core.NewPeerTable()
	var bits uint64
	for peer := 0; peer < meshProxies-1; peer++ {
		u, err := replicaOf(p, peer*probeDocs)
		if err != nil {
			return err
		}
		if err := pt.ApplyUpdate(fmt.Sprintf("127.0.0.1:%d", 4000+peer), u, true); err != nil {
			return err
		}
		bits = uint64(u.Bits)
	}
	p.out.put("core.probe_all_ns", timeOp(p.d, 64, func(i int) { pt.ProbeAll(p.key(i)) }), "ns")

	set, clear := flipPair(bits)
	var applyErr error
	p.out.put("core.apply_update_ns_per_flip", timeOp(p.d, 2, func(i int) {
		u := &icp.DirUpdate{Spec: hashing.DefaultSpec, Bits: uint32(bits), Flips: set}
		if i%2 == 1 {
			u.Flips = clear
		}
		if err := pt.ApplyUpdate("127.0.0.1:4000", u, false); err != nil {
			applyErr = err
		}
	})/probeFlips, "ns")
	if applyErr != nil {
		return applyErr
	}

	dir, err := core.NewDirectory(core.DirectoryConfig{ExpectedDocs: probeDocs})
	if err != nil {
		return err
	}
	var drains []float64
	insert, remove := addRemove(p.d, probeDocs/2,
		func(i int) { dir.Insert(p.key(i)) },
		func(i int) { dir.Remove(p.key(i)) },
		func() {
			start := time.Now()
			flips := dir.Drain()
			drains = append(drains, float64(time.Since(start).Nanoseconds())/float64(len(flips)))
		})
	p.out.put("core.dir_insert_ns", insert, "ns")
	p.out.put("core.dir_remove_ns", remove, "ns")
	p.out.put("core.dir_drain_ns_per_flip", median(drains), "ns")
	return p.lookup()
}

// lookup times Node.Lookup on a pair of nodes: one that holds probeDocs
// documents and has published them, and one that asks.
func (p *prober) lookup() error {
	held := make(map[string]bool, probeDocs)
	for i := 0; i < probeDocs; i++ {
		held[p.key(i)] = true
	}
	var nodes [2]*core.Node
	for i := range nodes {
		n, err := core.NewNode(core.NodeConfig{
			ListenAddr:  "127.0.0.1:0",
			Directory:   core.DirectoryConfig{ExpectedDocs: probeDocs},
			HasDocument: func(u string) bool { return i == 1 && held[u] },
		})
		if err != nil {
			return err
		}
		defer n.Close()
		nodes[i] = n
	}
	asker, holder := nodes[0], nodes[1]
	if err := asker.AddPeer(holder.Addr()); err != nil {
		return err
	}
	if err := holder.AddPeer(asker.Addr()); err != nil {
		return err
	}
	for i := 0; i < probeDocs; i++ {
		holder.HandleInsert(p.key(i))
	}
	holder.PublishNow()
	replica := asker.PeerSummaries()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		ready := true
		for i := 0; i < probeDocs && ready; i++ {
			ready = len(replica.Candidates(p.key(i))) > 0
		}
		if ready {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("lookup probe: the asker's replica never held every published document")
		}
	}
	var absent []string // URLs the replica rules out, so that no query is sent
	for i := probeDocs; len(absent) < 1024; i++ {
		if len(replica.Candidates(p.key(i))) == 0 {
			absent = append(absent, p.key(i))
		}
	}
	ctx := context.Background()
	var lookupErr error
	p.out.put("core.lookup_hit_us", timeOp(p.d, 16, func(i int) {
		if from, _, err := asker.Lookup(ctx, p.keys[i&(probeDocs-1)]); err != nil || from == nil {
			lookupErr = fmt.Errorf("lookup probe: a held document was not found (%v)", err)
		}
	})/1e3, "us")
	p.out.put("core.lookup_ruled_out_ns", timeOp(p.d, 64, func(i int) {
		if _, candidates, err := asker.Lookup(ctx, absent[i&1023]); err != nil || candidates != 0 {
			lookupErr = fmt.Errorf("lookup probe: a ruled-out document was queried for (%v)", err)
		}
	}), "ns")
	return lookupErr
}

func (p *prober) icp() error {
	query := icp.NewQuery(7, p.key(0))
	set, _ := flipPair(bloom.SizeForLoadFactor(probeDocs, 16))
	update := icp.NewDirUpdate(7, hashing.DefaultSpec, uint32(bloom.SizeForLoadFactor(probeDocs, 16)), set)
	buf := make([]byte, 0, icp.MaxDatagram)
	var dec icp.Decoder
	var codecErr error
	for _, v := range []struct {
		name string
		msg  icp.Message
	}{{"query", query}, {"dirupdate", update}} {
		p.out.put("icp.encode_"+v.name+"_ns", timeOp(p.d, 64, func(int) {
			if _, err := v.msg.Append(buf[:0]); err != nil {
				codecErr = err
			}
		}), "ns")
		wire, err := v.msg.Append(nil)
		if err != nil {
			return err
		}
		p.out.put("icp.decode_"+v.name+"_ns", timeOp(p.d, 64, func(int) {
			if _, err := dec.Decode(wire); err != nil {
				codecErr = err
			}
		}), "ns")
	}
	if codecErr != nil {
		return codecErr
	}

	var answerer *icp.Conn
	answerer, err := icp.ListenWith("127.0.0.1:0", icp.ListenConfig{Handler: func(from *net.UDPAddr, m icp.Message) {
		if m.Op == icp.OpQuery {
			_ = answerer.Send(from, icp.NewReply(icp.OpHit, m.ReqNum, m.URL)) // a lost reply shows as a query error below
		}
	}})
	if err != nil {
		return err
	}
	defer answerer.Close()
	answerer.Start()
	asker, err := icp.Listen("127.0.0.1:0", nil)
	if err != nil {
		return err
	}
	defer asker.Close()
	asker.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 10*p.d+time.Second)
	defer cancel()
	var netErr error
	p.out.put("icp.query_rtt_us", timeOp(p.d, 16, func(i int) {
		if _, err := asker.Query(ctx, answerer.Addr(), p.key(i)); err != nil {
			netErr = err
		}
	})/1e3, "us")
	// The answerer ignores updates, so these two time the sending side only.
	p.out.put("icp.send_ns", timeOp(p.d, 16, func(int) {
		if err := asker.Send(answerer.Addr(), update); err != nil {
			netErr = err
		}
	}), "ns")
	p.out.put("icp.send_async_ns", timeOp(p.d, 16, func(int) {
		if err := asker.SendAsync(answerer.Addr(), update); err != nil {
			netErr = err
		}
	}), "ns")
	return netErr
}

func (p *prober) persist(scale float64) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	root, err := os.MkdirTemp(outDir, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	for _, policy := range []persist.FsyncPolicy{persist.FsyncNever, persist.FsyncInterval, persist.FsyncAlways} {
		st, err := persist.Open(persist.Config{Dir: filepath.Join(root, string(policy)), Fsync: policy})
		if err != nil {
			return err
		}
		if _, err := st.Recover(); err != nil {
			_ = st.Close() // the recover error is the one to report
			return err
		}
		var appendErr error
		ns := timeOp(p.d, 1, func(i int) {
			if err := st.AppendInsert(p.key(i), smallDoc, 0); err != nil {
				appendErr = err
			}
		})
		if err := st.Close(); err != nil {
			return err
		}
		if appendErr != nil {
			return appendErr
		}
		p.out.put("persist.append_ns."+string(policy), ns, "ns")
	}

	body := make([]byte, smallDoc)
	data := persist.SnapshotData{Entries: make([]lru.Entry, scaled(50000, scale, 500))}
	for i := range data.Entries {
		data.Entries[i] = lru.Entry{Key: p.key(i), Size: smallDoc, Body: body}
	}
	dir := filepath.Join(root, "snapshot")
	var writeRates, readRates []float64
	for n := 0; n < 3; n++ {
		st, err := persist.Open(persist.Config{Dir: dir, Fsync: persist.FsyncNever})
		if err != nil {
			return err
		}
		start := time.Now()
		rec, err := st.Recover()
		if err != nil {
			_ = st.Close() // the recover error is the one to report
			return err
		}
		if n > 0 { // the first pass finds an empty directory
			if len(rec.Entries) != len(data.Entries) {
				_ = st.Close() // the mismatch is the error to report
				return fmt.Errorf("persist probe: recovered %d of %d entries", len(rec.Entries), len(data.Entries))
			}
			readRates = append(readRates, float64(len(rec.Entries))/time.Since(start).Seconds())
		}
		written := st.Stats().SnapshotBytes
		start = time.Now()
		if err := st.Checkpoint(data); err != nil {
			_ = st.Close() // the checkpoint error is the one to report
			return err
		}
		writeRates = append(writeRates, float64(st.Stats().SnapshotBytes-written)/1e6/time.Since(start).Seconds())
		if err := st.Close(); err != nil {
			return err
		}
	}
	p.out.put("persist.checkpoint_mb_per_s", median(writeRates), "MB/s")
	p.out.put("persist.recover_entries_per_s", median(readRates), "1/s")
	return nil
}

// http times the three HTTP legs that bound the end-to-end workloads from
// below: a sibling's cache-only fetch, the origin alone, and a handler
// that does nothing — the floor of net/http plus this harness's client.
func (p *prober) http() error {
	m, err := startMesh(meshConfig{cacheBytes: 1 << 20, meanDoc: smallDoc})
	if err != nil {
		return err
	}
	defer m.close()
	c := newClient(m)
	defer c.close()
	doc := fmt.Sprintf("%s/probe/doc?size=%d&v=0", m.origin.URL(), smallDoc)
	if err := c.do(request{proxy: 0, target: url.QueryEscape(doc), size: smallDoc}); err != nil {
		return err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	noop := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write(pattern[:smallDoc]) // a failed write fails the client's check
	})}
	go noop.Serve(ln) // returns when noop is closed below
	defer noop.Close()

	var fetchErr error
	for _, leg := range []struct{ name, url string }{
		{"httpproxy.cacheonly_fetch_us", m.proxies[0].URL() + httpproxy.CacheOnlyPath + "?url=" + url.QueryEscape(doc)},
		{"origin.direct_fetch_us", doc},
		{"harness.noop_roundtrip_us", "http://" + ln.Addr().String() + "/"},
	} {
		p.out.put(leg.name, timeOp(p.d, 16, func(int) {
			if err := c.get(leg.url, smallDoc); err != nil {
				fetchErr = err
			}
		})/1e3, "us")
	}
	return fetchErr
}
