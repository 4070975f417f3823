package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"summarycache/internal/core"
	"summarycache/internal/httpproxy"
	"summarycache/internal/obs"
	"summarycache/internal/origin"
	"summarycache/internal/perfwatch"
	"summarycache/internal/persist"
	"summarycache/internal/tracing"
)

// meshProxies is the paper's mesh size (§VII: four proxies).
const meshProxies = 4

// meshConfig is what differs between the workloads' meshes.
type meshConfig struct {
	cacheBytes int64
	// meanDoc sizes the summary: ExpectedDocs = cacheBytes / meanDoc, so the
	// counting filter runs at the paper's load factor 16 for the documents
	// the workload really stores.
	meanDoc    int64
	singleCopy bool
	persist    bool // journal + snapshots in a temp dir under out/
	traced     bool // the program's own tracer and perfwatch, handed in through Config
}

// mesh is one origin plus a full SC-ICP mesh, all on loopback in this process.
type mesh struct {
	origin  *origin.Server
	proxies []*httpproxy.Proxy
	reg     *obs.Registry    // shared by every proxy, so one snapshot covers the mesh
	watch   *perfwatch.Watch // nil unless traced
	tmpDir  string           // persist root, removed on close
	cfg     meshConfig
}

func startMesh(cfg meshConfig) (*mesh, error) {
	org, err := origin.Start(origin.Config{}) // Latency 0: the paper's 1 s delay would hide the program
	if err != nil {
		return nil, err
	}
	m := &mesh{origin: org, reg: obs.NewRegistry(), cfg: cfg}
	var tracer *tracing.Tracer
	if cfg.traced {
		m.watch = perfwatch.New(perfwatch.Config{Registry: m.reg})
		tracer = tracing.New(tracing.Config{HeadRate: 1, Sink: m.watch, Registry: m.reg})
	}
	if cfg.persist {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			m.close()
			return nil, err
		}
		if m.tmpDir, err = os.MkdirTemp(outDir, "persist-"); err != nil {
			m.close()
			return nil, err
		}
	}
	for i := 0; i < meshProxies; i++ {
		pc := httpproxy.Config{
			Mode:       httpproxy.ModeSCICP,
			CacheBytes: cfg.cacheBytes,
			Summary:    core.DirectoryConfig{ExpectedDocs: uint64(cfg.cacheBytes / cfg.meanDoc)},
			SingleCopy: cfg.singleCopy,
			Metrics:    m.reg,
			Tracer:     tracer,
			Perf:       m.watch,
		}
		if cfg.persist {
			pc.Persist = &persist.Config{Dir: fmt.Sprintf("%s/p%d", m.tmpDir, i)}
		}
		p, err := httpproxy.Start(pc)
		if err != nil {
			m.close()
			return nil, err
		}
		m.proxies = append(m.proxies, p)
	}
	for i, p := range m.proxies {
		for j, q := range m.proxies {
			if i != j {
				if err := p.AddPeer(q.ICPAddr(), q.URL()); err != nil {
					m.close()
					return nil, err
				}
			}
		}
	}
	return m, nil
}

// close tears the mesh down; its errors are dropped because every number
// has been read by then. A persisted proxy is closed abruptly: the final
// checkpoint would write the whole cache to disk for nobody to read.
func (m *mesh) close() {
	for _, p := range m.proxies {
		if m.cfg.persist {
			_ = p.CloseAbrupt()
		} else {
			_ = p.Close()
		}
	}
	_ = m.origin.Close()
	if m.tmpDir != "" {
		_ = os.RemoveAll(m.tmpDir)
	}
}

// proxyLabel is the proxy="<addr>" label value the program puts on its series.
func proxyLabel(p *httpproxy.Proxy) string { return strings.TrimPrefix(p.URL(), "http://") }

// counter names one of the program's public counters, summed over the mesh.
type counter int

const (
	cRequests counter = iota
	cLocalHits
	cRemoteHits
	cMisses
	cFalseHits
	cOriginFetches
	cPeerFetches
	cRetries
	cUDPSent
	cUDPSentBytes
	cUDPDropped
	cUDPSendErrors
	cQueriesSent
	cNodeRemoteHits
	cNodeFalseHits
	cUpdatesSent
	cFlipsPublished
	cFlipsCoalesced
	cFilterRebuilds
	cEvictions
	cLockContentions
	cJournalRecords
	cJournalFsyncs
	cJournalErrors
	nCounters
)

// counts is one reading of every counter; a window's numbers are the
// difference of two readings.
type counts [nCounters]uint64

func (c counts) sub(base counts) counts {
	for i := range c {
		c[i] -= base[i]
	}
	return c
}

// snapshot reads every proxy's Stats() and PersistStats(), and the two
// cache counters that only the shared registry exposes.
func (m *mesh) snapshot() (counts, error) {
	var c counts
	for _, p := range m.proxies {
		s := p.Stats()
		c[cRequests] += s.ClientRequests
		c[cLocalHits] += s.LocalHits
		c[cRemoteHits] += s.RemoteHits
		c[cMisses] += s.Misses
		c[cFalseHits] += s.FalseHits
		c[cOriginFetches] += s.OriginFetches
		c[cPeerFetches] += s.PeerFetches
		c[cRetries] += s.Retries
		c[cUDPSent] += s.UDP.Sent
		c[cUDPSentBytes] += s.UDP.SentBytes
		c[cUDPDropped] += s.UDP.Dropped
		c[cUDPSendErrors] += s.UDP.SendErrors
		c[cQueriesSent] += s.Node.QueriesSent
		c[cNodeRemoteHits] += s.Node.RemoteHits
		c[cNodeFalseHits] += s.Node.FalseHits
		c[cUpdatesSent] += s.Node.UpdatesSent
		c[cFlipsPublished] += s.Node.FlipsPublished
		c[cFlipsCoalesced] += s.Node.FlipsCoalesced
		c[cFilterRebuilds] += s.Node.FilterRebuilds
		ps := p.PersistStats()
		c[cJournalRecords] += ps.JournalRecords
		c[cJournalFsyncs] += ps.JournalFsyncs
		c[cJournalErrors] += ps.JournalErrors
	}
	var buf bytes.Buffer
	if err := m.reg.WriteJSON(&buf); err != nil {
		return c, err
	}
	var series map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &series); err != nil {
		return c, err
	}
	for key, raw := range series {
		var dst counter
		switch {
		case strings.HasPrefix(key, "summarycache_cache_evictions_total{") && strings.Contains(key, `reason="capacity"`):
			dst = cEvictions
		case strings.HasPrefix(key, "summarycache_cache_lock_contentions_total{"):
			dst = cLockContentions
		default:
			continue
		}
		var v uint64
		if err := json.Unmarshal(raw, &v); err != nil {
			return c, fmt.Errorf("registry series %s: %w", key, err)
		}
		c[dst] += v
	}
	return c, nil
}

// awaitUpdates waits until every DIRUPDATE datagram the mesh has sent has
// been applied somewhere, so that a summary published during set-up is in
// the replicas before the first request that depends on it.
func (m *mesh) awaitUpdates() error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		var sent, recv uint64
		for _, p := range m.proxies {
			n := p.Stats().Node
			sent += n.UpdatesSent
			recv += n.UpdatesReceived
		}
		if recv >= sent {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("summary updates not applied after 5s: %d sent, %d received", sent, recv)
		}
		time.Sleep(time.Millisecond)
	}
}

// histDelta is the change of a set of the program's histograms over a window.
type histDelta struct {
	bounds  []float64
	buckets []uint64
	count   uint64
	sum     float64
}

type histSnap struct {
	hists []*obs.Histogram
	base  histDelta
}

func readHists(hs []*obs.Histogram) histDelta {
	var d histDelta
	for _, h := range hs {
		d.bounds = h.Bounds()
		if d.buckets == nil {
			d.buckets = make([]uint64, len(d.bounds)+1)
		}
		for i, n := range h.BucketCounts() {
			d.buckets[i] += n
		}
		d.count += h.Count()
		d.sum += h.Sum()
	}
	return d
}

// openHists marks the window's start on the histograms named name whose
// labels are each of labelSets (get-or-create returns the program's own).
func (m *mesh) openHists(name string, labelSets ...obs.Labels) histSnap {
	var hs []*obs.Histogram
	for _, ls := range labelSets {
		hs = append(hs, m.reg.Histogram(name, "", ls, nil))
	}
	return histSnap{hists: hs, base: readHists(hs)}
}

func (s histSnap) close() histDelta {
	d := readHists(s.hists)
	for i := range d.buckets {
		d.buckets[i] -= s.base.buckets[i]
	}
	d.count -= s.base.count
	d.sum -= s.base.sum
	return d
}

// quantile interpolates inside the bucket that holds the q-quantile, as
// obs.Histogram.Quantile does for a whole histogram; 0 with no samples.
func (d histDelta) quantile(q float64) float64 {
	if d.count == 0 {
		return 0
	}
	rank := q * float64(d.count)
	var cum uint64
	for i, n := range d.buckets {
		if n > 0 && float64(cum+n) >= rank {
			if i == len(d.bounds) {
				return d.bounds[len(d.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = d.bounds[i-1]
			}
			return lo + (d.bounds[i]-lo)*(rank-float64(cum))/float64(n)
		}
		cum += n
	}
	return d.bounds[len(d.bounds)-1]
}
