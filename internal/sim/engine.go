package sim

import (
	"fmt"

	"summarycache/internal/hashing"
	"summarycache/internal/lru"
	"summarycache/internal/trace"
)

// proxyState is one simulated proxy: its document cache plus its summary
// pipeline.
type proxyState struct {
	cache *lru.Cache
	sum   summarizer
}

// Run replays reqs through a mesh configured by cfg and returns the
// aggregated metrics. The replay is deterministic.
func Run(cfg Config, reqs []trace.Request) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	cfg.Summary.applyDefaults()
	res := Result{Config: cfg}

	switch cfg.Scheme {
	case GlobalCache, GlobalCacheShrunk:
		return runGlobal(cfg, reqs)
	case NoSharing, SimpleSharing, SingleCopySharing:
		// fallthrough to mesh simulation below
	default:
		return Result{}, fmt.Errorf("sim: unknown scheme %v", cfg.Scheme)
	}

	n := cfg.NumProxies
	proxies := make([]*proxyState, n)
	dirCfg := cfg.Summary.Directory
	if dirCfg.ExpectedDocs == 0 {
		dirCfg.ExpectedDocs = uint64(cfg.CacheBytes / cfg.Summary.AvgDocBytes)
	}
	var family *hashing.Family // the Bloom kinds' hashes, for probe keys
	var filterBits uint64
	for i := range proxies {
		p := &proxyState{}
		switch cfg.Summary.Kind {
		case Oracle, ICP:
			p.sum = noSummary{}
		case ExactDirectory, ServerName:
			p.sum = newSetSummary(PaperMessageModel, cfg.Summary.Kind == ServerName, dirCfg)
		case Bloom, BloomDigest:
			b, err := newBloomSummary(PaperMessageModel, dirCfg, cfg.Summary.Kind == BloomDigest)
			if err != nil {
				return Result{}, err
			}
			p.sum = b
			if family == nil {
				family = hashing.MustNew(b.dir.Spec())
				filterBits = b.dir.Bits()
			}
		default:
			return Result{}, fmt.Errorf("sim: unknown summary kind %v", cfg.Summary.Kind)
		}
		sum := p.sum
		cache, err := lru.NewCache(lru.Config{
			Capacity:      cfg.CacheBytes,
			MaxObjectSize: cfg.MaxObjectSize,
			OnChange: func(e lru.Entry, ev lru.Event) {
				switch ev {
				case lru.Inserted:
					sum.insert(e.Key)
				case lru.EvictCapacity, lru.EvictRemoved:
					sum.remove(e.Key)
				}
			},
		})
		if err != nil {
			return Result{}, err
		}
		p.cache = cache
		proxies[i] = p
	}

	trackTraffic := cfg.Summary.Kind != Oracle
	var idxBuf []uint64
	if family != nil {
		idxBuf = make([]uint64, family.Spec().FunctionNum)
	}

	var parent *lru.Cache
	if cfg.ParentCacheBytes > 0 {
		var err error
		parent, err = lru.NewCache(lru.Config{Capacity: cfg.ParentCacheBytes, MaxObjectSize: cfg.MaxObjectSize})
		if err != nil {
			return Result{}, err
		}
	}

	for _, req := range reqs {
		res.Requests++
		res.RequestBytes += uint64(req.Size)
		home := req.Group(n)
		p := proxies[home]

		if e, ok := p.cache.Get(req.URL); ok {
			if e.Version == req.Version {
				res.LocalHits++
				res.HitBytes += uint64(req.Size)
				continue
			}
			res.LocalStale++ // stale local copy: treated as a miss
		}

		if cfg.Scheme != NoSharing && n > 1 {
			// Prepare the probe key once for all peers.
			pk := probeKey{key: req.URL}
			switch cfg.Summary.Kind {
			case ServerName:
				pk.key = ServerOf(req.URL)
			case Bloom, BloomDigest:
				if _, err := family.IndexesInto(idxBuf, req.URL, filterBits); err != nil {
					return Result{}, err
				}
				pk.idx = idxBuf
			}

			freshPeer, stalePeer := -1, -1
			probed := 0
			for j := 0; j < n; j++ {
				if j == home {
					continue
				}
				if cfg.Summary.Kind == Oracle {
					// Oracle discovery: consult true contents, no messages.
					if e, ok := proxies[j].cache.Peek(req.URL); ok {
						if e.Version == req.Version {
							if freshPeer < 0 {
								freshPeer = j
							}
						} else if stalePeer < 0 {
							stalePeer = j
						}
					}
					continue
				}
				if !proxies[j].sum.probe(pk) {
					continue
				}
				probed++
				res.QueryMessages++
				res.ReplyMessages++
				res.QueryBytes += uint64(PaperMessageModel.QueryHeader + len(req.URL))
				if e, ok := proxies[j].cache.Peek(req.URL); ok {
					if e.Version == req.Version {
						if freshPeer < 0 {
							freshPeer = j
						}
					} else if stalePeer < 0 {
						stalePeer = j
					}
				}
			}

			if freshPeer >= 0 {
				res.RemoteHits++
				res.HitBytes += uint64(req.Size)
				// Serving a remote hit is an access on the owner.
				proxies[freshPeer].cache.Touch(req.URL)
				if cfg.Scheme == SimpleSharing {
					insertDocument(&res, proxies, p, req)
				}
				continue
			}
			if trackTraffic && probed > 0 {
				if stalePeer >= 0 {
					res.RemoteStaleHits++
				} else if cfg.Summary.Kind != ICP {
					// A summary claimed a copy no peer had. ICP makes no
					// such claim — its fruitless queries are just misses.
					res.FalseHits++
				}
			}
			if cfg.Summary.Kind == Oracle && stalePeer >= 0 {
				res.RemoteStaleHits++
			}
			// False miss: a summary-directed scheme failed to discover an
			// actually fresh remote copy.
			if cfg.Summary.Kind != Oracle && cfg.Summary.Kind != ICP {
				for j := 0; j < n && freshPeer < 0; j++ {
					if j == home {
						continue
					}
					if e, ok := proxies[j].cache.Peek(req.URL); ok && e.Version == req.Version {
						// Was it probed? If its summary said no, it is a
						// false miss.
						if !proxies[j].sum.probe(pk) {
							res.FalseMisses++
						}
						freshPeer = j // stop scanning; accounting only
					}
				}
				freshPeer = -1
			}
		}

		// Miss: ask the parent (if any), else the origin; cache locally.
		if parent != nil {
			if e, ok := parent.Get(req.URL); ok && e.Version == req.Version {
				res.ParentHits++
			} else {
				// Parent fetches from the origin and caches it on the way.
				parent.Put(lru.Entry{Key: req.URL, Size: req.Size, Version: req.Version})
			}
		}
		insertDocument(&res, proxies, p, req)
	}

	// Final memory accounting (per-peer summary copy + local counters).
	if n > 0 {
		res.SummaryMemoryBytes = proxies[0].sum.memoryBytes()
		res.CounterMemoryBytes = proxies[0].sum.counterBytes()
		if bs, ok := proxies[0].sum.(*bloomSummary); ok {
			if bs.flipEvents > 0 {
				res.BitsFlippedPerEvent = float64(bs.flipsTotal) / float64(bs.flipEvents)
			}
			for _, p := range proxies {
				res.CounterSaturations += p.sum.(*bloomSummary).dir.Saturations()
			}
		}
	}
	return res, nil
}

// insertDocument stores a fetched document in p's cache and, when p's
// summary is due under the publication rule, publishes it to all peers.
func insertDocument(res *Result, proxies []*proxyState, p *proxyState, req trace.Request) {
	wasNew := !p.cache.Contains(req.URL)
	stored := p.cache.Put(lru.Entry{Key: req.URL, Size: req.Size, Version: req.Version})
	if !stored || !wasNew || !p.sum.due() {
		return
	}
	msgBytes := p.sum.publish()
	peers := uint64(len(proxies) - 1)
	res.UpdateEvents++
	res.UpdateMessages += peers
	res.UpdateBytes += peers * uint64(msgBytes)
}

// runGlobal simulates the unified global cache (with optional 10% shrink).
func runGlobal(cfg Config, reqs []trace.Request) (Result, error) {
	res := Result{Config: cfg}
	total := cfg.CacheBytes * int64(cfg.NumProxies)
	if cfg.Scheme == GlobalCacheShrunk {
		total = total * 9 / 10
	}
	cache, err := lru.NewCache(lru.Config{Capacity: total, MaxObjectSize: cfg.MaxObjectSize})
	if err != nil {
		return Result{}, err
	}
	for _, req := range reqs {
		res.Requests++
		res.RequestBytes += uint64(req.Size)
		if e, ok := cache.Get(req.URL); ok {
			if e.Version == req.Version {
				res.LocalHits++
				res.HitBytes += uint64(req.Size)
				continue
			}
			res.LocalStale++
		}
		cache.Put(lru.Entry{Key: req.URL, Size: req.Size, Version: req.Version})
	}
	return res, nil
}
