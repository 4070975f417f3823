package httpproxy

import (
	"net/http"
	"time"

	"summarycache/internal/obs"
	"summarycache/internal/persist"
)

// startPersistence opens the persist store, recovers whatever a previous
// run left behind, installs the cache bodies and rebuilds the directory
// from the restored cache, takes a fresh boot checkpoint,
// and starts the periodic snapshot loop. Called from Start with the
// protocol endpoint already up; a persistence failure fails the boot — a
// proxy asked to be durable must not come up silently amnesiac.
func (p *Proxy) startPersistence(reg *obs.Registry, labels obs.Labels) error {
	if p.cfg.Persist == nil {
		return nil
	}
	pcfg := *p.cfg.Persist
	if pcfg.Logger == nil {
		pcfg.Logger = p.cfg.Logger
	}
	store, err := persist.Open(pcfg)
	if err != nil {
		return err
	}
	rec, err := store.Recover()
	if err != nil {
		_ = store.Close()
		return err
	}
	p.store = store
	p.recovery = rec.Stats
	if rec.Stats.Recovered {
		p.installRecovered(rec)
	}
	p.registerPersistMetrics(reg, labels)
	// The boot checkpoint re-captures the reconciled state under the next
	// generation: recovery work is never repeated, and the journal chain
	// the next crash replays starts here.
	if err := store.CheckpointFunc(p.captureSnapshot); err != nil {
		_ = store.Close()
		p.store = nil
		return err
	}
	if interval := pcfg.SnapshotInterval; interval > 0 {
		p.snapStop = make(chan struct{})
		p.snapDone = make(chan struct{})
		go p.snapshotLoop(interval)
	}
	return nil
}

// installRecovered loads recovered state into the live structures:
// documents into the cache, each with its signature recomputed from its
// key and its Content-Type sniffed from its body (neither is persisted),
// then the directory rebuilt from the documents the cache readmitted. No
// peer replica is restored: AddPeer asks each neighbor for its full state.
func (p *Proxy) installRecovered(rec *persist.Recovered) {
	for i := range rec.Entries {
		e := &rec.Entries[i]
		e.Sig, e.Type = signature(p, e.Key), http.DetectContentType(e.Body)
	}
	p.restored, _ = p.cache.Restore(rec.Entries)
	if p.node != nil {
		p.node.Recover(p.cache.Entries())
	}
}

// registerPersistMetrics exposes the store's counters as scrape-time
// reads of the store's own accounting — one source of truth, like the
// cache metrics above.
func (p *Proxy) registerPersistMetrics(reg *obs.Registry, labels obs.Labels) {
	reg.CounterFunc("summarycache_persist_snapshots_total",
		"checkpoints completed", labels,
		func() uint64 { return p.store.Stats().Snapshots })
	reg.CounterFunc("summarycache_persist_snapshot_bytes_total",
		"bytes written across all snapshots", labels,
		func() uint64 { return p.store.Stats().SnapshotBytes })
	reg.CounterFunc("summarycache_persist_snapshot_errors_total",
		"checkpoints that failed", labels,
		func() uint64 { return p.store.Stats().SnapshotErrors })
	reg.CounterFunc("summarycache_persist_journal_records_total",
		"cache mutations journaled", labels,
		func() uint64 { return p.store.Stats().JournalRecords })
	reg.CounterFunc("summarycache_persist_journal_bytes_total",
		"journal bytes written", labels,
		func() uint64 { return p.store.Stats().JournalBytes })
	reg.CounterFunc("summarycache_persist_journal_fsyncs_total",
		"explicit journal syncs issued", labels,
		func() uint64 { return p.store.Stats().JournalFsyncs })
	reg.CounterFunc("summarycache_persist_journal_errors_total",
		"journal append or sync failures", labels,
		func() uint64 { return p.store.Stats().JournalErrors })
	reg.GaugeFunc("summarycache_persist_recovered_entries",
		"documents reinstalled by this boot's warm recovery", labels,
		func() float64 { return float64(p.restored) })
}

// captureSnapshot assembles one checkpoint's state from the live
// structures. Each capture is weakly consistent under concurrent
// traffic; the journal records written after the rotation that precedes
// it reconcile the skew at replay.
func (p *Proxy) captureSnapshot() persist.SnapshotData {
	return persist.SnapshotData{Entries: p.cache.Entries()}
}

// Checkpoint forces a snapshot now (no-op without persistence) — what
// the periodic loop and the clean shutdown both call.
func (p *Proxy) Checkpoint() error {
	if p.store == nil {
		return nil
	}
	return p.store.CheckpointFunc(p.captureSnapshot)
}

func (p *Proxy) snapshotLoop(interval time.Duration) {
	defer close(p.snapDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := p.Checkpoint(); err != nil && p.cfg.Logger != nil {
				p.cfg.Logger.Warn("periodic checkpoint failed", "err", err)
			}
		case <-p.snapStop:
			return
		}
	}
}

// shutdownPersist stops the snapshot loop and closes the store, taking
// one final checkpoint first when the shutdown is clean (final=false is
// the simulated crash: whatever the journal holds is what recovery gets).
func (p *Proxy) shutdownPersist(final bool) error {
	if p.store == nil {
		return nil
	}
	var err error
	p.persistOnce.Do(func() {
		if p.snapStop != nil {
			close(p.snapStop)
			<-p.snapDone
		}
		if final {
			err = p.store.CheckpointFunc(p.captureSnapshot)
		}
		if cerr := p.store.Close(); err == nil {
			err = cerr
		}
	})
	return err
}

// Recovery reports what this proxy's boot recovered from its persist
// directory (the zero value when persistence is off or the directory was
// empty).
func (p *Proxy) Recovery() persist.RecoveryStats { return p.recovery }

// PersistStats snapshots the persistence counters (zero without
// persistence), read from the same accounting /metrics scrapes.
func (p *Proxy) PersistStats() persist.Stats {
	if p.store == nil {
		return persist.Stats{}
	}
	return p.store.Stats()
}
