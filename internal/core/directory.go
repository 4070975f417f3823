// Package core implements the summary-cache protocol of Fan, Cao, Almeida
// and Broder (SIGCOMM '98) as a reusable library: each proxy maintains a
// counting-Bloom-filter summary of its own cache directory (Directory),
// holds a plain-filter replica of every registered peer's summary, and
// binds the two to the ICP transport as the summary-cache enhanced ICP
// node (Node). On a local miss the node probes the peer summaries and
// queries only the proxies whose summaries show promise — the mechanism
// that cuts inter-proxy messages by the paper's factor of 25–60 versus
// query-everyone ICP.
package core

import (
	"fmt"
	"sync/atomic"

	"summarycache/internal/bloom"
	"summarycache/internal/hashing"
)

// DirectoryConfig sizes a local directory summary.
type DirectoryConfig struct {
	// ExpectedDocs is the anticipated number of cached documents
	// (cache bytes / average document size; the paper uses 8 KB).
	ExpectedDocs uint64
	// LoadFactor is bits per expected document (paper recommends 8–16;
	// default 16).
	LoadFactor float64
	// HashSpec is the Bloom hash family (default: 4 × 32-bit MD5 groups).
	HashSpec hashing.Spec
	// CounterBits is the counting-filter width (default 4, per §V-C).
	CounterBits uint
	// UpdateThreshold delays publication until this fraction of the
	// directory is new (paper recommends 0.01–0.10; default 0.01).
	UpdateThreshold float64
}

func (c *DirectoryConfig) applyDefaults() {
	if c.LoadFactor <= 0 {
		c.LoadFactor = 16
	}
	if c.HashSpec == (hashing.Spec{}) {
		c.HashSpec = hashing.DefaultSpec
	}
	if c.CounterBits == 0 {
		c.CounterBits = 4
	}
	if c.UpdateThreshold == 0 {
		c.UpdateThreshold = 0.01
	}
}

// Directory is a proxy's summary of its own cache: the authoritative
// counting filter, plus the journal of bit flips not yet published to
// peers. It is safe for concurrent use.
//
// Insert and Remove take the counting filter's one writer mutex, which
// also appends their bit flips to its journal in the order they happened.
// Behind a proxy they already arrive one at a time, from the cache's
// ordered change stream, so that mutex is uncontended there. Contains is a
// lock-free probe, and the document counters driving the publication
// threshold are atomics, so deciding when to publish takes no lock.
type Directory struct {
	counting  *bloom.CountingFilter
	spec      hashing.Spec
	bits      uint64
	threshold float64
	docs      atomic.Int64 // current directory size in documents
	newDocs   atomic.Int64 // documents added since the last Drain
}

// NewDirectory builds a directory summary.
func NewDirectory(cfg DirectoryConfig) (*Directory, error) {
	cfg.applyDefaults()
	if cfg.UpdateThreshold < 0 || cfg.UpdateThreshold > 1 {
		return nil, fmt.Errorf("core: UpdateThreshold must be in [0,1], got %v", cfg.UpdateThreshold)
	}
	bits := bloom.SizeForLoadFactor(cfg.ExpectedDocs, cfg.LoadFactor)
	cf, err := bloom.NewCountingFilter(bits, cfg.CounterBits, cfg.HashSpec)
	if err != nil {
		return nil, err
	}
	cf.EnableJournal()
	return &Directory{
		counting:  cf,
		spec:      cfg.HashSpec,
		bits:      bits,
		threshold: cfg.UpdateThreshold,
	}, nil
}

// Spec returns the hash family specification carried in update headers.
func (d *Directory) Spec() hashing.Spec { return d.spec }

// Bits returns the bit-array size carried in update headers.
func (d *Directory) Bits() uint64 { return d.bits }

// Docs returns the number of documents currently summarized.
func (d *Directory) Docs() int {
	n := d.docs.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}

// flipScratch receives the flips of one Insert or Remove on the stack; the
// counting filter's journal keeps its own copy, so these are dropped.
type flipScratch [16]bloom.Flip

// Insert records a document entering the cache.
func (d *Directory) Insert(url string) {
	var flips flipScratch
	d.counting.Add(url, flips[:0])
	d.docs.Add(1)
	d.newDocs.Add(1)
}

// Remove records a document leaving the cache.
func (d *Directory) Remove(url string) {
	var flips flipScratch
	d.counting.Remove(url, flips[:0])
	for {
		cur := d.docs.Load()
		if cur <= 0 || d.docs.CompareAndSwap(cur, cur-1) {
			break
		}
	}
}

// Contains probes the live local summary (used to answer peer queries
// cheaply is NOT its purpose — queries consult the real cache; this exists
// for diagnostics and tests). Lock-free.
func (d *Directory) Contains(url string) bool {
	return d.counting.Test(url)
}

// ShouldPublish reports whether enough of the directory is new that peers
// should be updated ("the update can occur ... when a certain percentage of
// the cached documents are not reflected in the summary").
func (d *Directory) ShouldPublish() bool {
	pending := d.counting.PendingFlips()
	newDocs := d.newDocs.Load()
	if newDocs == 0 && pending == 0 {
		return false
	}
	docs := d.docs.Load()
	if docs <= 0 {
		return pending > 0
	}
	return float64(newDocs) >= d.threshold*float64(docs)
}

// PendingFlips returns the number of unpublished bit flips.
func (d *Directory) PendingFlips() int {
	return d.counting.PendingFlips()
}

// Drain removes and returns the unpublished flip journal, resetting the
// new-document counter. The caller ships the flips to peers (or discards
// them for a peer that will receive a full snapshot instead).
func (d *Directory) Drain() []bloom.Flip {
	out := d.counting.DrainJournal()
	d.newDocs.Store(0)
	return out
}

// FilterSnapshot returns a copy of the directory's plain bit array — the
// authoritative state a peer's replica should equal once the mesh has
// converged (see Node.ReplicaSnapshot).
func (d *Directory) FilterSnapshot() []byte {
	return d.counting.BitFilter().Snapshot()
}

// StateSnapshot serializes the directory's counting filter (counter
// words, entry count, saturation state) for warm-restart persistence.
// Under concurrent writers the capture is weakly consistent; journal
// replay and the protocol's tolerance of summary slop absorb the skew.
func (d *Directory) StateSnapshot() []byte {
	return d.counting.StateSnapshot()
}

// RestoreState loads a StateSnapshot blob taken by a previous run,
// replacing the directory's contents. The blob's filter geometry must
// match this directory's configuration (bloom.ErrStateMismatch
// otherwise — the caller then rebuilds by re-inserting the restored
// keys instead). The document count is restored from the filter's entry
// accounting; the publication journal restarts empty, as a recovered
// node re-announces full state anyway.
func (d *Directory) RestoreState(data []byte) error {
	if err := d.counting.RestoreState(data); err != nil {
		return err
	}
	d.docs.Store(int64(d.counting.Entries()))
	d.newDocs.Store(0)
	return nil
}

// Underflows reports decrement attempts that found a zero counter (see
// bloom.CountingFilter.Underflows) — nonzero only when crash recovery
// double-applied an eviction in the journal's overlap window.
func (d *Directory) Underflows() uint64 { return d.counting.Underflows() }

// SnapshotFlips returns the full current state as set-bit flips — what a
// newly joined or recovered peer needs after resetting its replica
// ("reinitializes a failed neighbor's bit array when it recovers"). The
// journal is unaffected.
func (d *Directory) SnapshotFlips() []bloom.Flip {
	f := d.counting.BitFilter()
	var flips []bloom.Flip
	snap := f.Snapshot()
	for byteIdx, b := range snap {
		for bit := 0; bit < 8; bit++ {
			if b&(1<<bit) != 0 {
				flips = append(flips, bloom.Flip{Index: uint32(byteIdx*8 + bit), Set: true})
			}
		}
	}
	return flips
}
