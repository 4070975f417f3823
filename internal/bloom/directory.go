package bloom

import (
	"fmt"
	"sync/atomic"

	"summarycache/internal/hashing"
)

// DirectoryConfig sizes a local directory summary and sets when it is
// published. UpdateThreshold and MinPending are read literally (see
// PublishDue); a node that wants defaults for them applies its own.
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
	// directory is new (paper recommends 0.01–0.10). Zero publishes on
	// every new document.
	UpdateThreshold float64
	// MinPending further delays publication until at least this many
	// changes are pending — bit flips for a Bloom directory — the
	// prototype's rule of sending an update "whenever there are enough
	// changes to fill an IP packet". Zero: no floor.
	MinPending int
}

func (c *DirectoryConfig) applyDefaults() {
	if c.LoadFactor <= 0 {
		c.LoadFactor = 16
	}
	if c.HashSpec == (hashing.Spec{}) {
		c.HashSpec = hashing.DefaultSpec
	}
	if c.CounterBits == 0 {
		c.CounterBits = DefaultCounterBits
	}
}

// PublishDue is the summary's one publication rule (§V-A): publish once the
// documents added since the last publication reach threshold × docs and at
// least minPending changes are pending. With nothing new and nothing
// pending there is nothing to publish.
func PublishDue(newDocs, docs, pending int, threshold float64, minPending int) bool {
	if newDocs == 0 && pending == 0 {
		return false
	}
	return float64(newDocs) >= threshold*float64(docs) && pending >= minPending
}

// Directory is a proxy's summary of its own cache: the authoritative
// counting filter, plus the journal of bit flips not yet published to
// peers. It is safe for concurrent use.
//
// Insert and Remove take the counting filter's one writer mutex, which
// also appends their bit flips to its journal in the order they happened.
// Behind a proxy they already arrive one at a time, from the cache's
// ordered change stream, so that mutex is uncontended there. The counts
// driving the publication rule are atomics, so deciding when to publish
// takes no lock.
type Directory struct {
	counting   *CountingFilter
	spec       hashing.Spec
	bits       uint64
	threshold  float64
	minPending int
	newDocs    atomic.Int64 // documents added since the last Drain
}

// NewDirectory builds a directory summary.
func NewDirectory(cfg DirectoryConfig) (*Directory, error) {
	cfg.applyDefaults()
	if cfg.UpdateThreshold < 0 || cfg.UpdateThreshold > 1 {
		return nil, fmt.Errorf("bloom: UpdateThreshold must be in [0,1], got %v", cfg.UpdateThreshold)
	}
	bits := SizeForLoadFactor(cfg.ExpectedDocs, cfg.LoadFactor)
	cf, err := NewCountingFilter(bits, cfg.CounterBits, cfg.HashSpec)
	if err != nil {
		return nil, err
	}
	cf.EnableJournal()
	return &Directory{
		counting:   cf,
		spec:       cfg.HashSpec,
		bits:       bits,
		threshold:  cfg.UpdateThreshold,
		minPending: cfg.MinPending,
	}, nil
}

// Spec returns the hash family specification carried in update headers.
func (d *Directory) Spec() hashing.Spec { return d.spec }

// Bits returns the bit-array size carried in update headers.
func (d *Directory) Bits() uint64 { return d.bits }

// Docs returns the number of documents currently summarized.
func (d *Directory) Docs() int { return int(d.counting.Entries()) }

// flipScratch receives the flips of one Insert or Remove on the stack; the
// counting filter's journal keeps its own copy, so these are dropped.
type flipScratch [16]Flip

// Insert records a document entering the cache.
func (d *Directory) Insert(url string) {
	var flips flipScratch
	d.counting.Add(url, flips[:0])
	d.newDocs.Add(1)
}

// Remove records a document leaving the cache.
func (d *Directory) Remove(url string) {
	var flips flipScratch
	d.counting.Remove(url, flips[:0])
}

// ShouldPublish reports whether the pending flips are due to peers under
// PublishDue ("the update can occur ... when a certain percentage of the
// cached documents are not reflected in the summary").
func (d *Directory) ShouldPublish() bool {
	return PublishDue(int(d.newDocs.Load()), d.Docs(), d.counting.PendingFlips(), d.threshold, d.minPending)
}

// PendingFlips returns the number of unpublished bit flips.
func (d *Directory) PendingFlips() int {
	return d.counting.PendingFlips()
}

// Drain removes and returns the unpublished flip journal, resetting the
// new-document counter. The caller ships the flips to peers (or discards
// them for a peer that will receive a full snapshot instead).
func (d *Directory) Drain() []Flip {
	out := d.counting.DrainJournal()
	d.newDocs.Store(0)
	return out
}

// FilterSnapshot returns a copy of the directory's plain bit array — the
// authoritative state a peer's replica should equal once the mesh has
// converged.
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
// match this directory's configuration (ErrStateMismatch otherwise — the
// caller then rebuilds by re-inserting the restored keys instead). The
// document count comes back with the filter's entry accounting; the
// publication journal restarts empty, as a recovered node re-announces
// full state anyway.
func (d *Directory) RestoreState(data []byte) error {
	if err := d.counting.RestoreState(data); err != nil {
		return err
	}
	d.newDocs.Store(0)
	return nil
}

// Underflows reports decrement attempts that found a zero counter (see
// CountingFilter.Underflows) — nonzero only when crash recovery
// double-applied an eviction in the journal's overlap window.
func (d *Directory) Underflows() uint64 { return d.counting.Underflows() }

// Saturations reports increments that found a saturated counter (see
// CountingFilter.Saturations).
func (d *Directory) Saturations() uint64 { return d.counting.Saturations() }

// MemoryBytes returns the bytes of the counting filter's counters — local
// memory no peer holds.
func (d *Directory) MemoryBytes() uint64 { return d.counting.MemoryBytes() }

// SnapshotFlips returns the full current state as set-bit flips — what a
// newly joined or recovered peer needs after resetting its replica
// ("reinitializes a failed neighbor's bit array when it recovers"). The
// journal is unaffected.
func (d *Directory) SnapshotFlips() []Flip {
	var flips []Flip
	for byteIdx, b := range d.counting.BitFilter().Snapshot() {
		for bit := 0; bit < 8; bit++ {
			if b&(1<<bit) != 0 {
				flips = append(flips, Flip{Index: uint32(byteIdx*8 + bit), Set: true})
			}
		}
	}
	return flips
}
