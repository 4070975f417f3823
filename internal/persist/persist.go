// Package persist implements warm restarts: a crash-consistent binary
// snapshot of what a proxy cannot derive, the LRU entries (keys, bodies,
// recency order), plus an append-only journal of cache mutations, so
// hot-path writes cost O(one record), never O(cache). Nothing of the
// summary protocol is saved: the caller rebuilds its directory from the
// recovered cache, and its replicas of the peers' summaries come from the
// peers themselves.
//
// On-disk layout (all files length+CRC framed, see journal.go):
//
//	snap-<gen>   full snapshot, terminated by an end frame whose absence
//	             marks a torn write (recovery falls back one generation)
//	jrnl-<gen>   mutations appended since snapshot <gen> was BEGUN
//
// Both kinds hold the same records, written and read by one codec: a
// snapshot entry ('E') is an insert record that carries its body, and a
// journal holds bodiless insert and evict records. One reader walks either
// file after its header frame.
//
// A checkpoint first rotates the journal to generation g+1, then writes
// snap-<g+1> from live state. Records landing between the rotation and
// the capture therefore appear in BOTH snap-<g+1> and jrnl-<g+1> — the
// overlap window. Replay is idempotent against it: re-inserting a
// present key at the same version only refreshes its recency, and
// evicting an absent key is a counted no-op.
//
// Recovery loads the newest snapshot that validates end-to-end, then
// feeds its entries and every journal of that generation and newer
// through one replay, tolerating a journal's torn or corrupt tail (the
// expected shape of a crash). The caller installs the result, rebuilds
// its directory from the cache it restored, and re-announces a
// reset-flagged full DIRUPDATE so siblings converge bit-exactly on it;
// that DIRUPDATE also asks each sibling for its own full state.
package persist

import (
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"summarycache/internal/lru"
	"summarycache/internal/obs"
)

// FsyncPolicy selects when journal appends reach stable storage. A
// SIGKILL alone never loses page-cache writes — fsync only matters for
// OS crashes and power loss — so the default trades a bounded window of
// those for hot-path latency.
type FsyncPolicy string

const (
	// FsyncAlways syncs the journal after every append: no loss window,
	// one fsync per cache mutation.
	FsyncAlways FsyncPolicy = "always"
	// FsyncInterval syncs dirty journal data on a background ticker
	// (Config.FsyncInterval); the default.
	FsyncInterval FsyncPolicy = "interval"
	// FsyncNever leaves journal durability to the OS writeback and the
	// syncs at rotation/close.
	FsyncNever FsyncPolicy = "never"
)

// ParseFsyncPolicy validates a policy string from a flag.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch FsyncPolicy(s) {
	case FsyncAlways, FsyncInterval, FsyncNever:
		return FsyncPolicy(s), nil
	case "":
		return FsyncInterval, nil
	}
	return "", fmt.Errorf("persist: unknown fsync policy %q (want always|interval|never)", s)
}

// Config parameterizes a Store.
type Config struct {
	// Dir is the persistence directory, created if absent. Required.
	Dir string
	// Fsync is the journal durability policy (default FsyncInterval).
	Fsync FsyncPolicy
	// FsyncInterval is the background sync cadence under FsyncInterval
	// (default 1s).
	FsyncInterval time.Duration
	// SnapshotInterval is the cadence of periodic checkpoints; the store
	// itself never ticks — the owning proxy runs the loop — but the knob
	// rides here so one struct configures the whole subsystem. 0: only
	// the boot and shutdown checkpoints.
	SnapshotInterval time.Duration
	// Logger receives recovery and checkpoint events (nil: discarded).
	Logger *slog.Logger
}

// Stats counts the store's activity. Scrapes read it via CounterFunc, so
// the exposition and this snapshot can never disagree.
type Stats struct {
	Snapshots      uint64 // checkpoints completed
	SnapshotBytes  uint64 // bytes written across all snapshots
	SnapshotErrors uint64 // checkpoints that failed
	JournalRecords uint64 // records appended
	JournalBytes   uint64 // journal bytes written
	JournalFsyncs  uint64 // explicit journal syncs issued
	JournalErrors  uint64 // append/sync failures
}

// SnapshotData is one checkpoint's captured state.
type SnapshotData struct {
	// Entries is the cache content, most recently used first
	// (lru.Cache.Entries order), bodies included.
	Entries []lru.Entry
}

// Store owns one persistence directory: the current journal handle and
// the checkpoint machinery.
type Store struct {
	cfg Config
	log *slog.Logger

	mu     sync.Mutex
	gen    uint64 // current journal generation
	jf     *os.File
	jbuf   []byte // reusable record-encoding scratch
	dirty  bool   // journal bytes written since the last sync
	closed bool

	snapshots, snapshotBytes, snapshotErrors atomic.Uint64
	journalRecords, journalBytes             atomic.Uint64
	journalFsyncs, journalErrors             atomic.Uint64

	stopTick chan struct{}
	tickDone chan struct{}
}

// Open prepares a store over cfg.Dir, creating it if needed, and scans
// existing generations. Call Recover before the first Checkpoint.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, errors.New("persist: Config.Dir required")
	}
	if cfg.Fsync == "" {
		cfg.Fsync = FsyncInterval
	}
	if cfg.FsyncInterval <= 0 {
		cfg.FsyncInterval = time.Second
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	s := &Store{cfg: cfg, log: obs.OrNop(cfg.Logger)}
	snaps, jrnls, err := s.scan()
	if err != nil {
		return nil, err
	}
	for _, g := range snaps {
		if g > s.gen {
			s.gen = g
		}
	}
	for _, g := range jrnls {
		if g > s.gen {
			s.gen = g
		}
	}
	if cfg.Fsync == FsyncInterval {
		s.stopTick = make(chan struct{})
		s.tickDone = make(chan struct{})
		go s.fsyncLoop()
	}
	return s, nil
}

// scan lists the snapshot and journal generations present on disk.
func (s *Store) scan() (snaps, jrnls []uint64, err error) {
	ents, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		return nil, nil, fmt.Errorf("persist: %w", err)
	}
	for _, de := range ents {
		name := de.Name()
		switch {
		case strings.HasPrefix(name, snapPrefix):
			if g, ok := parseGen(name, snapPrefix); ok {
				snaps = append(snaps, g)
			}
		case strings.HasPrefix(name, jrnlPrefix):
			if g, ok := parseGen(name, jrnlPrefix); ok {
				jrnls = append(jrnls, g)
			}
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	sort.Slice(jrnls, func(i, j int) bool { return jrnls[i] < jrnls[j] })
	return snaps, jrnls, nil
}

const (
	snapPrefix = "snap-"
	jrnlPrefix = "jrnl-"
)

func genName(prefix string, gen uint64) string {
	return fmt.Sprintf("%s%016d", prefix, gen)
}

func parseGen(name, prefix string) (uint64, bool) {
	g, err := strconv.ParseUint(strings.TrimPrefix(name, prefix), 10, 64)
	return g, err == nil
}

func (s *Store) path(prefix string, gen uint64) string {
	return filepath.Join(s.cfg.Dir, genName(prefix, gen))
}

// AppendInsert journals a document entering the cache (or changing
// version in place). O(record): one framed append, no filter walk.
func (s *Store) AppendInsert(key string, size, version int64) error {
	return s.append(record{Op: journalInsert, Entry: lru.Entry{Key: key, Size: size, Version: version}})
}

// AppendEvict journals a document leaving the cache.
func (s *Store) AppendEvict(key string) error {
	return s.append(record{Op: journalEvict, Entry: lru.Entry{Key: key}})
}

func (s *Store) append(rec record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("persist: store closed")
	}
	if err := s.ensureJournalLocked(); err != nil {
		s.journalErrors.Add(1)
		return err
	}
	s.jbuf = appendRecord(s.jbuf[:0], rec)
	n, err := s.jf.Write(s.jbuf)
	if err != nil {
		s.journalErrors.Add(1)
		return fmt.Errorf("persist: journal append: %w", err)
	}
	s.journalRecords.Add(1)
	s.journalBytes.Add(uint64(n))
	s.dirty = true
	if s.cfg.Fsync == FsyncAlways {
		return s.syncJournalLocked()
	}
	return nil
}

// ensureJournalLocked opens the current generation's journal, writing
// its header frame if the file is new.
func (s *Store) ensureJournalLocked() error {
	if s.jf != nil {
		return nil
	}
	path := s.path(jrnlPrefix, s.gen)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("persist: open journal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close() // open failed midway; the stat error is the one to report
		return fmt.Errorf("persist: stat journal: %w", err)
	}
	if st.Size() == 0 {
		hdr := appendFrame(nil, fileHeader(frameJournalHdr, s.gen))
		if _, err := f.Write(hdr); err != nil {
			_ = f.Close() // header write failed; report that error
			return fmt.Errorf("persist: journal header: %w", err)
		}
		s.journalBytes.Add(uint64(len(hdr)))
	}
	s.jf = f
	return nil
}

func (s *Store) syncJournalLocked() error {
	if s.jf == nil || !s.dirty {
		return nil
	}
	if err := s.jf.Sync(); err != nil {
		s.journalErrors.Add(1)
		return fmt.Errorf("persist: journal sync: %w", err)
	}
	s.dirty = false
	s.journalFsyncs.Add(1)
	return nil
}

// fsyncLoop is the FsyncInterval background syncer.
func (s *Store) fsyncLoop() {
	defer close(s.tickDone)
	t := time.NewTicker(s.cfg.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.mu.Lock()
			if err := s.syncJournalLocked(); err != nil {
				s.log.Warn("journal interval sync failed", "err", err)
			}
			s.mu.Unlock()
		case <-s.stopTick:
			return
		}
	}
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Snapshots:      s.snapshots.Load(),
		SnapshotBytes:  s.snapshotBytes.Load(),
		SnapshotErrors: s.snapshotErrors.Load(),
		JournalRecords: s.journalRecords.Load(),
		JournalBytes:   s.journalBytes.Load(),
		JournalFsyncs:  s.journalFsyncs.Load(),
		JournalErrors:  s.journalErrors.Load(),
	}
}

// Close syncs and closes the journal. It does not checkpoint — callers
// that want a final snapshot (clean shutdown) call Checkpoint first.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.syncJournalLocked()
	if s.jf != nil {
		if cerr := s.jf.Close(); err == nil {
			err = cerr
		}
		s.jf = nil
	}
	s.mu.Unlock()
	if s.stopTick != nil {
		close(s.stopTick)
		<-s.tickDone
	}
	return err
}

// syncDir fsyncs the persistence directory so a rename is durable.
func (s *Store) syncDir() error {
	d, err := os.Open(s.cfg.Dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	// Some filesystems refuse directory fsync; the rename is still
	// ordered after the file's own sync, so degrade silently.
	if err != nil && errors.Is(err, fs.ErrInvalid) {
		return nil
	}
	return err
}
