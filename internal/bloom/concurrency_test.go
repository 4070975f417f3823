package bloom

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"testing"

	"summarycache/internal/hashing"
)

// Lock-free probes racing CAS writers: Test must never crash, and after the
// writers finish every added key must test positive.
func TestFilterTestVsApplyRace(t *testing.T) {
	f := MustNewFilter(1<<16, hashing.DefaultSpec)
	const keysPerWriter = 400
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				f.Test(fmt.Sprintf("w%d-k%d", i%4, i%keysPerWriter))
				f.TestIndexes(f.Indexes(nil, fmt.Sprintf("probe%d", i)))
			}
		}(r)
	}
	var ww sync.WaitGroup
	for w := 0; w < 4; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < keysPerWriter; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i)
				var flips []Flip
				for _, idx := range f.Indexes(nil, key) {
					flips = append(flips, Flip{Index: uint32(idx), Set: true})
				}
				if err := f.Apply(flips); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	for w := 0; w < 4; w++ {
		for i := 0; i < keysPerWriter; i++ {
			if !f.Test(fmt.Sprintf("w%d-k%d", w, i)) {
				t.Fatalf("false negative after concurrent Apply: w%d-k%d", w, i)
			}
		}
	}
}

// The incremental population count must stay exact under concurrent CAS
// set/clear and bulk replacement.
func TestFilterOnesCountExactUnderConcurrency(t *testing.T) {
	f := MustNewFilter(1<<14, hashing.DefaultSpec)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 5000; i++ {
				idx := uint64(rng.Intn(1 << 14))
				if rng.Intn(2) == 0 {
					f.SetBit(idx)
				} else {
					f.ClearBit(idx)
				}
				if i%1000 == 0 && g == 0 {
					f.Reset()
				}
			}
		}(g)
	}
	wg.Wait()
	var actual uint64
	for i := range f.words {
		actual += uint64(bits.OnesCount64(f.words[i].Load()))
	}
	if got := f.OnesCount(); got != actual {
		t.Fatalf("OnesCount = %d, popcount of words = %d", got, actual)
	}
}

// LoadSnapshot racing CAS writers must keep ones exact and leave the filter
// equal to some interleaving (we only assert the count invariant and that
// Snapshot round-trips).
func TestFilterSnapshotRoundTripUnderLoad(t *testing.T) {
	f := MustNewFilter(4096, hashing.DefaultSpec)
	for i := 0; i < 200; i++ {
		f.Add(fmt.Sprintf("seed%d", i))
	}
	snap := f.Snapshot()
	g := MustNewFilter(4096, hashing.DefaultSpec)
	if err := g.LoadSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if !g.Test(fmt.Sprintf("seed%d", i)) {
			t.Fatalf("snapshot lost key seed%d", i)
		}
	}
	if g.OnesCount() != f.OnesCount() {
		t.Fatalf("ones %d != %d after snapshot", g.OnesCount(), f.OnesCount())
	}
}

// The protocol-critical invariant: a replica built purely from drained
// journal flips must converge to the source's bit filter, even when flips
// were produced by racing Add/Remove and drained concurrently. Per-bit
// temporal order inside the journal is what makes this hold.
func TestCountingJournalReplicaConverges(t *testing.T) {
	cf := MustNewCountingFilter(1<<15, 4, hashing.DefaultSpec)
	cf.EnableJournal()
	replica := MustNewFilter(1<<15, hashing.DefaultSpec)

	var rmu sync.Mutex // replica applications must not interleave with each other
	drain := func() {
		flips := cf.DrainJournal()
		rmu.Lock()
		if err := replica.Apply(flips); err != nil {
			t.Error(err)
		}
		rmu.Unlock()
	}

	var wg sync.WaitGroup
	stopDrain := make(chan struct{})
	var dw sync.WaitGroup
	dw.Add(1)
	go func() { // concurrent drainer, like the publication loop
		defer dw.Done()
		for {
			select {
			case <-stopDrain:
				return
			default:
				drain()
			}
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) * 17))
			live := map[string]int{}
			for i := 0; i < 4000; i++ {
				k := fmt.Sprintf("g%d-%d", g, rng.Intn(300))
				if live[k] > 0 && rng.Intn(3) == 0 {
					cf.Remove(k, nil)
					live[k]--
				} else {
					cf.Add(k, nil)
					live[k]++
				}
			}
			// Drain down to a deterministic end state: everything removed.
			for k, n := range live {
				for j := 0; j < n; j++ {
					cf.Remove(k, nil)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stopDrain)
	dw.Wait()
	drain() // final catch-up

	src := cf.BitFilter()
	want, got := src.Snapshot(), replica.Snapshot()
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("replica diverges from source at byte %d: %02x vs %02x (ones src=%d replica=%d)",
				i, want[i], got[i], src.OnesCount(), replica.OnesCount())
		}
	}
	if cf.OnesCount() != 0 {
		// All keys were removed (saturation aside); with 4-bit counters and
		// ≤ ~24 adds per key collisions can saturate, so only sanity-check.
		t.Logf("residual ones after full removal (saturated counters): %d", cf.OnesCount())
	}
}

// Parallel Add/Remove with per-goroutine key spaces: entries accounting and
// lock-free Test visibility.
func TestCountingParallelAddRemove(t *testing.T) {
	cf := MustNewCountingFilter(1<<15, 4, hashing.DefaultSpec)
	var wg sync.WaitGroup
	const (
		workers = 8
		keys    = 500
	)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				cf.Add(fmt.Sprintf("g%d-%d", g, i), nil)
			}
			for i := 0; i < keys; i += 2 {
				cf.Remove(fmt.Sprintf("g%d-%d", g, i), nil)
			}
		}(g)
	}
	stop := make(chan struct{})
	var pw sync.WaitGroup
	pw.Add(1)
	go func() { // lock-free probes racing the writers
		defer pw.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
				cf.Test(fmt.Sprintf("g%d-%d", i%workers, i%keys))
				i++
			}
		}
	}()
	wg.Wait()
	close(stop)
	pw.Wait()
	if got, want := cf.Entries(), uint64(workers*keys/2); got != want {
		t.Fatalf("entries = %d, want %d", got, want)
	}
	for g := 0; g < workers; g++ {
		for i := 1; i < keys; i += 2 {
			if !cf.Test(fmt.Sprintf("g%d-%d", g, i)) {
				t.Fatalf("false negative for surviving key g%d-%d", g, i)
			}
		}
	}
}

// BenchmarkParallelTest measures the lock-free probe path under contention.
func BenchmarkParallelTest(b *testing.B) {
	f := MustNewFilter(1<<20, hashing.DefaultSpec)
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("http://bench/doc%d", i)
		f.Add(keys[i])
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			f.Test(keys[i%len(keys)])
			i++
		}
	})
}
