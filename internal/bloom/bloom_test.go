package bloom

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"summarycache/internal/hashing"
)

var testSpec = hashing.DefaultSpec

func TestNewFilterValidation(t *testing.T) {
	if _, err := NewFilter(0, testSpec); err != ErrBadSize {
		t.Fatalf("size 0: err = %v, want ErrBadSize", err)
	}
	if _, err := NewFilter(MaxBits+1, testSpec); err != ErrBadSize {
		t.Fatalf("oversize: err = %v, want ErrBadSize", err)
	}
	if _, err := NewFilter(1024, hashing.Spec{FunctionNum: 0, FunctionBits: 32}); err == nil {
		t.Fatal("accepted invalid spec")
	}
	f, err := NewFilter(1, testSpec)
	if err != nil || f.Size() != 1 {
		t.Fatalf("1-bit filter: %v, %v", f, err)
	}
}

func TestFilterAddTest(t *testing.T) {
	f := MustNewFilter(1<<16, testSpec)
	keys := []string{"http://a/", "http://b/", "http://c/x/y", ""}
	for _, k := range keys {
		if f.Test(k) {
			t.Errorf("empty filter claims %q present", k)
		}
	}
	for _, k := range keys {
		f.Add(k)
	}
	for _, k := range keys {
		if !f.Test(k) {
			t.Errorf("no false negatives allowed: %q missing", k)
		}
	}
}

func TestFilterSetClearBit(t *testing.T) {
	f := MustNewFilter(128, testSpec)
	changed, err := f.SetBit(5)
	if err != nil || !changed {
		t.Fatalf("SetBit(5) = %v, %v", changed, err)
	}
	changed, err = f.SetBit(5)
	if err != nil || changed {
		t.Fatalf("second SetBit(5) = %v, %v, want no change", changed, err)
	}
	if f.OnesCount() != 1 {
		t.Fatalf("ones = %d, want 1", f.OnesCount())
	}
	changed, err = f.ClearBit(5)
	if err != nil || !changed {
		t.Fatalf("ClearBit(5) = %v, %v", changed, err)
	}
	if f.OnesCount() != 0 {
		t.Fatalf("ones = %d, want 0", f.OnesCount())
	}
	if _, err := f.SetBit(128); err != ErrIndexRange {
		t.Fatalf("out-of-range SetBit err = %v", err)
	}
	if _, err := f.ClearBit(1 << 40); err != ErrIndexRange {
		t.Fatalf("out-of-range ClearBit err = %v", err)
	}
}

func TestFilterApply(t *testing.T) {
	f := MustNewFilter(256, testSpec)
	flips := []Flip{{Index: 3, Set: true}, {Index: 250, Set: true}, {Index: 3, Set: false}}
	if err := f.Apply(flips); err != nil {
		t.Fatal(err)
	}
	if f.OnesCount() != 1 {
		t.Fatalf("ones = %d, want 1", f.OnesCount())
	}
	if err := f.Apply([]Flip{{Index: 256, Set: true}}); err == nil {
		t.Fatal("Apply accepted out-of-range index")
	}
}

// Absolute flips must be idempotent: applying an update message twice (UDP
// duplication) leaves the filter identical.
func TestFilterApplyIdempotent(t *testing.T) {
	f := MustNewFilter(1024, testSpec)
	flips := []Flip{{1, true}, {2, true}, {700, true}, {2, false}}
	if err := f.Apply(flips); err != nil {
		t.Fatal(err)
	}
	before := f.Snapshot()
	if err := f.Apply(flips); err != nil {
		t.Fatal(err)
	}
	after := f.Snapshot()
	if string(before) != string(after) {
		t.Fatal("Apply is not idempotent")
	}
}

func TestFilterSnapshotRoundTrip(t *testing.T) {
	f := MustNewFilter(1000, testSpec) // deliberately not a multiple of 64
	for i := 0; i < 300; i++ {
		f.Add(fmt.Sprintf("http://host%d/doc", i))
	}
	snap := f.Snapshot()
	if len(snap) != 125 {
		t.Fatalf("snapshot size = %d, want 125", len(snap))
	}
	g := MustNewFilter(1000, testSpec)
	if err := g.LoadSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if g.OnesCount() != f.OnesCount() {
		t.Fatalf("ones after load = %d, want %d", g.OnesCount(), f.OnesCount())
	}
	for i := 0; i < 300; i++ {
		if !g.Test(fmt.Sprintf("http://host%d/doc", i)) {
			t.Fatalf("key %d lost in snapshot round trip", i)
		}
	}
	if err := g.LoadSnapshot(snap[:10]); err == nil {
		t.Fatal("LoadSnapshot accepted wrong-size snapshot")
	}
}

func TestFilterClone(t *testing.T) {
	f := MustNewFilter(512, testSpec)
	f.Add("x")
	g := f.Clone()
	g.Add("y")
	if f.Test("y") {
		t.Fatal("clone shares storage with original")
	}
	if !g.Test("x") {
		t.Fatal("clone lost original contents")
	}
}

func TestFilterReset(t *testing.T) {
	f := MustNewFilter(512, testSpec)
	f.Add("x")
	f.Reset()
	if f.OnesCount() != 0 || f.Test("x") {
		t.Fatal("Reset did not clear filter")
	}
}

func TestCountingFilterValidation(t *testing.T) {
	if _, err := NewCountingFilter(0, 4, testSpec); err != ErrBadSize {
		t.Fatalf("err = %v, want ErrBadSize", err)
	}
	if _, err := NewCountingFilter(64, 0, testSpec); err != ErrBadCounterBits {
		t.Fatalf("err = %v, want ErrBadCounterBits", err)
	}
	if _, err := NewCountingFilter(64, 17, testSpec); err != ErrBadCounterBits {
		t.Fatalf("err = %v, want ErrBadCounterBits", err)
	}
}

func TestCountingAddRemove(t *testing.T) {
	c := MustNewCountingFilter(1<<14, 4, testSpec)
	var flips []Flip
	flips = c.Add("http://a/", flips)
	if len(flips) != 4 {
		t.Fatalf("first add produced %d flips, want 4 (all bits fresh)", len(flips))
	}
	for _, fl := range flips {
		if !fl.Set {
			t.Fatal("add produced a clear flip")
		}
	}
	if !c.Test("http://a/") {
		t.Fatal("added key not found")
	}
	if c.Entries() != 1 {
		t.Fatalf("entries = %d, want 1", c.Entries())
	}
	flips = c.Remove("http://a/", nil)
	if len(flips) != 4 {
		t.Fatalf("remove produced %d flips, want 4", len(flips))
	}
	for _, fl := range flips {
		if fl.Set {
			t.Fatal("remove produced a set flip")
		}
	}
	if c.Test("http://a/") {
		t.Fatal("removed key still present")
	}
	if c.OnesCount() != 0 || c.Entries() != 0 {
		t.Fatalf("filter not empty after removal: ones=%d entries=%d", c.OnesCount(), c.Entries())
	}
}

func TestCountingSharedBitsNoFlipUntilZero(t *testing.T) {
	c := MustNewCountingFilter(1<<14, 4, testSpec)
	c.Add("k", nil)
	flips := c.Add("k", nil) // same key again: counters 1→2, no bit transitions
	if len(flips) != 0 {
		t.Fatalf("duplicate add produced %d flips, want 0", len(flips))
	}
	flips = c.Remove("k", nil) // 2→1: still no transitions
	if len(flips) != 0 {
		t.Fatalf("first remove produced %d flips, want 0", len(flips))
	}
	if !c.Test("k") {
		t.Fatal("key vanished while count still positive")
	}
	flips = c.Remove("k", nil) // 1→0: four clear flips
	if len(flips) != 4 {
		t.Fatalf("final remove produced %d flips, want 4", len(flips))
	}
}

func TestCountingSaturation(t *testing.T) {
	c := MustNewCountingFilter(64, 2, testSpec) // tiny: counters max at 3
	for i := 0; i < 50; i++ {
		c.Add("k", nil)
	}
	if c.Saturations() == 0 {
		t.Fatal("expected saturations with 2-bit counters and 50 inserts")
	}
	if got := c.MaxCount(); got != 3 {
		t.Fatalf("max count = %d, want saturation value 3", got)
	}
	// Saturated counters never decrement: removing 50 times leaves the bits set.
	for i := 0; i < 50; i++ {
		c.Remove("k", nil)
	}
	if !c.Test("k") {
		t.Fatal("saturated counters were decremented")
	}
}

func TestCountingUnderflowIgnored(t *testing.T) {
	c := MustNewCountingFilter(1<<12, 4, testSpec)
	flips := c.Remove("never-added", nil)
	if len(flips) != 0 {
		t.Fatalf("underflow produced flips: %v", flips)
	}
	if v, _ := c.Count(0); v != 0 {
		t.Fatal("underflow modified counters")
	}
}

// TestRemoveUnderflowSaturates pins the underflow guard: decrementing a
// counter already at zero is a counted no-op, never a wrap to cmax that
// would assert membership for unrelated keys. The double removal here is a
// caller breaking delete-after-insert discipline.
func TestRemoveUnderflowSaturates(t *testing.T) {
	c := MustNewCountingFilter(256, 4, testSpec)
	c.Add("doc", nil)
	c.Remove("doc", nil)
	if got := c.Underflows(); got != 0 {
		t.Fatalf("clean add/remove recorded %d underflows", got)
	}
	c.Remove("doc", nil) // double-applied removal
	if got := c.Underflows(); got == 0 {
		t.Fatal("double removal recorded no underflows")
	}
	if c.Test("doc") {
		t.Fatal("underflow wrapped a counter: phantom membership")
	}
	for i := uint64(0); i < c.Size(); i++ {
		if v, _ := c.Count(i); v != 0 {
			t.Fatalf("counter %d nonzero (%d) after underflow", i, v)
		}
	}
}

func TestCountingCountAccess(t *testing.T) {
	c := MustNewCountingFilter(128, 4, testSpec)
	if _, err := c.Count(128); err != ErrIndexRange {
		t.Fatalf("err = %v, want ErrIndexRange", err)
	}
}

func TestCountingBitFilterDerivation(t *testing.T) {
	c := MustNewCountingFilter(1<<12, 4, testSpec)
	keys := []string{"a", "b", "c", "d", "e"}
	for _, k := range keys {
		c.Add(k, nil)
	}
	f := c.BitFilter()
	for _, k := range keys {
		if !f.Test(k) {
			t.Fatalf("derived filter missing %q", k)
		}
	}
	if f.OnesCount() != c.OnesCount() {
		t.Fatalf("derived ones=%d, counting ones=%d", f.OnesCount(), c.OnesCount())
	}
}

// Core protocol invariant: replaying the flip journal into a remote plain
// filter reproduces exactly the bit filter derived from the local counting
// filter, across an arbitrary interleaving of adds and removes.
func TestFlipJournalEquivalence(t *testing.T) {
	const m = 1 << 13
	c := MustNewCountingFilter(m, 4, testSpec)
	remote := MustNewFilter(m, testSpec)
	rng := rand.New(rand.NewSource(42))
	live := map[string]bool{}
	var journal []Flip
	for step := 0; step < 5000; step++ {
		if len(live) == 0 || rng.Intn(3) != 0 {
			k := fmt.Sprintf("http://h%d/d%d", rng.Intn(50), rng.Intn(2000))
			if !live[k] {
				live[k] = true
				journal = c.Add(k, journal)
			}
		} else {
			for k := range live {
				delete(live, k)
				journal = c.Remove(k, journal)
				break
			}
		}
	}
	if err := remote.Apply(journal); err != nil {
		t.Fatal(err)
	}
	local := c.BitFilter()
	if remote.OnesCount() != local.OnesCount() {
		t.Fatalf("remote ones=%d, local ones=%d", remote.OnesCount(), local.OnesCount())
	}
	if string(remote.Snapshot()) != string(local.Snapshot()) {
		t.Fatal("journal replay diverged from local bit filter")
	}
	for k := range live {
		if !remote.Test(k) {
			t.Fatalf("live key %q missing from remote filter", k)
		}
	}
}

func TestCountingReset(t *testing.T) {
	c := MustNewCountingFilter(1<<10, 4, testSpec)
	c.Add("x", nil)
	c.Reset()
	if c.OnesCount() != 0 || c.Entries() != 0 || c.Test("x") {
		t.Fatal("Reset did not clear counting filter")
	}
}

func TestCountingMemoryBytes(t *testing.T) {
	c := MustNewCountingFilter(1<<20, 4, testSpec)
	// 2^20 counters at 4 bits = 512 KiB.
	if got := c.MemoryBytes(); got != 1<<19 {
		t.Fatalf("MemoryBytes = %d, want %d", got, 1<<19)
	}
}

// Property: a counting filter never yields a false negative for live keys,
// under random add/remove interleavings (with counters wide enough not to
// saturate).
func TestQuickNoFalseNegatives(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := MustNewCountingFilter(1<<12, 8, testSpec)
		live := map[string]bool{}
		for i := 0; i < 300; i++ {
			k := fmt.Sprintf("k%d", rng.Intn(100))
			if live[k] {
				c.Remove(k, nil)
				delete(live, k)
			} else {
				c.Add(k, nil)
				live[k] = true
			}
		}
		for k := range live {
			if !c.Test(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: OnesCount always equals the popcount of the snapshot.
func TestQuickOnesCountConsistent(t *testing.T) {
	prop := func(keys []string) bool {
		f := MustNewFilter(4096, testSpec)
		for _, k := range keys {
			f.Add(k)
		}
		var pop uint64
		for _, b := range f.Snapshot() {
			for ; b != 0; b &= b - 1 {
				pop++
			}
		}
		return pop == f.OnesCount()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentFilterAccess(t *testing.T) {
	f := MustNewFilter(1<<16, testSpec)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				k := fmt.Sprintf("g%d-k%d", g, i)
				f.Add(k)
				if !f.Test(k) {
					t.Errorf("concurrent false negative for %s", k)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

func BenchmarkFilterAdd(b *testing.B) {
	f := MustNewFilter(1<<23, testSpec)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Add("http://www.example.com/path/to/document.html")
	}
}

func BenchmarkFilterTest(b *testing.B) {
	f := MustNewFilter(1<<23, testSpec)
	f.Add("http://www.example.com/path/to/document.html")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Test("http://www.example.com/path/to/document.html")
	}
}

func BenchmarkCountingAdd(b *testing.B) {
	c := MustNewCountingFilter(1<<23, 4, testSpec)
	flips := make([]Flip, 0, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		flips = c.Add("http://www.example.com/path/to/document.html", flips[:0])
	}
}

// The summary probe and the counting filter's insert/delete hash a 200-byte
// URL from the stack and keep its indices there: none of them allocates.
func TestProbeZeroAlloc(t *testing.T) {
	url := "http://example.com/" + strings.Repeat("p", 181)
	f := MustNewFilter(1<<20, testSpec)
	f.Add(url)
	c := MustNewCountingFilter(1<<20, DefaultCounterBits, testSpec)
	flips := make([]Flip, 0, 2*testSpec.FunctionNum)
	for name, op := range map[string]func(){
		"Filter.Test": func() {
			if !f.Test(url) {
				t.Fatal("added key not found")
			}
		},
		"CountingFilter.Add/Remove": func() {
			flips = c.Add(url, flips[:0])
			flips = c.Remove(url, flips)
		},
	} {
		if n := testing.AllocsPerRun(100, op); n != 0 {
			t.Errorf("%s allocated %v times per run, want 0", name, n)
		}
	}
}

// With journaling on, Add and Remove also append every flip to the
// filter's one journal, which keeps its array across drains: once a
// publication cycle has sized it, journaling allocates nothing either.
func TestJournalingZeroAlloc(t *testing.T) {
	url := "http://example.com/" + strings.Repeat("j", 181)
	c := MustNewCountingFilter(1<<20, DefaultCounterBits, testSpec)
	c.EnableJournal()
	flips := make([]Flip, 0, 2*testSpec.FunctionNum)
	cycle := func() {
		flips = c.Add(url, flips[:0])
		flips = c.Remove(url, flips)
	}
	for i := 0; i < 200; i++ {
		cycle()
	}
	c.DrainJournal() // one publication; the journal keeps its array
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("journaling Add/Remove allocated %v times per run, want 0", n)
	}
	if got, want := c.PendingFlips(), 101*len(flips); got != want {
		t.Fatalf("%d flips journaled over 101 cycles, want %d", got, want)
	}
}

// TestJournalBurstReleased: a burst of flips far past journalRetainCap (a
// directory rebuilt from a recovered cache's keys, a mass purge) drains
// whole, and the journal does not keep the burst's array afterwards; a
// cycle below the cap keeps its array for the next one.
func TestJournalBurstReleased(t *testing.T) {
	c := MustNewCountingFilter(1<<16, DefaultCounterBits, testSpec)
	c.EnableJournal()
	var scratch [2 * stackK]Flip
	for i := 0; c.PendingFlips() < 1<<20; i++ {
		key := fmt.Sprintf("http://burst/%d", i)
		c.Add(key, scratch[:0])
		c.Remove(key, scratch[:0])
	}
	n := c.PendingFlips()
	if got := len(c.DrainJournal()); got != n || c.PendingFlips() != 0 {
		t.Fatalf("drained %d of %d flips, %d left pending", got, n, c.PendingFlips())
	}
	if got := cap(c.journal); got > journalRetainCap {
		t.Fatalf("journal keeps capacity %d after draining a %d-flip burst, want at most %d",
			got, n, journalRetainCap)
	}
	c.Add("http://steady/", scratch[:0])
	c.DrainJournal()
	if cap(c.journal) == 0 {
		t.Fatal("a drain below the cap released the journal's array")
	}
}
