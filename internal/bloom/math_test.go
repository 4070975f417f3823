package bloom

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"summarycache/internal/hashing"
)

func approxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// Pin the example constants published in §V-C: "for a bit array 10 times
// larger than the number of entries, the probability of a false positive is
// 1.2% for four hash functions, and 0.9% for the optimum case of five hash
// functions."
func TestPaperConstants(t *testing.T) {
	ex := PaperExampleRates()
	if !approxEq(ex["lf10_k4"], 0.0118, 0.0005) {
		t.Errorf("lf=10 k=4: got %.5f, want ≈0.0118 (paper: 1.2%%)", ex["lf10_k4"])
	}
	if !approxEq(ex["lf10_k5"], 0.0094, 0.0005) {
		t.Errorf("lf=10 k=5: got %.5f, want ≈0.0094 (paper: 0.9%%)", ex["lf10_k5"])
	}
	// The paper's trace configurations: lf=8 "1% to 2%" with 4 functions.
	if ex["lf8_k4"] < 0.01 || ex["lf8_k4"] > 0.03 {
		t.Errorf("lf=8 k=4: got %.5f, want in the paper's 1-2%% band", ex["lf8_k4"])
	}
	// The exact form at the same configuration.
	if p := FalsePositiveRate(8<<20, 1<<20, 4); p < 0.02 || p > 0.03 {
		t.Errorf("exact lf=8 k=4 over 1M docs: got %.5f, want in [0.02, 0.03]", p)
	}
}

func TestFalsePositiveRateEdges(t *testing.T) {
	if got := FalsePositiveRate(0, 10, 4); got != 1 {
		t.Errorf("m=0: got %v, want 1", got)
	}
	if got := FalsePositiveRate(100, 0, 4); got != 0 {
		t.Errorf("n=0: got %v, want 0", got)
	}
	if got := FalsePositiveRate(100, 10, 0); got != 1 {
		t.Errorf("k=0: got %v, want 1", got)
	}
	// Exact and approximate forms converge for large m.
	exact := FalsePositiveRate(1<<24, 1<<20, 4)
	approx := FalsePositiveRateApprox(1<<24, 1<<20, 4)
	if !approxEq(exact, approx, 1e-6) {
		t.Errorf("exact %.8f vs approx %.8f diverge", exact, approx)
	}
}

func TestFalsePositiveMonotonicity(t *testing.T) {
	// More memory → fewer false positives, at fixed n and k.
	const n = 100000
	prev := 1.0
	for lf := 2; lf <= 64; lf *= 2 {
		p := FalsePositiveRate(uint64(lf)*n, n, 4)
		if p >= prev {
			t.Fatalf("fp rate not decreasing in m: lf=%d p=%g prev=%g", lf, p, prev)
		}
		prev = p
	}
}

func TestOptimalK(t *testing.T) {
	cases := []struct {
		lf   float64
		want int
	}{
		{8, 6}, {16, 11}, {10, 7}, // ln2*lf rounded to the better neighbor
	}
	const n = 1 << 18
	for _, c := range cases {
		m := uint64(c.lf * n)
		got := OptimalK(m, n)
		if got != c.want {
			t.Errorf("OptimalK(lf=%v) = %d, want %d", c.lf, got, c.want)
		}
		// The optimum must not be beaten by its neighbors.
		for _, k := range []int{got - 1, got + 1} {
			if k >= 1 && FalsePositiveRate(m, n, k) < FalsePositiveRate(m, n, got) {
				t.Errorf("OptimalK(lf=%v)=%d beaten by k=%d", c.lf, got, k)
			}
		}
	}
	// The paper's million-document cache at load factor 16.
	if got := OptimalK(16<<20, 1<<20); got != 11 {
		t.Errorf("OptimalK(16M bits, 1M docs) = %d, want 11", got)
	}
	if OptimalK(100, 0) != 1 {
		t.Error("OptimalK with n=0 should return 1")
	}
}

// Figure 4's lower curve is the straight line (0.6185)^(m/n) on a log
// scale; the computed optimum must track it closely.
func TestPowerBoundTracksOptimum(t *testing.T) {
	const n = 1 << 18
	for lf := 4.0; lf <= 32; lf += 4 {
		bound := PowerBound(lf)
		actual := MinFalsePositiveRate(uint64(lf*n), n)
		if actual > bound*1.15 {
			t.Errorf("lf=%v: optimum %.3g exceeds power bound %.3g", lf, actual, bound)
		}
		if actual < bound*0.5 {
			t.Errorf("lf=%v: optimum %.3g implausibly below bound %.3g", lf, actual, bound)
		}
	}
}

// Monte-Carlo validation of the analytic false-positive rate using the real
// filter implementation — the empirical backing for Figure 4.
func TestEmpiricalFalsePositiveRate(t *testing.T) {
	if testing.Short() {
		t.Skip("monte carlo")
	}
	const n = 20000
	for _, lf := range []int{8, 16} {
		m := uint64(lf * n)
		f := MustNewFilter(m, hashing.DefaultSpec)
		for i := 0; i < n; i++ {
			f.Add(fmt.Sprintf("http://member%d/", i))
		}
		trials, fps := 200000, 0
		for i := 0; i < trials; i++ {
			if f.Test(fmt.Sprintf("http://nonmember%d/", i)) {
				fps++
			}
		}
		got := float64(fps) / float64(trials)
		want := FalsePositiveRate(m, n, 4)
		if math.Abs(got-want) > want*0.25+0.0005 {
			t.Errorf("lf=%d: empirical fp %.5f vs analytic %.5f", lf, got, want)
		}
	}
}

func TestCounterOverflowProbability(t *testing.T) {
	// Paper: with 4 bits per count (j=16) overflow probability is minuscule.
	const n = 1 << 20
	p := CounterOverflowProbability(16*n, n, 4, 16)
	if p > 1e-10 {
		t.Errorf("overflow probability %.3g not minuscule", p)
	}
	// But with 1-bit counters (j=2) it is essentially certain for dense fills.
	p = CounterOverflowProbability(2*n, n, 4, 2)
	if p < 0.99 {
		t.Errorf("j=2 overflow bound %.3g should be ~1", p)
	}
}

func TestExpectedMaxCount(t *testing.T) {
	// At load factor 16 with k=4 the expected max counter is single-digit,
	// comfortably below the 4-bit saturation of 15.
	got := ExpectedMaxCount(16<<20, 1<<20, 4)
	if got < 2 || got >= 15 {
		t.Errorf("expected max count %v out of plausible band [2,15)", got)
	}
}

// Empirical check: with the paper's configuration the max counter stays
// far below 15.
func TestEmpiricalMaxCounter(t *testing.T) {
	if testing.Short() {
		t.Skip("monte carlo")
	}
	const n = 50000
	c := MustNewCountingFilter(16*n, 4, hashing.DefaultSpec)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		c.Add(fmt.Sprintf("http://h%d/p%d", rng.Intn(1000), i), nil)
	}
	if max := c.MaxCount(); max >= 15 {
		t.Errorf("max counter %d saturated at paper's configuration", max)
	}
	if c.Saturations() != 0 {
		t.Errorf("unexpected saturations: %d", c.Saturations())
	}
}

func TestSizeForLoadFactor(t *testing.T) {
	cases := []struct {
		entries uint64
		lf      float64
		check   func(uint64) bool
	}{
		{0, 8, func(m uint64) bool { return m == 64 }},
		{1, 8, func(m uint64) bool { return m == 64 }},
		{1000, 8, func(m uint64) bool { return m >= 8000 && m%64 == 0 }},
		{1 << 30, 32, func(m uint64) bool { return m == MaxBits }},
	}
	for _, c := range cases {
		if got := SizeForLoadFactor(c.entries, c.lf); !c.check(got) {
			t.Errorf("SizeForLoadFactor(%d, %v) = %d fails invariant", c.entries, c.lf, got)
		}
	}
}

func BenchmarkFalsePositiveRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		FalsePositiveRate(1<<24, 1<<20, 4)
	}
}
