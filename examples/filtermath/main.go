// Filtermath: reproduce Figure 4 and the §V-C analysis — the
// false-positive probability of a Bloom filter as a function of bits per
// entry, analytically and by Monte-Carlo against the real implementation,
// plus the counting-filter overflow bound that justifies 4-bit counters.
package main

import (
	"fmt"
	"math/rand"

	"summarycache/internal/bloom"
	"summarycache/internal/hashing"
)

func main() {
	fmt.Println("Figure 4: false-positive probability vs bits per entry")
	fmt.Printf("%-12s %-12s %-14s %-10s %-12s\n",
		"bits/entry", "k=4 (paper)", "optimal k", "p @ opt k", "bound .6185^r")
	const n = 1 << 16
	for _, r := range []float64{2, 4, 6, 8, 10, 12, 16, 20, 24, 32} {
		m := uint64(r * n)
		kOpt := bloom.OptimalK(m, n)
		fmt.Printf("%-12g %-12.2e k=%-11d %-10.2e %-12.2e\n",
			r,
			bloom.FalsePositiveRate(m, n, 4),
			kOpt,
			bloom.MinFalsePositiveRate(m, n),
			bloom.PowerBound(r),
		)
	}

	fmt.Println("\n§V-C worked example (\"bit array 10 times larger than the entries\"):")
	fmt.Printf("  k=4: %.4f (paper: 1.2%%)   k=5 (optimal): %.4f (paper: 0.9%%)\n",
		bloom.FalsePositiveRateApprox(10*n, n, 4),
		bloom.FalsePositiveRateApprox(10*n, n, 5))

	fmt.Println("\nMonte-Carlo validation against the real filter (lf=8, k=4):")
	rng := rand.New(rand.NewSource(1))
	const members = 50_000
	f := bloom.MustNewFilter(8*members, hashing.DefaultSpec)
	for i := 0; i < members; i++ {
		f.Add(fmt.Sprintf("http://site%d.net/page%d", rng.Intn(5000), i))
	}
	trials, fps := 500_000, 0
	for i := 0; i < trials; i++ {
		if f.Test(fmt.Sprintf("http://other%d.org/doc%d", rng.Intn(5000), i)) {
			fps++
		}
	}
	fmt.Printf("  empirical: %.4f   analytic: %.4f   fill ratio: %.3f\n",
		float64(fps)/float64(trials),
		bloom.FalsePositiveRate(8*members, members, 4),
		f.FillRatio())

	fmt.Println("\ncounting-filter overflow (why 4-bit counters suffice, §V-C):")
	fmt.Printf("%-14s %-22s\n", "counter bits", "Pr[any counter overflows]")
	for _, bits := range []int{2, 3, 4, 5} {
		j := 1 << bits
		fmt.Printf("%-14d %.3g\n", bits,
			bloom.CounterOverflowProbability(16*(1<<20), 1<<20, 4, j))
	}
	fmt.Println("\nexpected maximum counter at the paper's configuration (lf=16, k=4):",
		bloom.ExpectedMaxCount(16*(1<<20), 1<<20, 4))
}
