package bloom_test

import (
	"fmt"

	"summarycache/internal/bloom"
	"summarycache/internal/hashing"
)

// Build a plain filter, probe it, and inspect the analytic false-positive
// rate — the §V-C basics.
func ExampleFilter() {
	f := bloom.MustNewFilter(8*1000, hashing.DefaultSpec) // load factor 8 for 1000 docs
	f.Add("http://example.com/index.html")
	fmt.Println(f.Test("http://example.com/index.html"))
	fmt.Println(f.Test("http://example.com/other.html"))
	fmt.Printf("%.3f\n", bloom.FalsePositiveRate(f.Size(), 1000, f.K()))
	// Output:
	// true
	// false
	// 0.024
}

// A counting filter supports deletion and journals the bit flips that
// become directory-update messages.
func ExampleCountingFilter() {
	c := bloom.MustNewCountingFilter(1<<12, 4, hashing.DefaultSpec)
	setFlips := c.Add("http://example.com/doc", nil)
	fmt.Println("flips on insert:", len(setFlips))
	fmt.Println("present:", c.Test("http://example.com/doc"))
	clearFlips := c.Remove("http://example.com/doc", nil)
	fmt.Println("flips on remove:", len(clearFlips))
	fmt.Println("present:", c.Test("http://example.com/doc"))
	// Output:
	// flips on insert: 4
	// present: true
	// flips on remove: 4
	// present: false
}

// Replaying a flip journal into a remote replica reproduces the local
// directory — the invariant the wire protocol rests on.
func ExampleFilter_Apply() {
	local := bloom.MustNewCountingFilter(1<<10, 4, hashing.DefaultSpec)
	remote := bloom.MustNewFilter(1<<10, hashing.DefaultSpec)

	var journal []bloom.Flip
	journal = local.Add("http://a/", journal)
	journal = local.Add("http://b/", journal)
	journal = local.Remove("http://a/", journal)

	if err := remote.Apply(journal); err != nil {
		panic(err)
	}
	fmt.Println(remote.Test("http://a/"), remote.Test("http://b/"))
	// Output:
	// false true
}

// OptimalK and the load-factor tradeoff of Figure 4.
func ExampleOptimalK() {
	const n = 1 << 20
	for _, lf := range []uint64{8, 10, 16} {
		m := lf * n
		fmt.Printf("lf=%d: k*=%d p*=%.4f p(k=4)=%.4f\n",
			lf, bloom.OptimalK(m, n), bloom.MinFalsePositiveRate(m, n),
			bloom.FalsePositiveRate(m, n, 4))
	}
	// Output:
	// lf=8: k*=6 p*=0.0216 p(k=4)=0.0240
	// lf=10: k*=7 p*=0.0082 p(k=4)=0.0118
	// lf=16: k*=11 p*=0.0005 p(k=4)=0.0024
}

// A directory journals its cache's changes as bit flips; a peer's replica
// applies the drained flips once the publication rule says they are due.
func ExampleDirectory() {
	dir, _ := bloom.NewDirectory(bloom.DirectoryConfig{
		ExpectedDocs: 1000, UpdateThreshold: 0.01,
	})
	dir.Insert("http://example.com/a")
	dir.Insert("http://example.com/b")
	dir.Remove("http://example.com/a")
	fmt.Println(dir.ShouldPublish())

	replica := bloom.MustNewFilter(dir.Bits(), dir.Spec())
	if err := replica.Apply(dir.Drain()); err != nil {
		panic(err)
	}
	fmt.Println(replica.Test("http://example.com/a"), replica.Test("http://example.com/b"))
	fmt.Println(dir.ShouldPublish())
	// Output:
	// true
	// false true
	// false
}
