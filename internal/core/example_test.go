package core_test

import (
	"fmt"

	"summarycache/internal/core"
)

// The paper's §V-E sizing rules for a given proxy.
func ExampleRecommend() {
	rec, _ := core.Recommend(8<<30, 8192, 0, 0) // the paper's 8 GB example
	fmt.Printf("expected docs: %d\n", rec.ExpectedDocs)
	fmt.Printf("summary per peer: %d MB\n", rec.SummaryBytesPerPeer>>20)
	fmt.Printf("counters: %d MB\n", rec.CounterBytes>>20)
	fmt.Printf("hash functions: %d\n", rec.Directory.HashSpec.FunctionNum)
	// Output:
	// expected docs: 1048576
	// summary per peer: 2 MB
	// counters: 8 MB
	// hash functions: 4
}
