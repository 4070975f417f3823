package main

import (
	"math"
	"testing"
)

// With n equally popular documents of one size and room for k of them, the
// characteristic time solves n·s·(1 − e^(−T/n)) = k·s, so every document is
// present with probability k/n and the hit ratio is k/n exactly.
func TestCheUniformClosedForm(t *testing.T) {
	const n, docSize = 1000, 4096
	prob := make([]float64, n)
	size := make([]int64, n)
	for i := range prob {
		prob[i], size[i] = 1.0/n, docSize
	}
	for _, k := range []int{1, 10, 250, 999} {
		got := cheHitRatio(prob, size, int64(k)*docSize)
		if want := float64(k) / n; math.Abs(got-want) > 1e-6 {
			t.Errorf("capacity of %d documents: hit ratio %v, want %v", k, got, want)
		}
	}
}

// A cache that holds everything hits every request for a document it is
// given, and only those: the caller leaves out what the cache refuses.
func TestCheEverythingFits(t *testing.T) {
	prob := []float64{0.5, 0.2, 0.1} // the missing 0.2 asks for uncacheable documents
	size := []int64{100, 200, 300}
	if got := cheHitRatio(prob, size, 600); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("hit ratio %v, want 0.8", got)
	}
}

// Popular documents are likelier to be present, so the hit ratio under a
// skewed popularity exceeds the share of bytes the cache holds.
func TestCheSkewBeatsUniform(t *testing.T) {
	const n = 1000
	prob := make([]float64, n)
	size := make([]int64, n)
	sum := 0.0
	for i := range prob {
		prob[i], size[i] = 1/float64(i+1), 1024
		sum += prob[i]
	}
	for i := range prob {
		prob[i] /= sum
	}
	if got := cheHitRatio(prob, size, n*1024/10); got <= 0.1 || got >= 1 {
		t.Errorf("hit ratio %v with a tenth of the bytes cached, want between 0.1 and 1", got)
	}
}
