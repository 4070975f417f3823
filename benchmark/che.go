package main

import "math"

// cheHitRatio is the Che approximation of an LRU cache's request hit ratio
// under the independent reference model, for documents of unequal size
// (Martina, Garetto, Leonardi, "A unified approach to the performance
// analysis of caching systems"): the characteristic time T solves
// Σ sᵢ(1 − e^(−pᵢT)) = capacity, and document i is then hit with
// probability 1 − e^(−pᵢT). prob[i] is the share of all requests that ask
// for document i; documents the cache refuses are left out by the caller,
// so the shares may sum to less than 1.
func cheHitRatio(prob []float64, size []int64, capacity int64) float64 {
	occupied := func(t float64) float64 {
		sum := 0.0
		for i, p := range prob {
			sum += float64(size[i]) * -math.Expm1(-p*t)
		}
		return sum
	}
	total := 0.0
	for _, s := range size {
		total += float64(s)
	}
	hit := 0.0
	if total <= float64(capacity) { // everything fits: only cold misses, which the model ignores
		for _, p := range prob {
			hit += p
		}
		return hit
	}
	lo, hi := 0.0, 1.0
	for occupied(hi) < float64(capacity) {
		hi *= 2
	}
	for i := 0; i < 100 && hi-lo > 1e-9*hi; i++ {
		mid := (lo + hi) / 2
		if occupied(mid) < float64(capacity) {
			lo = mid
		} else {
			hi = mid
		}
	}
	t := (lo + hi) / 2
	for _, p := range prob {
		hit += p * -math.Expm1(-p*t)
	}
	return hit
}
