package core

import (
	"fmt"
	"time"

	"summarycache/internal/bloom"
	"summarycache/internal/hashing"
)

// Recommendation packages the paper's §V-E "Recommended Configurations"
// for a proxy of a given cache size: "The update threshold should be
// between 1% and 10% ... The summary should be in the form of a Bloom
// filter. A load factor between 8 and 16 works well ... Based on the load
// factor, four or more hash functions should be used. ... For hash
// functions, we recommend taking disjoint groups of bits from the 128-bit
// MD5 signature of the URL."
type Recommendation struct {
	Directory bloom.DirectoryConfig
	// ExpectedDocs is the entry estimate behind the sizing
	// (cache bytes / average document size).
	ExpectedDocs uint64
	// FilterBits is the resulting Bloom array size.
	FilterBits uint64
	// SummaryBytesPerPeer is the memory each neighbor dedicates to this
	// proxy's summary.
	SummaryBytesPerPeer uint64
	// CounterBytes is the local counting-filter memory.
	CounterBytes uint64
	// PredictedFalsePositiveRate is the per-filter analytic rate at full
	// occupancy.
	PredictedFalsePositiveRate float64
	// SuggestedInterval translates the threshold into a time-based update
	// period given a request rate and miss ratio (the paper: "roughly
	// every five minutes to an hour").
	SuggestedInterval time.Duration
}

// Recommend derives the paper's recommended configuration. avgDocBytes is
// the proxy's mean cacheable document size (0: the paper's 8 KB);
// requestsPerSecond and missRatio, when positive, also derive a time-based
// update interval equivalent to the 1% threshold.
func Recommend(cacheBytes int64, avgDocBytes int64, requestsPerSecond, missRatio float64) (Recommendation, error) {
	if cacheBytes <= 0 {
		return Recommendation{}, fmt.Errorf("core: cacheBytes must be positive, got %d", cacheBytes)
	}
	if avgDocBytes <= 0 {
		avgDocBytes = 8192 // the paper's average document size
	}
	docs := uint64(cacheBytes / avgDocBytes)
	if docs == 0 {
		docs = 1
	}
	const (
		loadFactor = 16   // paper: "between 8 and 16 works well"
		threshold  = 0.01 // paper: "between 1% and 10%"; pick the safe end
	)
	dir := bloom.DirectoryConfig{
		ExpectedDocs:    docs,
		LoadFactor:      loadFactor,
		HashSpec:        hashing.DefaultSpec, // 4 × 32-bit MD5 groups
		CounterBits:     4,                   // §V-C: "amply sufficient"
		UpdateThreshold: threshold,
	}
	bits := bloom.SizeForLoadFactor(docs, loadFactor)
	rec := Recommendation{
		Directory:                  dir,
		ExpectedDocs:               docs,
		FilterBits:                 bits,
		SummaryBytesPerPeer:        (bits + 7) / 8,
		CounterBytes:               (bits*uint64(dir.CounterBits) + 7) / 8,
		PredictedFalsePositiveRate: bloom.FalsePositiveRate(bits, docs, dir.HashSpec.FunctionNum),
	}
	if requestsPerSecond > 0 && missRatio > 0 && missRatio <= 1 {
		// New documents accumulate at ≈ requestRate × missRatio; the
		// threshold trips after threshold × docs of them.
		newDocsPerSecond := requestsPerSecond * missRatio
		rec.SuggestedInterval = time.Duration(threshold * float64(docs) / newDocsPerSecond * float64(time.Second))
	}
	return rec, nil
}

// String renders the recommendation as a human-readable configuration.
func (r Recommendation) String() string {
	s := fmt.Sprintf("summary-cache config: %d docs expected, %d-bit Bloom filter (lf %g, k=%d), "+
		"%.2f%% predicted false positives, %d B/peer summary, %d B counters, %.0f%% update threshold",
		r.ExpectedDocs, r.FilterBits, r.Directory.LoadFactor, r.Directory.HashSpec.FunctionNum,
		100*r.PredictedFalsePositiveRate, r.SummaryBytesPerPeer, r.CounterBytes,
		100*r.Directory.UpdateThreshold)
	if r.SuggestedInterval > 0 {
		s += fmt.Sprintf(", ≈%v between updates", r.SuggestedInterval.Round(time.Second))
	}
	return s
}
