package core

import (
	"strings"
	"testing"
	"time"

	"summarycache/internal/bloom"
)

func TestRecommendValidation(t *testing.T) {
	if _, err := Recommend(0, 0, 0, 0); err == nil {
		t.Fatal("accepted zero cache size")
	}
	if _, err := Recommend(-1, 0, 0, 0); err == nil {
		t.Fatal("accepted negative cache size")
	}
}

// The paper's §V-F worked example: an 8 GB proxy stores ≈1M pages; at load
// factor 16 its Bloom summary is 2 MB per peer, and the counter array is
// ≈8 MB (4-bit counters over 16M positions → 8 MB).
func TestRecommendPaperWorkedExample(t *testing.T) {
	rec, err := Recommend(8<<30, 8192, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.ExpectedDocs != 1<<20 {
		t.Fatalf("docs = %d, want 1M", rec.ExpectedDocs)
	}
	if got, want := rec.SummaryBytesPerPeer, uint64(2<<20); got != want {
		t.Fatalf("summary bytes = %d, want %d (the paper's 2 MB)", got, want)
	}
	if got, want := rec.CounterBytes, uint64(8<<20); got != want {
		t.Fatalf("counter bytes = %d, want %d (the paper's 8 MB)", got, want)
	}
	// 100 peers ≈ 200 MB of summaries, the §V-F total.
	if total := 99 * rec.SummaryBytesPerPeer / (1 << 20); total < 190 || total > 210 {
		t.Fatalf("100-proxy summary table = %d MB, want ≈200", total)
	}
	// False positives stay small at lf 16 with k=4.
	if rec.PredictedFalsePositiveRate > 0.005 {
		t.Fatalf("predicted fp %.4f too high", rec.PredictedFalsePositiveRate)
	}
	if !strings.Contains(rec.String(), "Bloom") {
		t.Error("String() missing content")
	}
	// A zero average document size falls back to the paper's 8 KB.
	dflt, err := Recommend(8<<30, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dflt.SummaryBytesPerPeer != 2<<20 {
		t.Fatalf("default doc size: summary bytes = %d, want %d", dflt.SummaryBytesPerPeer, 2<<20)
	}
}

func TestRecommendInterval(t *testing.T) {
	// 1M docs, 100 req/s at 50% misses: 1% of 1M = 10486 new docs →
	// ≈210 s between updates ("roughly every five minutes to an hour"
	// covers bigger caches / lower rates).
	rec, err := Recommend(8<<30, 8192, 100, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if rec.SuggestedInterval < 100*time.Second || rec.SuggestedInterval > 600*time.Second {
		t.Fatalf("interval = %v, want minutes-scale", rec.SuggestedInterval)
	}
	// No rate given → no interval.
	rec, _ = Recommend(1<<30, 0, 0, 0)
	if rec.SuggestedInterval != 0 {
		t.Fatal("interval without rate")
	}
	if !strings.Contains(rec.String(), "summary-cache config") {
		t.Error("String() malformed")
	}
}

func TestRecommendTinyCache(t *testing.T) {
	rec, err := Recommend(1024, 8192, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.ExpectedDocs != 1 || rec.FilterBits == 0 {
		t.Fatalf("tiny cache recommendation degenerate: %+v", rec)
	}
	// The recommendation must build a working directory.
	d, err := bloom.NewDirectory(rec.Directory)
	if err != nil {
		t.Fatal(err)
	}
	d.Insert("http://x/")
	if d.Docs() != 1 || d.PendingFlips() == 0 {
		t.Fatal("recommended directory unusable")
	}
}
