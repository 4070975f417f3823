package sim

import (
	"fmt"
	"testing"

	"summarycache/internal/bloom"
	"summarycache/internal/hashing"
)

func pk(url string) probeKey { return probeKey{key: url} }

func bloomPK(t *testing.T, url string, m uint64) probeKey {
	t.Helper()
	fam := hashing.MustNew(hashing.DefaultSpec)
	idx, err := fam.Indexes(nil, url, m)
	if err != nil {
		t.Fatal(err)
	}
	return probeKey{key: url, idx: idx}
}

func TestExactDirSummaryLifecycle(t *testing.T) {
	s := newSetSummary(PaperMessageModel, false, bloom.DirectoryConfig{})
	if s.probe(pk("http://a/")) || s.due() {
		t.Fatal("empty summary probed true or wants to publish")
	}
	s.insert("http://a/")
	s.insert("http://b/")
	if s.probe(pk("http://a/")) {
		t.Fatal("unpublished insert visible (summaries are delayed by design)")
	}
	if len(s.journal) != 2 || !s.due() {
		t.Fatalf("pending = %d, due = %v; threshold 0 publishes every new document", len(s.journal), s.due())
	}
	bytes := s.publish()
	// 20-byte header + 16 bytes per change (the paper's cost model).
	if bytes != 20+2*16 {
		t.Fatalf("publish bytes = %d, want 52", bytes)
	}
	if !s.probe(pk("http://a/")) || !s.probe(pk("http://b/")) || s.due() {
		t.Fatal("published entries not visible, or still due")
	}
	if s.memoryBytes() != 2*16 {
		t.Fatalf("memory = %d, want 32 (16B MD5 per entry)", s.memoryBytes())
	}
	s.remove("http://a/")
	s.publish()
	if s.probe(pk("http://a/")) {
		t.Fatal("removed entry still visible after publish")
	}
	if s.counterBytes() != 0 {
		t.Fatal("exact-dir has no counters")
	}
}

// TestSetSummaryPublicationRule: a set summary publishes under the same
// rule as a Bloom directory, its floor counted in journal entries.
func TestSetSummaryPublicationRule(t *testing.T) {
	s := newSetSummary(PaperMessageModel, false, bloom.DirectoryConfig{UpdateThreshold: 0.5, MinPending: 3})
	for i := 0; i < 4; i++ {
		s.insert(fmt.Sprintf("http://h/%d", i))
	}
	s.publish()
	s.insert("http://new/1") // 1 new of 5 docs: under the threshold
	if s.due() {
		t.Fatal("due with 1 of 5 documents new at threshold 0.5")
	}
	s.insert("http://new/2")
	s.insert("http://new/3") // 3 new of 7 docs: still under
	s.insert("http://new/4") // 4 new of 8: at the threshold, 4 entries pending
	if !s.due() {
		t.Fatal("not due with 4 of 8 documents new and 4 entries pending")
	}
	s.publish()
	for i := 0; i < 8; i++ {
		s.remove(fmt.Sprintf("http://h/%d", i))
	}
	s.remove("http://new/1")
	s.remove("http://new/2") // 2 docs left, 6 removals pending, nothing new
	if s.due() {
		t.Fatal("removals alone tripped a nonzero threshold")
	}
	s.insert("http://h/0") // 1 new of 3 docs, but 7 entries pending
	if s.due() {
		t.Fatal("due with 1 of 3 documents new at threshold 0.5")
	}
	s.insert("http://h/1")
	if !s.due() {
		t.Fatal("not due with 2 of 4 documents new")
	}
}

func TestServerNameSummaryRefCounting(t *testing.T) {
	s := newSetSummary(PaperMessageModel, true, bloom.DirectoryConfig{})
	pk := func(url string) probeKey { return probeKey{key: ServerOf(url)} }
	s.insert("http://host.com/a")
	s.insert("http://host.com/b") // same server: no new journal entry
	if len(s.journal) != 1 || s.docs != 2 {
		t.Fatalf("pending = %d, docs = %d, want 1 server of 2 documents", len(s.journal), s.docs)
	}
	s.publish()
	if !s.probe(pk("http://host.com/anything")) {
		t.Fatal("server not visible")
	}
	if want := uint64(len("host.com") + 8); s.memoryBytes() != want {
		t.Fatalf("memory = %d, want %d", s.memoryBytes(), want)
	}
	// Removing one URL keeps the server; removing both drops it.
	s.remove("http://host.com/a")
	if len(s.journal) != 0 {
		t.Fatalf("pending = %d after partial removal, want 0", len(s.journal))
	}
	s.remove("http://host.com/b")
	if len(s.journal) != 1 {
		t.Fatalf("pending = %d after full removal, want 1", len(s.journal))
	}
	s.publish()
	if s.probe(pk("http://host.com/anything")) {
		t.Fatal("server visible after all URLs removed")
	}
	// Underflow remove is ignored.
	s.remove("http://never.com/x")
	if len(s.journal) != 0 || s.docs != 0 {
		t.Fatal("underflow journaled a change")
	}
	if s.memoryBytes() != 0 {
		t.Fatal("empty summary has memory")
	}
}

// newTestBloomSummary builds a Bloom summary of the default family over
// 256 expected documents at load factor 16.
func newTestBloomSummary(t *testing.T, cfg bloom.DirectoryConfig, wholeArray bool) (*bloomSummary, uint64) {
	t.Helper()
	cfg.ExpectedDocs = 256
	s, err := newBloomSummary(PaperMessageModel, cfg, wholeArray)
	if err != nil {
		t.Fatal(err)
	}
	return s, s.dir.Bits()
}

func TestBloomSummaryDeltaVsDigestCost(t *testing.T) {
	delta, m := newTestBloomSummary(t, bloom.DirectoryConfig{}, false)
	digest, _ := newTestBloomSummary(t, bloom.DirectoryConfig{}, true)
	for i := 0; i < 10; i++ {
		u := fmt.Sprintf("http://h/%d", i)
		delta.insert(u)
		digest.insert(u)
	}
	db := delta.publish()
	gb := digest.publish()
	// Delta: 32-byte header + 4 bytes per flip (≤ 40 flips for 10 docs).
	if db > 32+40*4 || db < 32+4 {
		t.Fatalf("delta publish = %d bytes, want header+flips", db)
	}
	// Digest: header + whole array (m/8 bytes), regardless of change count.
	if gb != 32+int(m/8) {
		t.Fatalf("digest publish = %d bytes, want %d", gb, 32+m/8)
	}
	// Probing behavior is identical.
	k := bloomPK(t, "http://h/3", m)
	if !delta.probe(k) || !digest.probe(k) {
		t.Fatal("published doc not visible")
	}
	if delta.memoryBytes() != m/8 || digest.memoryBytes() != m/8 {
		t.Fatal("bloom memory should be m/8 bytes")
	}
	if delta.counterBytes() == 0 {
		t.Fatal("counting filter memory not reported")
	}
}

func TestBloomSummaryDelayedVisibility(t *testing.T) {
	s, m := newTestBloomSummary(t, bloom.DirectoryConfig{MinPending: 4}, false)
	s.insert("http://x/")
	if s.probe(bloomPK(t, "http://x/", m)) {
		t.Fatal("unpublished insert visible")
	}
	if !s.due() {
		t.Fatal("a first document's 4 flips are not due at floor 4")
	}
	s.publish()
	if !s.probe(bloomPK(t, "http://x/", m)) || s.due() {
		t.Fatal("published insert invisible, or still due")
	}
	s.remove("http://x/")
	if !s.probe(bloomPK(t, "http://x/", m)) {
		t.Fatal("unpublished removal already visible")
	}
	s.publish()
	if s.probe(bloomPK(t, "http://x/", m)) {
		t.Fatal("published removal still visible")
	}
}

func TestOracleAndICPSummariesAreStateless(t *testing.T) {
	var s summarizer = noSummary{}
	s.insert("http://a/")
	s.remove("http://a/")
	if s.due() || s.publish() != 0 || s.memoryBytes() != 0 || s.counterBytes() != 0 {
		t.Error("the oracle and ICP summary is not stateless")
	}
	if !s.probe(pk("http://anything/")) {
		t.Error("the ICP summary must always answer maybe")
	}
}

// BloomDigest behaves identically to Bloom in hit/false-hit terms through
// the full engine; only update bytes differ.
func TestEngineBloomDigestEquivalence(t *testing.T) {
	reqs := testTrace(t, 20000)
	per := cacheSizeFor(t, reqs, 0.10, 4)
	run := func(kind SummaryKind) Result {
		r, err := Run(Config{NumProxies: 4, CacheBytes: per, Scheme: SimpleSharing,
			Summary: SummaryConfig{Kind: kind, Directory: bloom.DirectoryConfig{UpdateThreshold: 0.01}}}, reqs)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	delta := run(Bloom)
	digest := run(BloomDigest)
	if delta.HitRatio() != digest.HitRatio() {
		t.Errorf("hit ratios differ: %.4f vs %.4f", delta.HitRatio(), digest.HitRatio())
	}
	if delta.FalseHits != digest.FalseHits {
		t.Errorf("false hits differ: %d vs %d", delta.FalseHits, digest.FalseHits)
	}
	if delta.UpdateMessages != digest.UpdateMessages {
		t.Errorf("update message counts differ: %d vs %d", delta.UpdateMessages, digest.UpdateMessages)
	}
	if delta.UpdateBytes == digest.UpdateBytes {
		t.Error("update bytes should differ between delta and digest")
	}
}

// TestEngineMinUpdateDocs: the publication floor (Directory.MinPending,
// counted in bit flips) batches updates without affecting correctness
// categories other than the expected added staleness.
func TestEngineMinUpdateDocs(t *testing.T) {
	reqs := testTrace(t, 20000)
	per := cacheSizeFor(t, reqs, 0.10, 4)
	run := func(minPending int) Result {
		r, err := Run(Config{NumProxies: 4, CacheBytes: per, Scheme: SimpleSharing,
			Summary: SummaryConfig{Kind: Bloom,
				Directory: bloom.DirectoryConfig{UpdateThreshold: 0.01, MinPending: minPending}}}, reqs)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	fine := run(0)
	coarse := run(200)
	if coarse.UpdateEvents >= fine.UpdateEvents {
		t.Errorf("batching did not reduce update events: %d vs %d",
			coarse.UpdateEvents, fine.UpdateEvents)
	}
	if coarse.HitRatio() > fine.HitRatio()+1e-9 {
		t.Errorf("coarser updates should not raise hit ratio: %.4f vs %.4f",
			coarse.HitRatio(), fine.HitRatio())
	}
	if coarse.FalseMisses < fine.FalseMisses {
		t.Errorf("coarser updates should not reduce false misses")
	}
	if per := float64(coarse.UpdateBytes) / float64(coarse.UpdateMessages); per < 32+200*4 {
		t.Errorf("an update carries %.0f bytes, want at least the 200-flip floor's %d", per, 32+200*4)
	}
}
