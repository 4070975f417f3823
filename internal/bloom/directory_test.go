package bloom

import (
	"fmt"
	"testing"

	"summarycache/internal/hashing"
)

// TestPublishDue: the publication rule reads its inputs literally.
func TestPublishDue(t *testing.T) {
	for _, tc := range []struct {
		name                   string
		newDocs, docs, pending int
		threshold              float64
		minPending             int
		want                   bool
	}{
		{"nothing new, nothing pending", 0, 100, 0, 0, 0, false},
		{"threshold 0 publishes every new document", 1, 100, 4, 0, 0, true},
		{"threshold 0, a document that flipped no bit", 1, 100, 0, 0, 0, true},
		{"below the threshold", 9, 109, 36, 0.10, 0, false},
		{"at the threshold", 12, 112, 48, 0.10, 0, true},
		{"zero docs with pending flips", 0, 0, 4, 0.01, 1, true},
		{"only removals pending", 0, 100, 4, 0.01, 0, false},
		{"floor reached", 5, 100, 20, 0.01, 20, true},
		{"floor not reached", 5, 100, 19, 0.01, 20, false},
		{"floor 0 is no floor", 5, 100, 0, 0.01, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := PublishDue(tc.newDocs, tc.docs, tc.pending, tc.threshold, tc.minPending); got != tc.want {
				t.Fatalf("PublishDue(%d, %d, %d, %v, %d) = %v, want %v",
					tc.newDocs, tc.docs, tc.pending, tc.threshold, tc.minPending, got, tc.want)
			}
		})
	}
}

func TestNewDirectoryValidation(t *testing.T) {
	if _, err := NewDirectory(DirectoryConfig{UpdateThreshold: 2}); err == nil {
		t.Error("accepted threshold > 1")
	}
	if _, err := NewDirectory(DirectoryConfig{UpdateThreshold: -0.5}); err == nil {
		t.Error("accepted negative threshold")
	}
	d, err := NewDirectory(DirectoryConfig{ExpectedDocs: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if d.Spec() != hashing.DefaultSpec {
		t.Errorf("default spec = %v", d.Spec())
	}
	if d.Bits() < 16000 {
		t.Errorf("bits = %d, want ≥ 16×1000", d.Bits())
	}
}

func TestDirectoryInsertRemove(t *testing.T) {
	d, err := NewDirectory(DirectoryConfig{ExpectedDocs: 100, UpdateThreshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	empty := d.FilterSnapshot()
	d.Insert("http://a/")
	if d.Docs() != 1 || d.counting.OnesCount() != 4 {
		t.Fatalf("insert not reflected: %d docs, %d bits set", d.Docs(), d.counting.OnesCount())
	}
	d.Remove("http://a/")
	d.Remove("http://a/") // a second removal is clamped, as the counters are
	if d.Docs() != 0 || string(d.FilterSnapshot()) != string(empty) {
		t.Fatalf("remove not reflected: %d docs", d.Docs())
	}
	if d.PendingFlips() != 8 { // 4 set + 4 clear
		t.Fatalf("pending flips = %d, want 8", d.PendingFlips())
	}
}

func TestDirectoryThreshold(t *testing.T) {
	d, err := NewDirectory(DirectoryConfig{ExpectedDocs: 1000, UpdateThreshold: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	// Build up a 100-document directory, then drain.
	for i := 0; i < 100; i++ {
		d.Insert(fmt.Sprintf("http://h/%d", i))
	}
	d.Drain()
	// The threshold is newDocs/currentDocs ≥ 10%: with the directory
	// growing as documents arrive, it trips at the 12th new document
	// (12/112 ≈ 10.7%), and must not trip before the 10th (9/109 < 10%).
	tripped := -1
	for i := 0; i < 20 && tripped < 0; i++ {
		d.Insert(fmt.Sprintf("http://new/%d", i))
		if d.ShouldPublish() {
			tripped = i + 1
		}
	}
	if tripped < 10 || tripped > 13 {
		t.Fatalf("threshold tripped after %d new docs, want ≈12", tripped)
	}
	flips := d.Drain()
	if len(flips) == 0 {
		t.Fatal("drain returned nothing")
	}
	if d.ShouldPublish() || d.PendingFlips() != 0 {
		t.Fatal("drain did not reset state")
	}
}

func TestDirectoryEmptyStartPublishes(t *testing.T) {
	d, err := NewDirectory(DirectoryConfig{ExpectedDocs: 10, UpdateThreshold: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if d.ShouldPublish() {
		t.Fatal("empty directory wants to publish")
	}
	d.Insert("http://first/")
	if !d.ShouldPublish() {
		t.Fatal("first document should trip any threshold (1 ≥ 1% of 1)")
	}
}

// TestDirectoryFloorAndRestore: MinPending holds a due threshold until enough flips
// are pending, and a restored directory starts with nothing new.
func TestDirectoryFloorAndRestore(t *testing.T) {
	d, err := NewDirectory(DirectoryConfig{ExpectedDocs: 1000, UpdateThreshold: 0.01, MinPending: 9})
	if err != nil {
		t.Fatal(err)
	}
	d.Insert("http://a/")
	d.Insert("http://b/")
	if d.PendingFlips() >= 9 || d.ShouldPublish() {
		t.Fatalf("published with %d flips pending, floor 9", d.PendingFlips())
	}
	for i := 0; d.PendingFlips() < 9; i++ {
		d.Insert(fmt.Sprintf("http://c/%d", i))
	}
	if !d.ShouldPublish() {
		t.Fatalf("held with %d flips pending, floor 9", d.PendingFlips())
	}
	restored, err := NewDirectory(DirectoryConfig{ExpectedDocs: 1000, UpdateThreshold: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreState(d.StateSnapshot()); err != nil {
		t.Fatal(err)
	}
	if restored.Docs() != d.Docs() || restored.ShouldPublish() {
		t.Fatalf("restored: %d docs (want %d), due %v", restored.Docs(), d.Docs(), restored.ShouldPublish())
	}
}
