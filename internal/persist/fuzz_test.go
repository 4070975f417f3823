package persist

import (
	"reflect"
	"testing"

	"summarycache/internal/lru"
)

// fuzzGen is the generation every snapshot seed is written and decoded at.
const fuzzGen = 3

// snapshotSeeds are encodeSnapshot images from empty to every frame kind,
// and a snapshot with the directory and replica frames older versions
// wrote.
func snapshotSeeds(t testing.TB) [][]byte {
	full := SnapshotData{
		Entries: []lru.Entry{entry(1), {Key: "http://origin/empty", Size: 0, Version: -1}},
	}
	return [][]byte{encodeSnapshot(fuzzGen, SnapshotData{}), encodeSnapshot(fuzzGen, full), legacySnapshot(t)}
}

// journalSeed is a journal image as Store.append writes it.
func journalSeed() []byte {
	img := appendFrame(nil, journalHeader(fuzzGen))
	img = appendJournalRecord(img, journalRecord{Op: journalInsert, Key: "http://a/1", Size: 2048, Version: 7})
	img = appendJournalRecord(img, journalRecord{Op: journalEvict, Key: "http://a/1"})
	return appendJournalRecord(img, journalRecord{Op: journalInsert, Key: "", Size: 1 << 40, Version: -3})
}

// addDamaged seeds f with img plus its torn, CRC-corrupt and zero-filled
// variants: the shapes a crash or a bad disk leaves behind.
func addDamaged(f *testing.F, img []byte) {
	f.Add(img)
	f.Add(img[:len(img)-3])
	flipped := append([]byte(nil), img...)
	flipped[len(flipped)/2] ^= 0xFF
	f.Add(flipped)
	_, rest, _ := nextFrame(img)
	zeroed := append([]byte(nil), img...)
	clear(zeroed[len(img)-len(rest):])
	f.Add(zeroed)
}

// FuzzDecodeSnapshot: decodeSnapshot never panics, and a snapshot it
// accepts re-encodes to an image that decodes to the same state.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, img := range snapshotSeeds(f) {
		addDamaged(f, img)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, img []byte) {
		data, err := decodeSnapshot(img, fuzzGen)
		if err != nil {
			return
		}
		again, err := decodeSnapshot(encodeSnapshot(fuzzGen, data), fuzzGen)
		if err != nil {
			t.Fatalf("re-encoded snapshot rejected: %v", err)
		}
		if !reflect.DeepEqual(again, data) {
			t.Fatalf("round trip changed state:\n got  %+v\n want %+v", again, data)
		}
	})
}

// FuzzJournal: decodeJournal never panics, and the records it delivers
// re-encode to a journal that decodes, untorn, to the same records.
func FuzzJournal(f *testing.F) {
	addDamaged(f, journalSeed())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, img []byte) {
		var recs []journalRecord
		if _, err := decodeJournal(img, func(r journalRecord) { recs = append(recs, r) }); err != nil {
			return
		}
		re := appendFrame(nil, journalHeader(fuzzGen))
		for _, r := range recs {
			re = appendJournalRecord(re, r)
		}
		var again []journalRecord
		torn, err := decodeJournal(re, func(r journalRecord) { again = append(again, r) })
		if torn || err != nil {
			t.Fatalf("re-encoded journal: torn=%v err=%v", torn, err)
		}
		if !reflect.DeepEqual(again, recs) {
			t.Fatalf("round trip changed records:\n got  %+v\n want %+v", again, recs)
		}
	})
}
