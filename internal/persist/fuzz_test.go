package persist

import (
	"errors"
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
	img := appendFrame(nil, fileHeader(frameJournalHdr, fuzzGen))
	img = appendRecord(img, record{Op: journalInsert, Entry: lru.Entry{Key: "http://a/1", Size: 2048, Version: 7}})
	img = appendRecord(img, record{Op: journalEvict, Entry: lru.Entry{Key: "http://a/1"}})
	return appendRecord(img, record{Op: journalInsert, Entry: lru.Entry{Key: "", Size: 1 << 40, Version: -3}})
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
	addDamaged(f, readGolden(f, "snapshot-golden"))
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

// FuzzJournal: reading a journal never panics, and the records it
// delivers before a torn or corrupt tail re-encode to a journal that
// reads, untorn, to the same records.
func FuzzJournal(f *testing.F) {
	addDamaged(f, journalSeed())
	f.Add([]byte{})
	addDamaged(f, readGolden(f, "journal-golden"))
	f.Fuzz(func(t *testing.T, img []byte) {
		var recs []record
		if _, err := readFile(img, frameJournalHdr, fuzzGen, func(r record) { recs = append(recs, r) }); errors.Is(err, errBadHeader) {
			return
		}
		re := appendFrame(nil, fileHeader(frameJournalHdr, fuzzGen))
		for _, r := range recs {
			re = appendRecord(re, r)
		}
		var again []record
		if _, err := readFile(re, frameJournalHdr, fuzzGen, func(r record) { again = append(again, r) }); err != nil {
			t.Fatalf("re-encoded journal: %v", err)
		}
		if !reflect.DeepEqual(again, recs) {
			t.Fatalf("round trip changed records:\n got  %+v\n want %+v", again, recs)
		}
	})
}
