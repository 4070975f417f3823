package persist

import (
	"errors"
	"strings"
	"testing"
)

// TestAppendZeroAlloc: a journal append encodes its record in place in the
// store's reused buffer and writes it, so once that buffer has grown to the
// record's size an insert and an evict allocate nothing.
func TestAppendZeroAlloc(t *testing.T) {
	s := openStore(t, t.TempDir())
	key := "http://example.com/" + strings.Repeat("j", 181)
	appendPair := func() {
		if err := s.AppendInsert(key, 4096, 7); err != nil {
			t.Fatal(err)
		}
		if err := s.AppendEvict(key); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, appendPair); n != 0 {
		t.Fatalf("AppendInsert+AppendEvict allocated %v times per pair, want 0", n)
	}
}

// TestJournalRecordRoundTrip walks a framed record stream back out
// byte-exactly.
func TestJournalRecordRoundTrip(t *testing.T) {
	recs := []journalRecord{
		{Op: journalInsert, Key: "http://a/1", Size: 2048, Version: 7},
		{Op: journalEvict, Key: "http://a/1"},
		{Op: journalInsert, Key: "", Size: 0, Version: -3},
		{Op: journalInsert, Key: "k", Size: 1 << 40, Version: 1},
	}
	var buf []byte
	for _, r := range recs {
		buf = appendJournalRecord(buf, r)
	}
	var got []journalRecord
	for len(buf) > 0 {
		payload, rest, err := nextFrame(buf)
		if err != nil {
			t.Fatal(err)
		}
		r, err := decodeJournalRecord(payload)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, r)
		buf = rest
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], recs[i])
		}
	}
}

// TestNextFrameTornTail: a stream cut mid-frame yields every complete
// frame then errTornFrame — the crash-recovery contract.
func TestNextFrameTornTail(t *testing.T) {
	var buf []byte
	buf = appendJournalRecord(buf, journalRecord{Op: journalInsert, Key: "a", Size: 1, Version: 1})
	whole := len(buf)
	buf = appendJournalRecord(buf, journalRecord{Op: journalEvict, Key: "a"})
	for cut := whole + 1; cut < len(buf); cut++ {
		b := buf[:cut]
		payload, rest, err := nextFrame(b)
		if err != nil {
			t.Fatalf("cut %d: first frame should survive: %v", cut, err)
		}
		if _, err := decodeJournalRecord(payload); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if _, _, err := nextFrame(rest); !errors.Is(err, errTornFrame) {
			t.Fatalf("cut %d: want errTornFrame, got %v", cut, err)
		}
	}
}

// TestNextFrameCorruption: flipped payload bytes, absurd lengths and
// empty frames are errCorruptFrame, ending the valid prefix.
func TestNextFrameCorruption(t *testing.T) {
	buf := appendJournalRecord(nil, journalRecord{Op: journalInsert, Key: "abc", Size: 9, Version: 2})
	bad := append([]byte(nil), buf...)
	bad[len(bad)-1] ^= 0xFF
	if _, _, err := nextFrame(bad); !errors.Is(err, errCorruptFrame) {
		t.Fatalf("payload flip: want errCorruptFrame, got %v", err)
	}
	huge := append([]byte(nil), buf...)
	huge[0], huge[1], huge[2], huge[3] = 0xFF, 0xFF, 0xFF, 0x7F
	if _, _, err := nextFrame(huge); !errors.Is(err, errCorruptFrame) {
		t.Fatalf("huge length: want errCorruptFrame, got %v", err)
	}
	// Eight zero bytes: length 0 with the (correct) CRC-32C of nothing.
	if _, _, err := nextFrame(make([]byte, frameHeaderLen)); !errors.Is(err, errCorruptFrame) {
		t.Fatalf("empty frame: want errCorruptFrame, got %v", err)
	}
	if payload, rest, err := nextFrame(nil); payload != nil || rest != nil || err != nil {
		t.Fatal("empty buffer is a clean end, not an error")
	}
}
