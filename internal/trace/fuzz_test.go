package trace

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
)

// rawRecord encodes one binary-format record field by field, bypassing
// BinaryWriter's checks, so a test can build records the writer refuses.
func rawRecord(dt uint64, client int64, size uint64, version int64, url string) []byte {
	b := binary.AppendUvarint(nil, dt)
	b = binary.AppendVarint(b, client)
	b = binary.AppendUvarint(b, size)
	b = binary.AppendVarint(b, version)
	b = binary.AppendUvarint(b, uint64(len(url)))
	return append(b, url...)
}

// binaryStream is the magic followed by recs.
func binaryStream(recs ...[]byte) []byte {
	return slices.Concat(append([][]byte{binaryMagic[:]}, recs...)...)
}

// recordWriter is what the text Writer and the BinaryWriter share.
type recordWriter interface {
	Write(Request) error
	Flush() error
}

// FuzzReadAllAuto: every record either format's reader accepts re-encodes
// through that format's writer and decodes back equal.
func FuzzReadAllAuto(f *testing.F) {
	f.Add([]byte("1 2 1024 0 http://a/x\n# comment\n\n5 -7 0 -3 http://b/y?q=1\n"))
	f.Add(binaryStream(
		rawRecord(1, 2, 1024, 0, "http://a/x"),
		rawRecord(4, -7, 0, -3, "http://b/y?q=1"),
	))
	// A size of 2^63 would decode to a negative Size.
	f.Add(binaryStream(rawRecord(0, 0, 1<<63, 0, "http://a/")))
	// A time delta of 2^63 would decode to a Time below the previous one.
	f.Add(binaryStream(
		rawRecord(5, 0, 10, 0, "http://a/"),
		rawRecord(1<<63, 0, 10, 0, "http://b/"),
	))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Records before a malformed one are accepted too.
		reqs, _ := ReadAllAuto(bytes.NewReader(data))
		if len(reqs) == 0 {
			return
		}
		var buf bytes.Buffer
		var w recordWriter = NewWriter(&buf)
		if bytes.HasPrefix(data, binaryMagic[:]) {
			w = NewBinaryWriter(&buf)
		}
		for i, r := range reqs {
			if err := w.Write(r); err != nil {
				t.Fatalf("record %d %+v: the reader accepts it, the writer refuses it: %v", i, r, err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		again, err := ReadAllAuto(&buf)
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v", err)
		}
		if !slices.Equal(again, reqs) {
			t.Fatalf("round trip changed records:\n got  %+v\n want %+v", again, reqs)
		}
	})
}
