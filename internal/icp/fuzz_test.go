package icp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"summarycache/internal/bloom"
	"summarycache/internal/hashing"
)

// mustWire encodes m for use as a fuzz seed, panicking on the (impossible
// for the fixed corpus) error path.
func mustWire(tb testing.TB, m Message) []byte {
	tb.Helper()
	b, err := m.MarshalBinary()
	if err != nil {
		tb.Fatalf("encode seed: %v", err)
	}
	return b
}

// FuzzDecoder cross-checks the in-place Decoder against the allocating
// Parse on arbitrary input: both must agree on whether a datagram is
// well-formed, and on every field of the result when it is. The seeds
// mirror the wire_test.go round-trip corpus plus its malformed vectors.
func FuzzDecoder(f *testing.F) {
	f.Add(mustWire(f, NewQuery(1, "http://example.com/a")))
	f.Add(mustWire(f, NewReply(OpHit, 2, "http://example.com/a")))
	f.Add(mustWire(f, NewReply(OpMiss, 3, "http://example.com/b")))
	f.Add(mustWire(f, NewDirUpdate(4, hashing.DefaultSpec, 1<<20, []bloom.Flip{
		{Index: 0, Set: true},
		{Index: 12345, Set: false},
		{Index: 1<<31 - 1, Set: true},
	})))
	f.Add(mustWire(f, NewDirUpdate(5, hashing.DefaultSpec, 1<<20, nil)))
	for _, body := range [][]byte{nil, []byte("hello"), bytes.Repeat([]byte{0, 'x'}, 600)} {
		f.Add(mustWire(f, mustHitObj(f, 10, "http://example.com/obj", body, 7)))
	}
	// Malformed vectors: short header, bad version, length mismatch,
	// unterminated URL, truncated flip table, and HIT_OBJs whose size field
	// disagrees with the object or that exceed MaxHitObjLen.
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(func() []byte {
		b := mustWire(f, NewQuery(6, "http://example.com/c"))
		b[1] = 99 // version
		return b
	}())
	f.Add(func() []byte {
		b := mustWire(f, NewQuery(7, "http://example.com/d"))
		return b[:len(b)-1] // drop the NUL
	}())
	f.Add(func() []byte {
		b := mustWire(f, NewDirUpdate(8, hashing.DefaultSpec, 1<<20, []bloom.Flip{{Index: 9, Set: true}}))
		return b[:len(b)-2] // truncate the flip table
	}())
	for _, tamper := range hitObjTampers {
		f.Add(tamper(mustWire(f, mustHitObj(f, 11, "http://example.com/t", []byte("payload"), 1))))
	}
	f.Add(overflowingDirUpdate(f))

	f.Fuzz(func(t *testing.T, b []byte) {
		want, wantErr := Parse(b)

		var dec Decoder
		got, gotErr := dec.Decode(b)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("error disagreement: Parse=%v Decode=%v", wantErr, gotErr)
		}
		if wantErr != nil {
			return
		}
		checkEqual(t, "fresh decoder", got, want)
		if got.Update.Flips != nil {
			t.Fatalf("Decode filled Flips: %v", got.Update.Flips)
		}

		// A reused decoder must behave identically: decode something else
		// first so the scratch is dirty, then decode b again. The first
		// decode's update borrowed that scratch, so reading it now panics.
		scrap := mustWire(t, NewDirUpdate(9, hashing.DefaultSpec, 1<<20, []bloom.Flip{
			{Index: 7, Set: true}, {Index: 8, Set: false}, {Index: 9, Set: true},
		}))
		if _, err := dec.Decode(scrap); err != nil {
			t.Fatalf("decode scrap: %v", err)
		}
		if got.Op == OpDirUpdate {
			mustPanicStale(t, func() { got.Update.Len() })
		}
		again, err := dec.Decode(b)
		if err != nil {
			t.Fatalf("reused decoder rejected input Parse accepted: %v", err)
		}
		checkEqual(t, "reused decoder", again, want)

		// Round-trip stability: re-encoding the borrowed decode must
		// reproduce the canonical wire form of the parsed message.
		re, err := again.MarshalBinary()
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		canon, err := want.MarshalBinary()
		if err != nil {
			t.Fatalf("re-encode parsed: %v", err)
		}
		if !reflect.DeepEqual(re, canon) {
			t.Fatalf("re-encode mismatch:\n decoder: %x\n parse:   %x", re, canon)
		}
	})
}

// checkEqual asserts two decoded Messages agree field-for-field, comparing
// the Object and Update payloads by value rather than by reference.
func checkEqual(t *testing.T, label string, got, want Message) {
	t.Helper()
	if got.Op != want.Op || got.Version != want.Version || got.ReqNum != want.ReqNum ||
		got.Options != want.Options || got.OptionData != want.OptionData ||
		got.SenderAddr != want.SenderAddr || got.URL != want.URL ||
		got.RequesterAddr != want.RequesterAddr || !bytes.Equal(got.Object, want.Object) {
		t.Fatalf("%s: message mismatch:\n got  %+v\n want %+v", label, got, want)
	}
	if got.Op != OpDirUpdate {
		return
	}
	gu, wu := &got.Update, &want.Update
	if gu.Spec != wu.Spec || gu.Bits != wu.Bits {
		t.Fatalf("%s: update header mismatch:\n got  %+v\n want %+v", label, gu, wu)
	}
	if gu.Len() != wu.Len() {
		t.Fatalf("%s: flip count mismatch: got %d want %d", label, gu.Len(), wu.Len())
	}
	for i := 0; i < gu.Len(); i++ {
		if gu.At(i) != wu.At(i) {
			t.Fatalf("%s: flip %d mismatch: got %+v want %+v", label, i, gu.At(i), wu.At(i))
		}
	}
}

// overflowingDirUpdate is a 40-byte DIRUPDATE that declares 2^30+2 flip
// records and carries 2. Where int is 32 bits, 4*(2^30+2) wraps to the 8
// record bytes present.
func overflowingDirUpdate(tb testing.TB) []byte {
	b := mustWire(tb, NewDirUpdate(12, hashing.DefaultSpec, 1<<20, []bloom.Flip{{Index: 1, Set: true}, {Index: 2}}))
	binary.BigEndian.PutUint32(b[HeaderLen+8:], 1<<30+2)
	return b
}

// A flip count whose record bytes overflow int is a length mismatch, on
// every architecture: Parse and Decode reject it rather than index past
// the datagram or size a slice from the count.
func TestFlipCountOverflowRejected(t *testing.T) {
	b := overflowingDirUpdate(t)
	if _, err := Parse(b); !errors.Is(err, ErrBadLength) {
		t.Fatalf("Parse: %v, want ErrBadLength", err)
	}
	var dec Decoder
	if _, err := dec.Decode(b); !errors.Is(err, ErrBadLength) {
		t.Fatalf("Decode: %v, want ErrBadLength", err)
	}
}

// FuzzQueryEncoding: a query encoded from a URL's bytes, as QueryAll
// encodes one for a caller holding them, is the query encoded from the
// URL's string and the one Message.Append writes, options included, and
// a reply naming the URL is matched by a waiter holding either form.
func FuzzQueryEncoding(f *testing.F) {
	f.Add("http://example.com/a", uint32(FlagHitObj), uint32(7))
	f.Add("", uint32(0), uint32(0))
	f.Add("http://o/d?size=1024&v=0", uint32(0), uint32(1<<31))
	f.Fuzz(func(t *testing.T, url string, options, reqNum uint32) {
		m := NewQuery(reqNum, url)
		m.Options = options
		want, werr := m.MarshalBinary()
		fromString, serr := appendQuery(nil, reqNum, options, url)
		fromBytes, berr := appendQuery(nil, reqNum, options, []byte(url))
		if (werr == nil) != (serr == nil) || (serr == nil) != (berr == nil) {
			t.Fatalf("%q: errors %v, %v, %v", url, werr, serr, berr)
		}
		if werr == nil && (!bytes.Equal(fromString, want) || !bytes.Equal(fromBytes, want)) {
			t.Fatalf("%q: encoded %x from the string and %x from the bytes, want %x", url, fromString, fromBytes, want)
		}
		other := url + "x"
		for _, w := range []*waiter{{url: url}, {urlBytes: []byte(url)}} {
			if !w.names([]byte(url)) || w.names([]byte(other)) {
				t.Fatalf("%q: a waiter %+v misnames a reply", url, w)
			}
		}
	})
}
