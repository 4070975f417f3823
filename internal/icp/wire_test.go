package icp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"summarycache/internal/bloom"
	"summarycache/internal/hashing"
)

func TestOpcodeStrings(t *testing.T) {
	ops := []Opcode{OpInvalid, OpQuery, OpHit, OpMiss, OpErr, OpSEcho, OpDEcho,
		OpMissNoFetch, OpDenied, OpHitObj, OpDirUpdate, Opcode(99)}
	for _, op := range ops {
		if op.String() == "" {
			t.Errorf("empty string for opcode %d", op)
		}
	}
}

func TestQueryRoundTrip(t *testing.T) {
	m := NewQuery(42, "http://example.com/x")
	m.RequesterAddr = 0x7f000001
	m.SenderAddr = 0x0a000001
	buf, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != m.EncodedLen() {
		t.Fatalf("encoded %d bytes, EncodedLen says %d", len(buf), m.EncodedLen())
	}
	// Query payload: 20 header + 4 requester + URL + NUL.
	if want := 20 + 4 + len(m.URL) + 1; len(buf) != want {
		t.Fatalf("query size %d, want %d", len(buf), want)
	}
	got, err := Parse(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Op != OpQuery || got.ReqNum != 42 || got.URL != m.URL ||
		got.RequesterAddr != m.RequesterAddr || got.SenderAddr != m.SenderAddr {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestReplyRoundTrip(t *testing.T) {
	for _, op := range []Opcode{OpHit, OpMiss, OpMissNoFetch, OpDenied, OpErr} {
		m := NewReply(op, 7, "http://a/b")
		buf, err := m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		got, err := Parse(buf)
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		if got.Op != op || got.URL != "http://a/b" || got.ReqNum != 7 {
			t.Fatalf("%v: round trip mismatch: %+v", op, got)
		}
	}
}

func TestDirUpdateRoundTrip(t *testing.T) {
	flips := []bloom.Flip{
		{Index: 0, Set: true},
		{Index: 12345, Set: false},
		{Index: 1<<31 - 1, Set: true},
	}
	m := NewDirUpdate(9, hashing.DefaultSpec, 1<<20, flips)
	buf, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// 20 ICP header + 12 extension header + 4 per flip; the extension
	// header is the paper's "32 bytes of header" for Bloom updates.
	if want := 32 + 4*len(flips); len(buf) != want {
		t.Fatalf("update size %d, want %d", len(buf), want)
	}
	got, err := Parse(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Op != OpDirUpdate {
		t.Fatal("no update decoded")
	}
	u := got.Update
	if u.Spec != hashing.DefaultSpec || u.Bits != 1<<20 {
		t.Fatalf("update header mismatch: %+v", u)
	}
	if len(u.Flips) != len(flips) {
		t.Fatalf("got %d flips", len(u.Flips))
	}
	for i := range flips {
		if u.Flips[i] != flips[i] {
			t.Fatalf("flip %d: %+v != %+v", i, u.Flips[i], flips[i])
		}
	}
}

func TestDirUpdateEmptyFlips(t *testing.T) {
	m := NewDirUpdate(1, hashing.DefaultSpec, 4096, nil)
	buf, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != 32 {
		t.Fatalf("empty update size %d, want 32", len(buf))
	}
	got, err := Parse(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Op != OpDirUpdate || len(got.Update.Flips) != 0 {
		t.Fatalf("bad empty update: %+v", got)
	}
}

func TestFlipIndexRangeRejected(t *testing.T) {
	m := NewDirUpdate(1, hashing.DefaultSpec, 10, []bloom.Flip{{Index: 1 << 31, Set: true}})
	if _, err := m.MarshalBinary(); err == nil {
		t.Fatal("accepted 32-bit flip index")
	}
}

func TestParseErrors(t *testing.T) {
	valid, _ := NewQuery(1, "http://a/").MarshalBinary()

	short := valid[:10]
	if _, err := Parse(short); err != ErrTruncated {
		t.Errorf("short: err = %v", err)
	}

	badVer := append([]byte(nil), valid...)
	badVer[1] = 3
	if _, err := Parse(badVer); err == nil {
		t.Error("accepted version 3")
	}

	badLen := append([]byte(nil), valid...)
	badLen[2], badLen[3] = 0xFF, 0xFF
	if _, err := Parse(badLen); err == nil {
		t.Error("accepted length mismatch")
	}

	noNul := append([]byte(nil), valid...)
	noNul[len(noNul)-1] = 'x'
	if _, err := Parse(noNul); err == nil {
		t.Error("accepted unterminated URL")
	}

	// Truncated query body (header claims correct length but body < 5).
	q := NewQuery(1, "")
	b, _ := q.MarshalBinary()
	b = b[:22]
	b[2], b[3] = 0, 22
	if _, err := Parse(b); err == nil {
		t.Error("accepted truncated query body")
	}

	// DIRUPDATE with flip count not matching the payload.
	du, _ := NewDirUpdate(1, hashing.DefaultSpec, 10, []bloom.Flip{{Index: 1, Set: true}}).MarshalBinary()
	du[31] = 2 // claim 2 updates, carry 1
	if _, err := Parse(du); err == nil {
		t.Error("accepted flip count mismatch")
	}

	// DIRUPDATE too short for its extension header.
	du2, _ := NewDirUpdate(1, hashing.DefaultSpec, 10, nil).MarshalBinary()
	du2 = du2[:24]
	du2[2], du2[3] = 0, 24
	if _, err := Parse(du2); err != ErrTruncated {
		t.Errorf("truncated dirupdate: err = %v", err)
	}
}

func TestOversizeRejected(t *testing.T) {
	flips := make([]bloom.Flip, MaxFlipsPerMessage+1)
	m := NewDirUpdate(1, hashing.DefaultSpec, 1<<30, flips)
	if _, err := m.MarshalBinary(); err == nil {
		t.Fatal("accepted oversize datagram")
	}
}

func TestSplitUpdate(t *testing.T) {
	flips := make([]bloom.Flip, 1000)
	for i := range flips {
		flips[i] = bloom.Flip{Index: uint32(i), Set: i%2 == 0}
	}
	msgs := SplitUpdate(100, hashing.DefaultSpec, 1<<20, flips, 300)
	if len(msgs) != 4 {
		t.Fatalf("got %d messages, want 4", len(msgs))
	}
	var total int
	seen := map[uint32]bool{}
	for _, m := range msgs {
		if m.Op != OpDirUpdate {
			t.Fatalf("bad split message: %+v", m)
		}
		if len(m.Update.Flips) > 300 {
			t.Fatalf("chunk of %d flips exceeds max", len(m.Update.Flips))
		}
		if seen[m.ReqNum] {
			t.Fatal("duplicate request number in split")
		}
		seen[m.ReqNum] = true
		total += len(m.Update.Flips)
		// Every chunk must round-trip.
		buf, err := m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Parse(buf); err != nil {
			t.Fatal(err)
		}
	}
	if total != 1000 {
		t.Fatalf("split lost flips: %d", total)
	}
	// Empty input still produces one (empty) update message.
	if msgs := SplitUpdate(1, hashing.DefaultSpec, 10, nil, 0); len(msgs) != 1 {
		t.Fatalf("empty split: %d messages", len(msgs))
	}
}

// Applying a split update stream must reproduce applying the whole journal.
func TestSplitUpdateEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := bloom.MustNewCountingFilter(1<<14, 4, hashing.DefaultSpec)
	var journal []bloom.Flip
	for i := 0; i < 2000; i++ {
		journal = c.Add(randURL(rng), journal)
	}
	whole := bloom.MustNewFilter(1<<14, hashing.DefaultSpec)
	if err := whole.Apply(journal); err != nil {
		t.Fatal(err)
	}
	chunked := bloom.MustNewFilter(1<<14, hashing.DefaultSpec)
	for _, m := range SplitUpdate(1, hashing.DefaultSpec, 1<<14, journal, 97) {
		buf, err := m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		got, err := Parse(buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := chunked.Apply(got.Update.Flips); err != nil {
			t.Fatal(err)
		}
	}
	if string(whole.Snapshot()) != string(chunked.Snapshot()) {
		t.Fatal("chunked update diverged from whole journal")
	}
}

func randURL(rng *rand.Rand) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	b := make([]byte, 8+rng.Intn(20))
	for i := range b {
		b[i] = letters[rng.Intn(len(letters))]
	}
	return "http://" + string(b[:4]) + ".com/" + string(b[4:])
}

// Property: any URL round-trips through query encode/parse.
func TestQuickQueryRoundTrip(t *testing.T) {
	prop := func(reqNum uint32, urlBytes []byte) bool {
		url := ""
		for _, c := range urlBytes {
			if c == 0 {
				c = '_' // NUL-terminated wire format cannot carry NULs
			}
			url += string(rune(c))
		}
		if len(url) > MaxDatagram-HeaderLen-10 {
			return true
		}
		m := NewQuery(reqNum, url)
		buf, err := m.MarshalBinary()
		if err != nil {
			return false
		}
		got, err := Parse(buf)
		return err == nil && got.URL == url && got.ReqNum == reqNum
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: arbitrary byte garbage never panics the parser.
func TestQuickParseNoPanic(t *testing.T) {
	prop := func(b []byte) bool {
		_, _ = Parse(b)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeQuery(b *testing.B) {
	m := NewQuery(1, "http://www.example.com/path/to/document.html")
	buf := make([]byte, 0, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, _ = m.Append(buf[:0])
	}
}

func BenchmarkParseQuery(b *testing.B) {
	buf, _ := NewQuery(1, "http://www.example.com/path/to/document.html").MarshalBinary()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeDirUpdate(b *testing.B) {
	flips := make([]bloom.Flip, 360)
	for i := range flips {
		flips[i] = bloom.Flip{Index: uint32(i * 13), Set: i%2 == 0}
	}
	m := NewDirUpdate(1, hashing.DefaultSpec, 1<<20, flips)
	buf := make([]byte, 0, 2048)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, _ = m.Append(buf[:0])
	}
}
