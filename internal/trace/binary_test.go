package trace

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func TestBinaryRoundTrip(t *testing.T) {
	reqs := []Request{
		{Time: 0, Client: 3, URL: "http://a.com/x", Size: 1024, Version: 0},
		{Time: 5, Client: -7, URL: "http://b.com/y?q=1", Size: 0, Version: -3},
		{Time: 5, Client: 0, URL: "", Size: 1 << 40, Version: 9},
		{Time: 100, Client: 1 << 20, URL: "http://c.com/" + strings.Repeat("p", 500), Size: 77, Version: 0},
	}
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	for _, r := range reqs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != len(reqs) {
		t.Fatalf("count = %d", w.Count())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := NewBinaryReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("read %d records", len(got))
	}
	for i := range reqs {
		if got[i] != reqs[i] {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], reqs[i])
		}
	}
}

func TestBinaryRejectsBadInput(t *testing.T) {
	w := NewBinaryWriter(io.Discard)
	if err := w.Write(Request{Time: 10}); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Request{Time: 5}); err == nil {
		t.Error("accepted decreasing time")
	}
	if err := w.Write(Request{Time: 10, Size: -1}); err == nil {
		t.Error("accepted negative size")
	}
	if err := w.Write(Request{Time: 10, URL: strings.Repeat("x", maxBinaryURLLen+1)}); err == nil {
		t.Error("accepted oversize URL")
	}
}

func TestBinaryReaderErrors(t *testing.T) {
	// Wrong magic.
	if _, err := NewBinaryReader(strings.NewReader("XXXXX....")).Read(); err != ErrBadMagic {
		t.Errorf("bad magic: err = %v", err)
	}
	// Empty stream: clean EOF.
	if _, err := NewBinaryReader(strings.NewReader("")).Read(); err != io.EOF {
		t.Errorf("empty: err = %v", err)
	}
	// Truncated mid-record.
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	w.Write(Request{Time: 1, URL: "http://long.example.com/path"})
	w.Flush()
	trunc := buf.Bytes()[:buf.Len()-5]
	if _, err := NewBinaryReader(bytes.NewReader(trunc)).ReadAll(); err == nil {
		t.Error("accepted truncated stream")
	}
	// Corrupt URL length.
	data := append([]byte(nil), binaryMagic[:]...)
	data = append(data, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F)
	if _, err := NewBinaryReader(bytes.NewReader(data)).Read(); err == nil {
		t.Error("accepted absurd URL length")
	}
	// Fields the writer never emits: a size past math.MaxInt64, and a
	// time delta that carries the time past it.
	for name, stream := range map[string][]byte{
		"size 2^63": binaryStream(rawRecord(0, 0, 1<<63, 0, "http://a/")),
		"time delta 2^63": binaryStream(
			rawRecord(5, 0, 10, 0, "http://a/"),
			rawRecord(1<<63, 0, 10, 0, "http://b/")),
	} {
		if _, err := NewBinaryReader(bytes.NewReader(stream)).ReadAll(); !errors.Is(err, ErrBadRecord) {
			t.Errorf("%s: err = %v, want ErrBadRecord", name, err)
		}
	}
}

// Property: any monotone-time request sequence round-trips exactly.
func TestQuickBinaryRoundTrip(t *testing.T) {
	prop := func(deltas []uint16, clients []int16, urls []string) bool {
		n := len(deltas)
		if len(clients) < n {
			n = len(clients)
		}
		if len(urls) < n {
			n = len(urls)
		}
		var reqs []Request
		tm := int64(0)
		for i := 0; i < n; i++ {
			tm += int64(deltas[i])
			url := strings.Map(func(r rune) rune {
				if r == ' ' || r == '\n' || r == '\t' {
					return '_'
				}
				return r
			}, urls[i])
			reqs = append(reqs, Request{
				Time: tm, Client: int(clients[i]), URL: url,
				Size: int64(i) * 17, Version: int64(i%5) - 2,
			})
		}
		var buf bytes.Buffer
		w := NewBinaryWriter(&buf)
		for _, r := range reqs {
			if err := w.Write(r); err != nil {
				return false
			}
		}
		w.Flush()
		got, err := NewBinaryReader(&buf).ReadAll()
		if err != nil || len(got) != len(reqs) {
			return false
		}
		for i := range reqs {
			if got[i] != reqs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// The binary format must be substantially denser than text.
func TestBinaryDensity(t *testing.T) {
	var txt, bin bytes.Buffer
	tw := NewWriter(&txt)
	bw := NewBinaryWriter(&bin)
	for i := 0; i < 1000; i++ {
		r := Request{Time: int64(i / 10), Client: i % 50,
			URL: "http://s12.example.com/doc34567.html", Size: 4096, Version: 0}
		tw.Write(r)
		bw.Write(r)
	}
	tw.Flush()
	bw.Flush()
	if bin.Len() >= txt.Len() {
		t.Errorf("binary (%d B) not denser than text (%d B)", bin.Len(), txt.Len())
	}
}

func BenchmarkTextCodec(b *testing.B) {
	reqs := make([]Request, 1000)
	for i := range reqs {
		reqs[i] = Request{Time: int64(i), Client: i % 50,
			URL: "http://s12.example.com/doc34567.html", Size: 4096}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, r := range reqs {
			w.Write(r)
		}
		w.Flush()
		if _, err := NewReader(&buf).ReadAll(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBinaryCodec(b *testing.B) {
	reqs := make([]Request, 1000)
	for i := range reqs {
		reqs[i] = Request{Time: int64(i), Client: i % 50,
			URL: "http://s12.example.com/doc34567.html", Size: 4096}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		w := NewBinaryWriter(&buf)
		for _, r := range reqs {
			w.Write(r)
		}
		w.Flush()
		if _, err := NewBinaryReader(&buf).ReadAll(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestReadAllAuto(t *testing.T) {
	reqs := []Request{{Time: 1, Client: 2, URL: "http://a/", Size: 10, Version: 0}}
	var txt, bin bytes.Buffer
	tw := NewWriter(&txt)
	tw.Write(reqs[0])
	tw.Flush()
	bw := NewBinaryWriter(&bin)
	bw.Write(reqs[0])
	bw.Flush()
	for name, buf := range map[string]*bytes.Buffer{"text": &txt, "binary": &bin} {
		got, err := ReadAllAuto(buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != 1 || got[0] != reqs[0] {
			t.Fatalf("%s: got %+v", name, got)
		}
	}
	if got, err := ReadAllAuto(strings.NewReader("")); err != nil || len(got) != 0 {
		t.Fatalf("empty auto-read: %v %v", got, err)
	}
}
