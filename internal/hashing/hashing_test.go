package hashing

import (
	"crypto/md5"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"default", DefaultSpec, true},
		{"one function", Spec{1, 8}, true},
		{"max bits", Spec{2, 64}, true},
		{"zero functions", Spec{0, 32}, false},
		{"negative functions", Spec{-1, 32}, false},
		{"zero bits", Spec{4, 0}, false},
		{"too many bits", Spec{4, 65}, false},
		{"ten of sixteen", Spec{10, 16}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.spec.Validate()
			if (err == nil) != c.ok {
				t.Fatalf("Validate(%+v) error = %v, want ok=%v", c.spec, err, c.ok)
			}
		})
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	if _, err := New(Spec{0, 0}); err == nil {
		t.Fatal("New accepted invalid spec")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic on invalid spec")
		}
	}()
	MustNew(Spec{-1, 32})
}

func TestDigestRounds(t *testing.T) {
	cases := []struct {
		spec Spec
		want int
	}{
		{Spec{4, 32}, 1},  // 128 bits exactly
		{Spec{5, 32}, 2},  // 160 bits -> two digests
		{Spec{10, 16}, 2}, // 160 bits
		{Spec{8, 16}, 1},  // 128 bits
		{Spec{1, 8}, 1},
		{Spec{16, 32}, 4}, // 512 bits
	}
	for _, c := range cases {
		if got := c.spec.DigestRounds(); got != c.want {
			t.Errorf("DigestRounds(%+v) = %d, want %d", c.spec, got, c.want)
		}
	}
}

// The paper specifies that the four default functions are exactly the four
// 32-bit words of the MD5 digest, reduced mod m. Pin that wire behaviour.
func TestIndexesMatchMD5Words(t *testing.T) {
	f := MustNew(DefaultSpec)
	const key = "http://www.cs.wisc.edu/~cao/papers/summary-cache/"
	const m = uint64(1 << 20)
	sum := md5.Sum([]byte(key))
	var want []uint64
	for i := 0; i < 4; i++ {
		w := uint64(sum[4*i])<<24 | uint64(sum[4*i+1])<<16 | uint64(sum[4*i+2])<<8 | uint64(sum[4*i+3])
		want = append(want, w%m)
	}
	got, err := f.Indexes(nil, key, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("got %d indexes, want 4", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("index %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestIndexesDeterministic(t *testing.T) {
	f := MustNew(Spec{10, 16})
	a, err := f.Indexes(nil, "http://example.com/a", 999983)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Indexes(nil, "http://example.com/a", 999983)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic index %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestIndexesRange(t *testing.T) {
	f := MustNew(Spec{10, 16})
	for _, m := range []uint64{1, 2, 7, 256, 1 << 30} {
		idx, err := f.Indexes(nil, "key", m)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range idx {
			if v >= m {
				t.Fatalf("index %d out of range for m=%d", v, m)
			}
		}
	}
}

func TestIndexesZeroModulus(t *testing.T) {
	f := MustNew(DefaultSpec)
	if _, err := f.Indexes(nil, "key", 0); err != ErrZeroModulus {
		t.Fatalf("err = %v, want ErrZeroModulus", err)
	}
	var buf [4]uint64
	if _, err := f.IndexesInto(buf[:], "key", 0); err != ErrZeroModulus {
		t.Fatalf("IndexesInto err = %v, want ErrZeroModulus", err)
	}
}

func TestIndexesIntoMatchesIndexes(t *testing.T) {
	f := MustNew(Spec{6, 24})
	const m = 131071
	keys := []string{"", "a", "http://x/y?z=1", "日本語"}
	for _, k := range keys {
		want, err := f.Indexes(nil, k, m)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]uint64, 6)
		n, err := f.IndexesInto(got, k, m)
		if err != nil {
			t.Fatal(err)
		}
		if n != 6 {
			t.Fatalf("n = %d, want 6", n)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("key %q index %d: IndexesInto=%d Indexes=%d", k, i, got[i], want[i])
			}
		}
	}
}

func TestIndexesIntoShortDst(t *testing.T) {
	f := MustNew(DefaultSpec)
	var buf [2]uint64
	if _, err := f.IndexesInto(buf[:], "key", 100); err == nil {
		t.Fatal("IndexesInto accepted short dst")
	}
}

func TestIndexesAppend(t *testing.T) {
	f := MustNew(DefaultSpec)
	prefix := []uint64{42}
	out, err := f.Indexes(prefix, "key", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 || out[0] != 42 {
		t.Fatalf("append semantics broken: %v", out)
	}
}

// Beyond-128-bit families must still be deterministic and in-range, and the
// extension digests must differ from the first round (MD5(k) != MD5(k||k)).
func TestExtendedFamilyDistinctRounds(t *testing.T) {
	f4 := MustNew(Spec{4, 32})
	f8 := MustNew(Spec{8, 32})
	const key = "http://example.org/long"
	const m = uint64(1) << 31
	a, _ := f4.Indexes(nil, key, m)
	b, _ := f8.Indexes(nil, key, m)
	for i := 0; i < 4; i++ {
		if a[i] != b[i] {
			t.Fatalf("first four indices must agree between k=4 and k=8 families: %v vs %v", a, b)
		}
	}
	same := true
	for i := 4; i < 8; i++ {
		if b[i] != b[i-4] {
			same = false
		}
	}
	if same {
		t.Fatal("extension round reproduced first digest; MD5(key||key) not applied")
	}
}

func TestSignatureMatchesMD5(t *testing.T) {
	const key = "http://example.com/"
	if Signature(key) != md5.Sum([]byte(key)) {
		t.Fatal("Signature does not match crypto/md5")
	}
}

// Property: indices are always in range and deterministic for arbitrary keys.
func TestQuickIndexesInvariant(t *testing.T) {
	f := MustNew(Spec{5, 30})
	prop := func(key string, mRaw uint32) bool {
		m := uint64(mRaw%1e6) + 1
		a, err := f.Indexes(nil, key, m)
		if err != nil || len(a) != 5 {
			return false
		}
		b, _ := f.Indexes(nil, key, m)
		for i := range a {
			if a[i] >= m || a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: different keys rarely collide on the full index vector when the
// table is large (sanity that we're actually hashing, not truncating).
func TestQuickDispersion(t *testing.T) {
	f := MustNew(DefaultSpec)
	const m = uint64(1) << 32
	seen := make(map[[4]uint64]string)
	prop := func(key string) bool {
		idx, err := f.Indexes(nil, key, m)
		if err != nil {
			return false
		}
		var v [4]uint64
		copy(v[:], idx)
		if prev, ok := seen[v]; ok {
			return prev == key // identical key is fine
		}
		seen[v] = key
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkIndexesDefault(b *testing.B) {
	f := MustNew(DefaultSpec)
	buf := make([]uint64, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.IndexesInto(buf, "http://www.example.com/some/moderate/path.html", 1<<23)
	}
}

func BenchmarkIndexesTenFunctions(b *testing.B) {
	f := MustNew(Spec{10, 32})
	buf := make([]uint64, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.IndexesInto(buf, "http://www.example.com/some/moderate/path.html", 1<<23)
	}
}

// refIndexes is the original bit-serial derivation, kept as the reference
// the word-wise one must reproduce bit for bit: peers probe each other's
// replicas with these indices, so any drift breaks the protocol.
func refIndexes(spec Spec, key string, m uint64) []uint64 {
	var (
		round  int
		sum    [md5.Size]byte
		bitPos int
	)
	out := make([]uint64, spec.FunctionNum)
	for i := range out {
		n := spec.FunctionBits
		if round == 0 || bitPos+n > 128 {
			round++
			sum = md5.Sum([]byte(strings.Repeat(key, round)))
			bitPos = 0
		}
		var v uint64
		for j := 0; j < n; j++ {
			v = v<<1 | uint64(sum[bitPos>>3]>>(7-bitPos&7)&1)
			bitPos++
		}
		out[i] = v % m
	}
	return out
}

func TestIndexesMatchBitSerialReference(t *testing.T) {
	keys := []string{""}
	for _, n := range []int{1, 255, 256, 257, 4096} {
		keys = append(keys, strings.Repeat("http://x.example/", n/17+1)[:n])
	}
	moduli := []uint64{1, 2, 1 << 10, 1 << 31, 3, 131071, 999983, 2147483647, bloom31}
	for bits := 1; bits <= MaxFunctionBits; bits++ {
		for k := 1; k <= 10; k++ {
			spec := Spec{FunctionNum: k, FunctionBits: bits}
			f := MustNew(spec)
			for _, key := range keys {
				for _, m := range moduli {
					got, err := f.Indexes(nil, key, m)
					if err != nil {
						t.Fatal(err)
					}
					want := refIndexes(spec, key, m)
					if !slices.Equal(got, want) {
						t.Fatalf("%v len(key)=%d m=%d: got %v, want %v", spec, len(key), m, got, want)
					}
				}
			}
		}
	}
}

// bloom31 is bloom.MaxBits (2^31), restated to keep this package free of
// its importer.
const bloom31 = uint64(1) << 31

// A 200-byte URL is hashed from the stack: IndexesInto allocates nothing,
// and neither does Indexes given room to append.
func TestIndexesZeroAlloc(t *testing.T) {
	key := strings.Repeat("u", 200)
	for _, spec := range []Spec{DefaultSpec, {FunctionNum: 8, FunctionBits: 32}, {FunctionNum: 6, FunctionBits: 21}} {
		f := MustNew(spec)
		buf := make([]uint64, spec.FunctionNum)
		if n := testing.AllocsPerRun(100, func() { f.IndexesInto(buf, key, 1<<23) }); n != 0 {
			t.Errorf("%v: IndexesInto allocated %v times per run, want 0", spec, n)
		}
		if n := testing.AllocsPerRun(100, func() { f.Indexes(buf[:0], key, 1<<23) }); n != 0 {
			t.Errorf("%v: Indexes allocated %v times per run, want 0", spec, n)
		}
	}
}
