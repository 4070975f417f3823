package httpproxy

import (
	"strconv"
	"strings"
	"testing"
)

// TestSplitVersionKeepsQueryBytes: the version-aware key is the target
// with its version pairs removed and every other byte as it was, so
// targets that differ in pair order or escaping keep distinct entries, and
// a target keys the same with or without its version.
func TestSplitVersionKeepsQueryBytes(t *testing.T) {
	for _, tc := range []struct {
		target, key string
		version     int64
	}{
		{"http://o/d?y=2&x=1&v=1", "http://o/d?y=2&x=1", 1},
		{"http://o/d?x=1&y=2&v=1", "http://o/d?x=1&y=2", 1},
		{"http://o/d?q=a+b&v=1", "http://o/d?q=a+b", 1},
		{"http://o/d?q=a%20b&v=1", "http://o/d?q=a%20b", 1},
		{"http://o/d?b=1&a=2&v=3", "http://o/d?b=1&a=2", 3},
		{"http://o/d?b=1&a=2", "http://o/d?b=1&a=2", 0},
		{"http://o/d?v=7", "http://o/d", 7},
		{"http://o/d?v=4&x=1&v=5", "http://o/d?x=1", 4},
		{"http://o/d?x=1&v=abc", "http://o/d?x=1", 0},
		{"http://o/d?vv=1&v=2#f", "http://o/d?vv=1#f", 2},
		{"http://o/d?&v=2", "http://o/d?", 2},
		{"http://o/d", "http://o/d", 0},
	} {
		key, _, version := splitVersion(tc.target)
		if key != tc.key || version != tc.version {
			t.Errorf("splitVersion(%q) = %q, %d; want %q, %d", tc.target, key, version, tc.key, tc.version)
		}
	}
}

// FuzzSplitVersion: the key is the target minus every version pair, with
// the URL before the query, the other pairs in order and the fragment
// untouched; the version is the first pair's; the key's bytes are the key
// (nil when it is the target); and the key is its own key.
func FuzzSplitVersion(f *testing.F) {
	for _, s := range []string{
		"http://o/d?y=2&x=1&v=1", "http://o/d?q=a%20b&v=1#f", "http://o/d?v=1&v=2", "http://o/d?&v=&", "v=1?v=2",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, target string) {
		key, keyBytes, version := splitVersion(target)
		rest, frag, hasFrag := strings.Cut(target, "#")
		head, query, _ := strings.Cut(rest, "?")
		var want []string
		wantVersion, found := int64(0), false
		for _, pair := range strings.Split(query, "&") {
			if name, value, _ := strings.Cut(pair, "="); name != versionParam {
				want = append(want, pair)
			} else if !found {
				found = true
				wantVersion, _ = strconv.ParseInt(value, 10, 64)
			}
		}
		if !found {
			if key != target || keyBytes != nil || version != 0 {
				t.Fatalf("%q has no version pair but keys as %q, %d", target, key, version)
			}
			return
		}
		if string(keyBytes) != key {
			t.Fatalf("%q keys as %q, but its bytes read %q", target, key, keyBytes)
		}
		if version != wantVersion {
			t.Fatalf("%q: version %d, want %d", target, version, wantVersion)
		}
		keyRest, keyFrag, keyHasFrag := strings.Cut(key, "#")
		if keyFrag != frag || keyHasFrag != hasFrag {
			t.Fatalf("%q keys as %q: the fragment changed", target, key)
		}
		keyHead, keyQuery, keyHasQuery := strings.Cut(keyRest, "?")
		if keyHead != head || keyHasQuery != (len(want) > 0) || keyQuery != strings.Join(want, "&") {
			t.Fatalf("%q keys as %q, want the other pairs %q in order", target, key, want)
		}
		if again, _, v := splitVersion(key); again != key || v != 0 {
			t.Fatalf("key %q of %q keys again as %q, %d", key, target, again, v)
		}
	})
}
