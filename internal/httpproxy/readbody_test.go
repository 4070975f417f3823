package httpproxy

import (
	"errors"
	"io"
	"strings"
	"testing"
)

// fakeResp builds a response head with the given declared length (-1:
// unknown / chunked) and a reader over body.
func fakeResp(body string, declared int64) (responseHead, io.Reader) {
	return responseHead{status: 200, length: declared}, strings.NewReader(body)
}

// TestReadBodyCapConsistency pins the invariant behind the cap: a body
// that exceeds it is an error — never a silently truncated prefix the
// proxy would cache or forward as the complete document — and the cap
// applies identically whether the length was declared or unknown.
func TestReadBodyCapConsistency(t *testing.T) {
	const limit = 16

	t.Run("declared over cap fails without reading", func(t *testing.T) {
		h, r := fakeResp(strings.Repeat("x", 32), 32)
		if _, err := readBodyLimit(h, r, limit); !errors.Is(err, errBodyTooLarge) {
			t.Fatalf("want errBodyTooLarge, got %v", err)
		}
	})

	t.Run("unknown length over cap fails", func(t *testing.T) {
		h, r := fakeResp(strings.Repeat("x", 32), -1)
		if _, err := readBodyLimit(h, r, limit); !errors.Is(err, errBodyTooLarge) {
			t.Fatalf("want errBodyTooLarge, got %v", err)
		}
	})

	t.Run("unknown length within cap reads fully", func(t *testing.T) {
		h, r := fakeResp("hello", -1)
		body, err := readBodyLimit(h, r, limit)
		if err != nil || string(body) != "hello" {
			t.Fatalf("got %q, %v", body, err)
		}
	})

	t.Run("unknown length exactly at cap reads fully", func(t *testing.T) {
		h, r := fakeResp(strings.Repeat("x", limit), -1)
		body, err := readBodyLimit(h, r, limit)
		if err != nil || len(body) != limit {
			t.Fatalf("got %d bytes, %v", len(body), err)
		}
	})

	t.Run("declared length truncated body is an error", func(t *testing.T) {
		h, r := fakeResp("short", 10)
		if _, err := readBodyLimit(h, r, limit); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("want unexpected EOF, got %v", err)
		}
	})
}
