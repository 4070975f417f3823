package httpproxy

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"testing"
)

// TestDocumentContentLength: every document response carries its exact
// Content-Length and is never chunked, whether the body is copied behind
// the head (at most smallBody bytes) or written beside it. Both the proxy's
// local hit and the sibling cache-only path are checked, the latter with and
// without a version header.
func TestDocumentContentLength(t *testing.T) {
	p, err := Start(Config{Mode: ModeNone, CacheBytes: 8 << 20, MaxObjectSize: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	for _, size := range []int{0, 1, 1024, smallBody - 1, smallBody, smallBody + 1, 1 << 20} {
		for _, version := range []int64{0, 5} {
			key := fmt.Sprintf("http://origin.invalid/doc-%d-v%d", size, version)
			body := bytes.Repeat([]byte{'d'}, size)
			p.storeBody(nil, key, p.signature(key), version, body)
			for _, path := range []string{ProxyPath, CacheOnlyPath} {
				resp, err := http.Get(p.URL() + path + "?url=" + key)
				if err != nil {
					t.Fatal(err)
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(got, body) {
					t.Fatalf("%s %s: status %d, %d bytes (%v), want the %d-byte document",
						path, key, resp.StatusCode, len(got), err, size)
				}
				if resp.ContentLength != int64(size) || resp.TransferEncoding != nil {
					t.Fatalf("%s %s: Content-Length %d, Transfer-Encoding %v, want %d and none",
						path, key, resp.ContentLength, resp.TransferEncoding, size)
				}
			}
		}
	}
}
