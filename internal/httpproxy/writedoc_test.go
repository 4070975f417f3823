package httpproxy

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"
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
			p.storeBody(nil, key, signature(p, key), version, body)
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

// TestResponseHeads pins the bytes of the response head, Date aside, that
// a client reads for a text, an HTML and a binary document on each path
// that serves one: the miss, the local hit, the sibling's cache-only
// answer, the inline remote hit and the local hit of the copy simple
// sharing keeps. The Content-Type is sniffed from the body as net/http
// sniffs it, whether when the response is sent or once, when the
// document is stored.
func TestResponseHeads(t *testing.T) {
	bodies := map[string]string{
		"/text": "plain words\n",
		"/html": "<!DOCTYPE html><html><body>a page</body></html>",
		"/bin":  "\x00\x01\x02\x03binary\xff",
	}
	o := startRawOrigin(t, func(path string) (string, bool) {
		body := bodies[path]
		return fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\nContent-Type: application/octet-stream\r\n%s: 7\r\n\r\n%s",
			len(body), docVersionHeader, body), false
	})
	m := newMesh(t, 2, ModeSCICP, 0)
	holder, asker := m.proxies[0], m.proxies[1]
	for _, tc := range []struct {
		path, ctype string
	}{
		{"/text", "text/plain; charset=utf-8"},
		{"/html", "text/html; charset=utf-8"},
		{"/bin", "application/octet-stream"},
	} {
		target := "http://" + o.addr() + tc.path
		proxied := ProxyPath + "?url=" + url.QueryEscape(target)
		body := bodies[tc.path]
		head := func(version string) string {
			return fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: %s\r\nContent-Length: %d\r\n%sConnection: close\r\n\r\n",
				tc.ctype, len(body), version)
		}
		for _, step := range []struct {
			name   string
			p      *Proxy
			target string
			want   string
		}{
			{"miss", holder, proxied, head("")},
			{"local hit", holder, proxied, head("")},
			{"cache-only", holder, CacheOnlyPath + "?url=" + url.QueryEscape(target), head(docVersionHeader + ": 7\r\n")},
			{"inline remote hit", asker, proxied, head("")},
			{"local hit of the kept copy", asker, proxied, head("")},
		} {
			if step.name == "inline remote hit" {
				holder.FlushSummary()
				waitForCandidate(t, asker, target)
			}
			gotHead, gotBody := rawExchange(t, step.p, step.target)
			if gotHead != step.want || gotBody != body {
				t.Fatalf("%s %s: head %q body %q, want %q and %q", tc.path, step.name, gotHead, gotBody, step.want, body)
			}
		}
	}
	if st := asker.Stats(); st.RemoteHits != 3 || st.PeerFetches != 0 || st.LocalHits != 3 {
		t.Fatalf("asker stats %+v, want 3 inline remote hits and 3 local hits", st)
	}
}

// rawExchange asks p for target on a new connection, closed after the
// response, and returns the response head with its Date line cut out, and
// the body.
func rawExchange(t *testing.T, p *Proxy, target string) (head, body string) {
	t.Helper()
	conn, err := net.Dial("tcp", p.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.WriteString(conn, "GET "+target+" HTTP/1.1\r\nHost: proxy\r\nConnection: close\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	resp, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	head, body, _ = strings.Cut(string(resp), "\r\n\r\n")
	before, date, ok := strings.Cut(head, "\r\nDate: ")
	if !ok {
		t.Fatalf("response %q has no Date", resp)
	}
	_, after, _ := strings.Cut(date, "\r\n")
	return before + "\r\n" + after + "\r\n\r\n", body
}
