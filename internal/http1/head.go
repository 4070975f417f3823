// Package http1 reads HTTP/1.x heads for the two HTTP/1.1 servers of this
// module, the proxy's client listener and the synthetic origin: one bounded
// head reader (ReadHead) and one request-head parser (ParseRequest). The
// proxy's fetcher reads upstream response heads with the same reader and
// parses them with the same token helpers.
package http1

import (
	"bufio"
	"bytes"
	"errors"
	"net/http"
	"slices"
	"strings"
)

// MaxHeadBytes bounds a head, its first line included: net/http's
// DefaultMaxHeaderBytes plus the 4 KiB its server allows on top.
const MaxHeadBytes = http.DefaultMaxHeaderBytes + 4<<10

// ErrHeadTooLarge: a head longer than its limit: a request head (answered
// 431), or an upstream response head or chunked trailer.
var ErrHeadTooLarge = errors.New("http1: head too large")

// ReadHead reads the next head — a request head, a response head or a
// chunked trailer — from br through its blank line and consumes it, never
// more. A head that fits br's buffer is returned in place, valid until
// br's next read; a longer one is copied out line by line. A head over
// limit bytes is ErrHeadTooLarge.
func ReadHead(br *bufio.Reader, limit int) ([]byte, error) {
	for scanned := 0; ; {
		b, _ := br.Peek(br.Buffered())
		if i := HeadEnd(b, scanned); i >= 0 {
			if i > limit {
				return nil, ErrHeadTooLarge
			}
			_, _ = br.Discard(i) // i bytes are buffered
			return b[:i], nil
		}
		if len(b) > limit {
			return nil, ErrHeadTooLarge
		}
		if len(b) == br.Size() {
			break
		}
		scanned = len(b)
		if _, err := br.Peek(len(b) + 1); err != nil {
			return nil, err
		}
	}
	var head []byte
	for start, atStart := 0, true; ; {
		line, err := br.ReadSlice('\n')
		if len(head)+len(line) > limit {
			return nil, ErrHeadTooLarge
		}
		if atStart {
			start = len(head)
		}
		if n := len(head) + len(line); n > cap(head) {
			// Double, capped at limit: append's 1.25× growth would
			// allocate about 5× limit for a head that reaches it.
			head = slices.Grow(head, min(n, limit-len(head)))
		}
		head = append(head, line...)
		if atStart = err == nil; err == bufio.ErrBufferFull {
			continue
		}
		if err != nil {
			return nil, err
		}
		if l := head[start:]; len(l) == 1 || len(l) == 2 && l[0] == '\r' {
			return head, nil
		}
	}
}

// HeadEnd returns the length of the head in b, through the LF that ends its
// first empty line ("\n" or "\r\n"), or -1. It looks at LFs from index from.
func HeadEnd(b []byte, from int) int {
	for i := from; i < len(b); i++ {
		j := bytes.IndexByte(b[i:], '\n')
		if j < 0 {
			return -1
		}
		i += j
		if i == 0 || b[i-1] == '\n' || b[i-1] == '\r' && (i == 1 || b[i-2] == '\n') {
			return i + 1
		}
	}
	return -1
}

// Request is a parsed request head; its slices alias the head.
type Request struct {
	Method, Target, Host []byte
	HTTP10               bool // HTTP/1.0, else HTTP/1.1
	Close                bool // the client asked to close after the response
	HasBody              bool // a Content-Length over 0, or chunked
}

// ParseRequest parses a request head that ReadHead returned. A non-zero
// status refuses it. It checks the target only for control bytes; with
// the proxy's target check it accepts only heads http.ReadRequest accepts
// (FuzzRequestHead), and refuses more: another version than HTTP/1.0 or
// 1.1, an HTTP/1.1 head without exactly one Host, obs-folded or nameless
// header lines, a header name with spaces, more than one Content-Length or
// Transfer-Encoding, both at once, a Transfer-Encoding other than chunked,
// and CONNECT's authority form.
func ParseRequest(head []byte) (h Request, status int) {
	line, rest := CutLine(head)
	method, line, ok1 := bytes.Cut(line, []byte(" "))
	target, proto, ok2 := bytes.Cut(line, []byte(" "))
	if !ok1 || !ok2 || !IsToken(method) || len(target) == 0 || HasCTL(target, false) {
		return h, http.StatusBadRequest
	}
	if string(method) == http.MethodConnect && target[0] != '/' {
		return h, http.StatusBadRequest // no tunnels
	}
	switch string(proto) {
	case "HTTP/1.1":
	case "HTTP/1.0":
		h.HTTP10 = true
	default:
		if bytes.HasPrefix(proto, []byte("HTTP/")) {
			return h, http.StatusHTTPVersionNotSupported
		}
		return h, http.StatusBadRequest
	}
	h.Method, h.Target = method, target
	var hosts, lengths, encodings int
	keepAlive := false
	for {
		line, rest = CutLine(rest)
		if len(line) == 0 {
			break
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		value = bytes.Trim(value, " \t")
		if !ok || !IsToken(name) || HasCTL(value, true) {
			return h, http.StatusBadRequest
		}
		switch {
		case EqualFold(name, "Host"):
			hosts++
			h.Host = value
		case EqualFold(name, "Content-Length"):
			lengths++
			if len(value) == 0 || len(value) > 18 || len(bytes.TrimLeft(value, "0123456789")) > 0 {
				return h, http.StatusBadRequest // not a length net/http would parse
			}
			h.HasBody = h.HasBody || len(bytes.TrimLeft(value, "0")) > 0
		case EqualFold(name, "Transfer-Encoding"):
			encodings++
			if !EqualFold(value, "chunked") {
				return h, http.StatusBadRequest
			}
			h.HasBody = true
		case EqualFold(name, "Connection"):
			h.Close = h.Close || HasToken(value, "close")
			keepAlive = keepAlive || HasToken(value, "keep-alive")
		}
	}
	if hosts > 1 || hosts == 0 && !h.HTTP10 || lengths+encodings > 1 {
		return h, http.StatusBadRequest
	}
	h.Close = h.Close || h.HTTP10 && !keepAlive
	return h, 0
}

// CutLine splits b after its first LF, dropping the line's "\n" or "\r\n".
func CutLine(b []byte) (line, rest []byte) {
	line, rest, _ = bytes.Cut(b, []byte("\n"))
	return bytes.TrimSuffix(line, []byte("\r")), rest
}

// tchar marks the bytes of an RFC 7230 token.
var tchar = func() (t [256]bool) {
	for c := range t {
		t[c] = '0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' ||
			strings.IndexByte("!#$%&'*+-.^_`|~", byte(c)) >= 0
	}
	return t
}()

// IsToken reports whether b is a non-empty RFC 7230 token.
func IsToken(b []byte) bool {
	for _, c := range b {
		if !tchar[c] {
			return false
		}
	}
	return len(b) > 0
}

// HasCTL reports whether b has a control byte (HTAB allowed when tab).
func HasCTL(b []byte, tab bool) bool {
	for _, c := range b {
		if c < ' ' && !(tab && c == '\t') || c == 0x7f {
			return true
		}
	}
	return false
}

// EqualFold is case-insensitive equality with an ASCII token s, as net/http
// compares tokens. Equal lengths keep Unicode folding out: the only runes
// that fold to ASCII letters (ſ, K) are longer than one byte.
func EqualFold(b []byte, s string) bool {
	return len(b) == len(s) && strings.EqualFold(string(b), s)
}

// HasToken reports whether the comma-separated header value v lists tok.
func HasToken(v []byte, tok string) bool {
	for len(v) > 0 {
		var elem []byte
		elem, v, _ = bytes.Cut(v, []byte(","))
		if EqualFold(bytes.Trim(elem, " \t"), tok) {
			return true
		}
	}
	return false
}
