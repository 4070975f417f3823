package httpproxy

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"testing"
	"time"

	"summarycache/internal/bloom"
	"summarycache/internal/faultnet"
	"summarycache/internal/icp"
	"summarycache/internal/origin"
)

// overInline is a document size no HIT_OBJ reply can carry, so a remote
// hit on it takes the sibling HTTP fetch.
const overInline = icp.MaxHitObjLen

// originBody is the body the test origin serves for a document of size
// bytes: 'a'..'z' repeated, restarting at every 32 KiB block it streams.
func originBody(size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte('a' + i%(32<<10)%26)
	}
	return b
}

// inlineEdge returns the largest document size whose HIT_OBJ reply for
// the document at path fits icp.MaxHitObjLen exactly.
func inlineEdge(m *mesh, path string) int64 {
	size := int64(icp.MaxHitObjLen)
	for {
		fit := int64(icp.MaxHitObjLen - icp.HeaderLen - len(m.docURL(path, size)) - 1 - 2)
		if fit == size {
			return size
		}
		size = fit
	}
}

// TestInlineRemoteHit: in both cooperation modes a small remote hit is
// served from the HIT_OBJ reply — the exact bytes, counted as a remote hit,
// with no sibling fetch and so no HTTP transaction beyond the client's.
func TestInlineRemoteHit(t *testing.T) {
	for _, mode := range []Mode{ModeICP, ModeSCICP} {
		t.Run(mode.String(), func(t *testing.T) {
			m := newMesh(t, 2, mode, 0)
			a, b := m.proxies[0], m.proxies[1]
			u := m.docURL("inline/doc", 3000)
			m.fetch(t, b, u)
			if mode == ModeSCICP {
				b.FlushSummary()
				waitForCandidate(t, a, u)
			}
			recvBefore := a.Stats().UDP.RecvBytes
			if body := m.fetch(t, a, u); !bytes.Equal(body, originBody(3000)) {
				t.Fatalf("inline remote hit served %d wrong bytes", len(body))
			}
			st := a.Stats()
			if st.RemoteHits != 1 || st.PeerFetches != 0 || st.OriginFetches != 0 || st.HTTPMessages != 2 {
				t.Fatalf("stats = %+v, want one remote hit, no peer fetch, HTTPMessages 2", st)
			}
			if got := m.origin.Stats().Requests; got != 1 {
				t.Fatalf("origin saw %d requests, want 1", got)
			}
			// The querier counts a datagram before handing it on; the sibling
			// counts its send only after the write returns, maybe too late.
			if recv := st.UDP.RecvBytes - recvBefore; recv < 3000 {
				t.Fatalf("querier received %d UDP bytes for the hit, want the 3000-byte document among them", recv)
			}
		})
	}
}

// TestInlineICPFirstPeerOnly: classic ICP asks only its first-added peer
// for the object, so a document held by that peer arrives inline while one
// held only by another sibling takes the HTTP leg.
func TestInlineICPFirstPeerOnly(t *testing.T) {
	m := newMesh(t, 3, ModeICP, 0)
	a := m.proxies[0] // peers in order added: proxies[1], then proxies[2]
	for i, c := range []struct {
		holder  *Proxy
		fetches uint64
	}{
		{m.proxies[2], 1}, // not the first peer: plain HIT, sibling fetch
		{m.proxies[1], 1}, // the first peer: HIT_OBJ, no further fetch
	} {
		u := m.docURL(fmt.Sprintf("icp/doc%d", i), 3000)
		m.fetch(t, c.holder, u)
		if body := m.fetch(t, a, u); !bytes.Equal(body, originBody(3000)) {
			t.Fatalf("doc%d: remote hit served %d wrong bytes", i, len(body))
		}
		if st := a.Stats(); st.RemoteHits != uint64(i+1) || st.PeerFetches != c.fetches || st.OriginFetches != 0 {
			t.Fatalf("doc%d: stats = %+v, want %d remote hits and %d peer fetches", i, st, i+1, c.fetches)
		}
	}
}

// TestInlineLimitEdge:a document whose reply is exactly icp.MaxHitObjLen
// rides inline; one byte more and the remote hit takes the HTTP leg.
func TestInlineLimitEdge(t *testing.T) {
	m := newMesh(t, 2, ModeSCICP, 0)
	a, b := m.proxies[0], m.proxies[1]
	for i, c := range []struct {
		path    string
		extra   int64
		fetches uint64
	}{
		{"edge/fits", 0, 0},
		{"edge/over", 1, 1},
	} {
		size := inlineEdge(m, c.path) + c.extra
		u := m.docURL(c.path, size)
		m.fetch(t, b, u)
		b.FlushSummary()
		waitForCandidate(t, a, u)
		if body := m.fetch(t, a, u); !bytes.Equal(body, originBody(int(size))) {
			t.Fatalf("%s: remote hit served %d wrong bytes", c.path, len(body))
		}
		st := a.Stats()
		if st.RemoteHits != uint64(i+1) || st.PeerFetches != c.fetches {
			t.Fatalf("%s (%d bytes): stats = %+v, want %d peer fetches", c.path, size, st, c.fetches)
		}
	}
}

// TestInlineUnderUDPLoss: with a third of the ICP datagrams lost, delayed
// or duplicated, requests whose inline reply is lost fall back to another
// sibling's HTTP copy or to the origin — and every client still receives
// exactly the right bytes.
func TestInlineUnderUDPLoss(t *testing.T) {
	udp := faultnet.Rates{Drop: 0.3, Duplicate: 0.1, Delay: 0.1, DelayMin: time.Millisecond, DelayMax: 5 * time.Millisecond}
	for _, mode := range []Mode{ModeICP, ModeSCICP} {
		t.Run(mode.String(), func(t *testing.T) {
			org, err := origin.Start(origin.Config{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { org.Close() })
			base := faultnet.Scenario{Seed: 0x1A11E, Inbound: udp, Outbound: udp}
			var proxies []*Proxy
			var injectors []*faultnet.Injector
			for i := 0; i < 3; i++ {
				inj := faultnet.New(base.Fork(int64(i)))
				p, err := Start(Config{
					Mode: mode, CacheBytes: 8 << 20,
					Summary:      bloom.DirectoryConfig{ExpectedDocs: 2000, UpdateThreshold: 0.01, MinPending: 1},
					QueryTimeout: 50 * time.Millisecond,
					Faults:       inj,
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { p.Close() })
				proxies = append(proxies, p)
				injectors = append(injectors, inj)
			}
			for i, p := range proxies {
				for j, q := range proxies {
					if i != j {
						if err := p.AddPeer(q.ICPAddr(), q.URL()); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			m := &mesh{origin: org, proxies: proxies}
			const docs, requests = 20, 180
			for r := 0; r < requests; r++ {
				size := 512 + 397*(r%docs)
				u := m.docURL(fmt.Sprintf("lossy/doc%d", r%docs), int64(size))
				if body := m.fetch(t, proxies[r%3], u); !bytes.Equal(body, originBody(size)) {
					t.Fatalf("request %d: wrong body (%d bytes, want %d)", r, len(body), size)
				}
				proxies[r%3].FlushSummary() // lossy, like every other datagram
			}
			var remote, fetches, peerFetches uint64
			for i, p := range proxies {
				st := p.Stats()
				remote += st.RemoteHits
				fetches += st.OriginFetches
				peerFetches += st.PeerFetches
				if injectors[i].Total() == 0 {
					t.Fatalf("proxy %d: no faults injected", i)
				}
			}
			// A holder other than the one asked for the object, or one whose
			// inline reply was lost while a plain HIT arrived, takes HTTP.
			if remote == 0 || peerFetches >= remote {
				t.Fatalf("%d remote hits with %d peer fetches, want some served inline", remote, peerFetches)
			}
			if fetches <= docs {
				t.Fatalf("%d origin fetches for %d documents: no request fell back to the origin", fetches, docs)
			}
		})
	}
}

// TestDuplicateHitObjDuringFlush: the flagged holder sends every HIT_OBJ
// twice, so the copy reaches the asker while it writes the first one's
// object, which lies in the connection's scratch, to the client. The
// copy must not land there: each client gets exactly the holder's bytes
// for its document, and each copy is counted late. The documents differ
// in size and bytes, so a copy landing in the scratch shows in a later
// response, and the race detector sees one landing during the write.
func TestDuplicateHitObjDuringFlush(t *testing.T) {
	const docs = 40
	bodyFor := func(u string) []byte {
		return bytes.Repeat([]byte(u), 1+len(u)*7%60)
	}
	holder, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { holder.Close() })
	go func() {
		buf := make([]byte, icp.MaxDatagram)
		for {
			n, from, err := holder.ReadFromUDP(buf)
			if err != nil {
				return
			}
			q, err := icp.Parse(buf[:n])
			if err != nil || q.Op != icp.OpQuery {
				continue
			}
			reply, _ := icp.NewHitObj(q.ReqNum, q.URL, bodyFor(q.URL), 0)
			wire, err := reply.MarshalBinary()
			if err != nil {
				panic(err)
			}
			_, _ = holder.WriteToUDP(wire, from) // a lost copy fails the counts below
			_, _ = holder.WriteToUDP(wire, from)
		}
	}()
	asker, err := Start(Config{Mode: ModeICP, CacheBytes: 1 << 20, SingleCopy: true, QueryTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { asker.Close() })
	if err := asker.AddPeer(holder.LocalAddr().(*net.UDPAddr), "http://127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	t.Cleanup(client.CloseIdleConnections)
	for i := 0; i < docs; i++ {
		u := fmt.Sprintf("http://origin.invalid/%0*d", 1+i*13%50, i)
		resp, err := client.Get(asker.URL() + ProxyPath + "?url=" + url.QueryEscape(u))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(body, bodyFor(u)) {
			t.Fatalf("%s: status %d, %d bytes (%v); want the holder's %d bytes", u, resp.StatusCode, len(body), err, len(bodyFor(u)))
		}
	}
	var st Stats
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if st = asker.Stats(); st.UDP.Received >= 2*docs && st.UDP.LateReplies >= docs {
			break
		}
	}
	if st.RemoteHits != docs || st.PeerFetches != 0 || st.OriginFetches != 0 {
		t.Fatalf("stats %+v, want %d inline remote hits", st, docs)
	}
	if st.UDP.Received != 2*docs || st.UDP.LateReplies != docs || st.UDP.Unasked != 0 {
		t.Fatalf("ICP stats %+v, want %d replies received and every copy counted late", st.UDP, 2*docs)
	}
}
