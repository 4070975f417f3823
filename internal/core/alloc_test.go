package core

import (
	"context"
	"crypto/md5"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"summarycache/internal/bloom"
	"summarycache/internal/hashing"
	"summarycache/internal/icp"
)

// TestLookupObjectAllocBudget pins what one inline remote hit allocates on a
// two-node loopback pair, under either policy: the summary probe (or the
// query-all peer list), the ICP fan-out (reply channel, timer, peer lists)
// and the answer all reuse memory, sockets are read into netip.AddrPort
// values, a reply's URL is the asker's own string, and the object lands in
// the destination the asker passes, so only the copy below remains.
// AllocsPerRun counts every goroutine of the process, so both nodes' read
// loops are in the count.
func TestLookupObjectAllocBudget(t *testing.T) {
	url := "http://example.com/" + strings.Repeat("d", 181) // a 200-byte URL
	body := []byte("the document, small enough to ride the reply")
	for _, tc := range []struct {
		name     string
		queryAll bool
	}{
		{"summary", false},
		{"query-all", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			node := func(has bool) *Node {
				n, err := NewNode(NodeConfig{
					ListenAddr:   "127.0.0.1:0",
					Directory:    bloom.DirectoryConfig{ExpectedDocs: 1000, LoadFactor: 16, UpdateThreshold: 0.01, MinPending: 1},
					HasDocument:  func(u string) bool { return has && u == url },
					ReadDocument: func(u string) ([]byte, int64, bool) { return body, 7, has && u == url },
					QueryTimeout: 2 * time.Second,
					QueryAll:     tc.queryAll,
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { n.Close() })
				return n
			}
			asker, holder := node(false), node(true)
			// Each node answers and learns from its members only: one
			// registered peer each way.
			if err := asker.AddPeer(holder.Addr()); err != nil {
				t.Fatal(err)
			}
			if err := holder.AddPeer(asker.Addr()); err != nil {
				t.Fatal(err)
			}
			holder.HandleInsert(url)
			holder.PublishNow()
			for deadline := time.Now().Add(3 * time.Second); !tc.queryAll && len(asker.Candidates(url)) == 0; {
				if time.Now().After(deadline) {
					t.Fatal("the holder's summary never reached the asker")
				}
				time.Sleep(5 * time.Millisecond)
			}
			ctx, id, sig := context.Background(), holder.Addr().String(), hashing.Signature(url)
			obj := make([]byte, 0, icp.MaxHitObjLen)
			lookup := func() {
				res, err := asker.LookupObject(ctx, url, sig, obj)
				if err != nil || res.Reply.Op != icp.OpHitObj || res.PeerID != id {
					t.Fatalf("resolution = %+v (%v), want a HIT_OBJ from the holder", res, err)
				}
				if got := res.Reply.Object; string(got) != string(body) || &got[:1][0] != &obj[:1][0] {
					t.Fatalf("object %q, want %q in the destination", got, body)
				}
			}
			lookup() // the first fan-out makes the reply channel and timer
			// Left per remote hit, one allocation: the holder's read loop
			// decodes the query's URL string, which its handler keeps.
			const budget = 1
			if n := testing.AllocsPerRun(200, lookup); n != budget {
				t.Fatalf("LookupObject allocated %v times per remote hit, want %d", n, budget)
			}
		})
	}
}

// BenchmarkNodeCandidates times the candidate pass over four registered
// replicas with each URL's signature given, as a lookup runs it, and
// reports it per member (ns/member) beside filter-test: one
// bloom.Filter.Test of the same URLs, which hashes each.
func BenchmarkNodeCandidates(b *testing.B) {
	const members, docs = 4, 1000
	cfg := bloom.DirectoryConfig{ExpectedDocs: docs}
	n, err := NewNode(NodeConfig{ListenAddr: "127.0.0.1:0", Directory: cfg, HasDocument: func(string) bool { return false }})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { n.Close() })
	for m := 0; m < members; m++ {
		dir, err := bloom.NewDirectory(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < docs; i++ {
			dir.Insert(fmt.Sprintf("http://peer%d.example.com/doc/%d.html", m, i))
		}
		addr := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 1 + m}
		if err := n.AddPeer(addr); err != nil {
			b.Fatal(err)
		}
		u := &icp.DirUpdate{Spec: dir.Spec(), Bits: uint32(dir.Bits()), Flips: dir.SnapshotFlips()}
		if err := n.applyUpdate(addr, u, icp.OptionFullUpdate); err != nil {
			b.Fatal(err)
		}
	}
	// Half the URLs are held by one member, half by none.
	keys := make([]string, 1024)
	sigs := make([][md5.Size]byte, len(keys))
	for i := range keys {
		keys[i] = fmt.Sprintf("http://peer%d.example.com/doc/%d.html", i%members, i%(2*docs))
		sigs[i] = hashing.Signature(keys[i])
	}
	b.Run("candidates", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n.candidates(keys[i&1023], sigs[i&1023])
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/members, "ns/member")
	})
	b.Run("filter-test", func(b *testing.B) {
		f := n.members[0].rep.filter
		for i := 0; i < b.N; i++ {
			f.Test(keys[i&1023])
		}
	})
}
