package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"summarycache/internal/icp"
)

// TestLookupObjectAllocBudget pins what one inline remote hit allocates on a
// two-node loopback pair, under either policy: the summary probe (or the
// query-all peer list), the ICP fan-out (reply channel, timer, peer lists)
// and the answer all reuse memory, and only the decoding and receive costs
// below remain. AllocsPerRun counts every goroutine of the process, so both
// nodes' read loops are in the count.
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
					ListenAddr:        "127.0.0.1:0",
					Directory:         DirectoryConfig{ExpectedDocs: 1000, LoadFactor: 16, UpdateThreshold: 0.01},
					HasDocument:       func(u string) bool { return has && u == url },
					ReadDocument:      func(u string) ([]byte, int64, bool) { return body, 7, has && u == url },
					MinFlipsToPublish: 1,
					QueryTimeout:      2 * time.Second,
					QueryAll:          tc.queryAll,
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
			ctx, id := context.Background(), holder.Addr().String()
			lookup := func() {
				res, err := asker.LookupObject(ctx, url)
				if err != nil || res.Reply.Op != icp.OpHitObj || res.PeerID != id {
					t.Fatalf("resolution = %+v (%v), want a HIT_OBJ from the holder", res, err)
				}
			}
			lookup() // the first fan-out makes the reply channel and timer
			// Left per remote hit, seven allocations, all in the two read
			// loops:
			//   - holder: the query's receive address (a *net.UDPAddr and the
			//     copy of its IP that net makes) and the query's decoded URL
			//     string;
			//   - asker: the reply's receive address (the same two), its
			//     decoded URL string and the object copied out of the
			//     datagram.
			const budget = 7
			if n := testing.AllocsPerRun(200, lookup); n != budget {
				t.Fatalf("LookupObject allocated %v times per remote hit, want %d", n, budget)
			}
		})
	}
}
