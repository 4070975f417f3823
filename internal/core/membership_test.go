package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"summarycache/internal/bloom"
	"summarycache/internal/hashing"
	"summarycache/internal/icp"
	"summarycache/internal/lru"
)

// Registration is the gate for all summary traffic: a node learns summaries
// from, answers and queries only the peers AddPeer registered.

// replicaState copies the node's replica of the peer at addr, with its bit
// array (nil: no replica).
func replicaState(n *Node, addr *net.UDPAddr) (r replica, bits []byte) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if p := n.byAddr[addrKey(addr)]; p != nil && p.rep.filter != nil {
		return p.rep, p.rep.filter.Snapshot()
	}
	return replica{}, nil
}

// listener opens a raw ICP endpoint that counts the queries it receives and
// never answers.
func listener(t *testing.T) (c *icp.Conn, queries *atomic.Int64) {
	t.Helper()
	queries = new(atomic.Int64)
	c, err := icp.Listen("127.0.0.1:0", func(_ *net.UDPAddr, m icp.Message) {
		if m.Op == icp.OpQuery {
			queries.Add(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(func() { c.Close() })
	return c, queries
}

// TestNonMemberUpdateDrawsNoQuery: a ~40-byte DIRUPDATE from an unregistered
// socket announcing one set bit would, if applied, build a replica that
// matches every URL and aim every lookup's query at that socket (whose
// source can be forged). It is refused before its geometry is read, and no
// lookup queries the outsider.
func TestNonMemberUpdateDrawsNoQuery(t *testing.T) {
	n, err := NewNode(NodeConfig{
		ListenAddr:   "127.0.0.1:0",
		Directory:    bloom.DirectoryConfig{ExpectedDocs: 100},
		HasDocument:  func(string) bool { return false },
		QueryTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	outsider, queries := listener(t)
	u := icp.NewDirUpdate(1, hashing.DefaultSpec, 1, []bloom.Flip{{Index: 0, Set: true}})
	if err := outsider.Send(n.Addr(), u); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the update to be handled", func() bool {
		st := n.Stats()
		return st.UpdatesRejected+st.UpdatesReceived == 1
	})
	if st := n.Stats(); st.UpdatesRejected != 1 {
		t.Fatalf("stats = %+v, want the outsider's update rejected", st)
	}
	for i := 0; i < 5; i++ {
		url := fmt.Sprintf("http://anything/%d", i)
		if hit, candidates, err := n.Lookup(context.Background(), url); err != nil || hit != nil || candidates != 0 {
			t.Fatalf("lookup %s: hit=%v candidates=%d err=%v, want no candidate", url, hit, candidates, err)
		}
	}
	if _, ok := n.ReplicaSnapshot(outsider.Addr()); ok || queries.Load() != 0 {
		t.Fatalf("replica of the outsider: %v; queries at its socket: %d; want neither", ok, queries.Load())
	}
}

// TestMemberAddedAfterBootAnswered: a peer registered while the node is
// serving is answered as soon as AddPeer returns; before, it is not.
func TestMemberAddedAfterBootAnswered(t *testing.T) {
	const url = "http://late/doc"
	n, err := NewNode(NodeConfig{
		ListenAddr:  "127.0.0.1:0",
		Directory:   bloom.DirectoryConfig{ExpectedDocs: 100},
		HasDocument: func(u string) bool { return u == url },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	c, _ := listener(t)
	ask := func(wait time.Duration) *net.UDPAddr {
		t.Helper()
		_, from, _, err := icp.QueryAll(context.Background(), c, wait, []*net.UDPAddr{n.Addr()}, url, 0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return from
	}
	if from := ask(200 * time.Millisecond); from != nil {
		t.Fatal("a query from an unregistered address was answered")
	}
	if err := n.AddPeer(c.Addr()); err != nil {
		t.Fatal(err)
	}
	if from := ask(2 * time.Second); from == nil {
		t.Fatal("the peer registered after boot was not answered")
	}
	if st := n.Stats(); st.QueriesRefused != 1 || st.QueriesReceived != 1 {
		t.Fatalf("stats = %+v, want one query refused, then one answered", st)
	}
}

// TestCandidatesInRegistrationOrder: the peers a lookup queries come in
// registration order, and the first of them is the one asked for the
// object, under either policy. The holders are registered in reverse
// address order, so that sorted order and registration order differ.
func TestCandidatesInRegistrationOrder(t *testing.T) {
	const url = "http://ordered/doc"
	for _, queryAll := range []bool{false, true} {
		t.Run(fmt.Sprintf("queryAll=%v", queryAll), func(t *testing.T) {
			var mu sync.Mutex
			var asked []string // the holders whose document was read: flagged queries
			node := func(holds bool, queryAll bool) *Node {
				var self string
				n, err := NewNode(NodeConfig{
					ListenAddr:  "127.0.0.1:0",
					Directory:   bloom.DirectoryConfig{ExpectedDocs: 100, MinPending: 1},
					HasDocument: func(u string) bool { return holds && u == url },
					ReadDocument: func(u string) ([]byte, int64, bool) {
						mu.Lock()
						asked = append(asked, self)
						mu.Unlock()
						return []byte("doc"), 1, holds && u == url
					},
					QueryTimeout: 2 * time.Second,
					QueryAll:     queryAll,
				})
				if err != nil {
					t.Fatal(err)
				}
				self = n.Addr().String()
				t.Cleanup(func() { n.Close() })
				return n
			}
			asker := node(false, queryAll)
			holders := []*Node{node(true, false), node(true, false), node(true, false)}
			slices.SortFunc(holders, func(a, b *Node) int { return strings.Compare(b.Addr().String(), a.Addr().String()) })
			var order []string
			for _, h := range holders {
				if err := h.AddPeer(asker.Addr()); err != nil {
					t.Fatal(err)
				}
				if err := asker.AddPeer(h.Addr()); err != nil {
					t.Fatal(err)
				}
				order = append(order, h.Addr().String())
			}
			if !queryAll {
				for _, h := range holders {
					h.HandleInsert(url)
					h.PublishNow()
				}
				waitFor(t, "every holder's summary", func() bool { return len(asker.Candidates(url)) == len(holders) })
				if got := asker.Candidates(url); !slices.Equal(got, order) {
					t.Fatalf("candidates = %v, want registration order %v", got, order)
				}
			}
			res, err := asker.LookupObject(context.Background(), []byte(url), hashing.Signature(url), nil)
			if err != nil || res.Candidates != len(holders) || res.PeerID != order[0] || res.Reply.Op != icp.OpHitObj {
				t.Fatalf("resolution = %+v (%v), want a HIT_OBJ from the first registered of %d", res, err, len(holders))
			}
			mu.Lock()
			defer mu.Unlock()
			if !slices.Equal(asked, order[:1]) {
				t.Fatalf("holders asked for the object: %v, want only %s", asked, order[0])
			}
		})
	}
}

// TestUpdateGeometryBounded: a member's update announcing more hash
// functions than the probe memo holds, or a bit array more than
// maxBitsRatio times larger or smaller than the local directory's, is
// rejected, counted, and leaves the replica as it was; updates at the
// bounds are applied.
func TestUpdateGeometryBounded(t *testing.T) {
	n, err := NewNode(NodeConfig{
		ListenAddr:  "127.0.0.1:0",
		Directory:   bloom.DirectoryConfig{ExpectedDocs: 100},
		HasDocument: func(string) bool { return false },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	member, _ := listener(t)
	if err := n.AddPeer(member.Addr()); err != nil {
		t.Fatal(err)
	}
	local := uint32(n.Directory().Bits())
	spec := func(k int) hashing.Spec { return hashing.Spec{FunctionNum: k, FunctionBits: 32} }
	n.handle(member.Addr(), icp.NewDirUpdate(1, hashing.DefaultSpec, local, []bloom.Flip{{Index: 7, Set: true}}))
	for _, tc := range []struct {
		name string
		spec hashing.Spec
		bits uint32
		ok   bool
	}{
		{"k above the memo", spec(maxReplicaK + 1), local, false},
		{"k=1024", spec(1024), local, false},
		{"k=65535", spec(65535), local, false},
		{"one bit matching every URL", hashing.DefaultSpec, 1, false},
		{"below 1/16 of the local bits", hashing.DefaultSpec, (local - 1) / maxBitsRatio, false},
		{"above 16x the local bits", hashing.DefaultSpec, local*maxBitsRatio + 1, false},
		{"bloom.MaxBits", hashing.DefaultSpec, uint32(bloom.MaxBits), false},
		{"k at the memo", spec(maxReplicaK), local, true},
		{"16x the local bits", hashing.DefaultSpec, local * maxBitsRatio, true},
		{"1/16 of the local bits", hashing.DefaultSpec, (local + maxBitsRatio - 1) / maxBitsRatio, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before, beforeBits := replicaState(n, member.Addr())
			rejected := n.Stats().UpdatesRejected
			n.handle(member.Addr(), icp.NewDirUpdate(2, tc.spec, tc.bits, []bloom.Flip{{Index: 0, Set: true}}))
			after, afterBits := replicaState(n, member.Addr())
			if got := n.Stats().UpdatesRejected - rejected; got != map[bool]uint64{false: 1, true: 0}[tc.ok] {
				t.Fatalf("rejections counted: %d, want ok=%v", got, tc.ok)
			}
			if tc.ok {
				if after.filter.Size() != uint64(tc.bits) || after.filter.Spec() != tc.spec {
					t.Fatalf("replica geometry %d bits %v, want %d bits %v", after.filter.Size(), after.filter.Spec(), tc.bits, tc.spec)
				}
				return
			}
			if after.filter != before.filter || after.gen != before.gen || !bytes.Equal(afterBits, beforeBits) {
				t.Fatal("a rejected update changed the replica")
			}
		})
	}
}

// TestRecoverRebuildsFromKeys: Recover rebuilds the directory from the
// cache's keys with nothing left pending, and re-peering ships that state
// once, as a full update asking for the peer's state, with no delta
// repeating it.
func TestRecoverRebuildsFromKeys(t *testing.T) {
	dirCfg := bloom.DirectoryConfig{ExpectedDocs: 100, MinPending: 1}
	node := func() *Node {
		n, err := NewNode(NodeConfig{
			ListenAddr:   "127.0.0.1:0",
			Directory:    dirCfg,
			HasDocument:  func(string) bool { return false },
			QueryTimeout: 200 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		return n
	}
	keys := []string{"http://saved/1", "http://saved/2", "http://saved/3"}
	docs := make([]lru.Entry, len(keys))
	for i, k := range keys {
		docs[i] = lru.Entry{Key: k, Sig: hashing.Signature(k)}
	}
	a, b := node(), node()
	a.Recover(docs)
	rebuilt, err := bloom.NewDirectory(dirCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		rebuilt.Insert(k)
	}
	dir := a.Directory()
	if !dir.Equal(rebuilt) || dir.PendingFlips() != 0 || dir.ShouldPublish() {
		t.Fatalf("recovered directory: equal %v, %d flips pending, due %v",
			dir.Equal(rebuilt), dir.PendingFlips(), dir.ShouldPublish())
	}
	if err := b.AddPeer(a.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := a.AddPeer(b.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "a's summary at b", func() bool {
		_, bits := replicaState(b, a.Addr())
		return bytes.Equal(bits, dir.FilterSnapshot())
	})
	a.PublishNow()
	if st := a.Stats(); st.UpdatesSent != 1 || st.UpdateFullBytes == 0 || st.UpdateDeltaBytes != 0 || st.Recoveries != 1 || st.ResyncRequestsSent != 1 {
		t.Fatalf("sent %d updates (full %d B, delta %d B, %d resync requests), %d recoveries; want one full update asking for b's state after one recovery",
			st.UpdatesSent, st.UpdateFullBytes, st.UpdateDeltaBytes, st.ResyncRequestsSent, st.Recoveries)
	}
}

// TestResyncRequestBounded: a bootstrap from a node that holds no replica
// of the peer asks for the peer's state, and a member's request is answered
// with one full state from the publisher, even right after the bootstrap.
// K requests inside the gap get that one answer; a non-member's request is
// refused and gets none.
func TestResyncRequestBounded(t *testing.T) {
	n, err := NewNode(NodeConfig{
		ListenAddr:  "127.0.0.1:0",
		Directory:   bloom.DirectoryConfig{ExpectedDocs: 100},
		HasDocument: func(string) bool { return false },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	// fulls records the Options of every full state a raw endpoint receives.
	endpoint := func() (*icp.Conn, func() []uint32) {
		var mu sync.Mutex
		var fulls []uint32
		c, err := icp.Listen("127.0.0.1:0", func(_ *net.UDPAddr, m icp.Message) {
			if m.Op == icp.OpDirUpdate && m.Options&icp.OptionFullUpdate != 0 {
				mu.Lock()
				fulls = append(fulls, m.Options)
				mu.Unlock()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		t.Cleanup(func() { c.Close() })
		return c, func() []uint32 {
			mu.Lock()
			defer mu.Unlock()
			return slices.Clone(fulls)
		}
	}
	member, memberFulls := endpoint()
	outsider, outsiderFulls := endpoint()

	n.HandleInsert("http://held/doc")
	if err := n.AddPeer(member.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the bootstrap", func() bool { return len(memberFulls()) == 1 })
	if got := memberFulls()[0]; got&icp.OptionResyncRequest == 0 {
		t.Fatalf("bootstrap options %#x, want a resync request: the node holds no replica of the member", got)
	}

	const k = 5
	req := icp.NewDirUpdate(0, n.Directory().Spec(), uint32(n.Directory().Bits()), nil)
	req.Options = icp.OptionFullUpdate | icp.OptionResyncRequest
	for i := 0; i < k; i++ {
		req.ReqNum = member.NextReqNum()
		if err := member.Send(n.Addr(), req); err != nil {
			t.Fatal(err)
		}
	}
	if err := outsider.Send(n.Addr(), req); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "every request handled", func() bool {
		st := n.Stats()
		return st.UpdatesReceived == k && st.UpdatesRejected == 1
	})
	waitFor(t, "the answer", func() bool { return len(memberFulls()) >= 2 })
	time.Sleep(100 * time.Millisecond) // room for a surplus answer to arrive
	if got := memberFulls(); len(got) != 2 || got[1]&icp.OptionResyncRequest != 0 {
		t.Fatalf("member got full states with options %#x, want the bootstrap and one answer asking nothing back", got)
	}
	if got := outsiderFulls(); len(got) != 0 {
		t.Fatalf("the outsider got %d full states, want none", len(got))
	}
	if st := n.Stats(); st.ResyncRequestsSent != 1 || st.ResyncRequestsServed != 1 {
		t.Fatalf("resync requests sent %d, served %d; want 1 and 1", st.ResyncRequestsSent, st.ResyncRequestsServed)
	}
}

// frame appends one length-prefixed datagram to a fuzz stream.
func frame(stream, datagram []byte) []byte {
	stream = binary.BigEndian.AppendUint16(stream, uint16(len(datagram)))
	return append(stream, datagram...)
}

func wire(tb testing.TB, m icp.Message) []byte {
	tb.Helper()
	b, err := m.MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// FuzzApplyUpdate feeds a member's DIRUPDATE stream, decoded from fuzz
// bytes as the node's read loop decodes it, into the node's handler:
// geometry changes mid-stream, hash counts and bit arrays out of bounds,
// flip counts that disagree with the bytes present. Nothing panics, a
// rejected update leaves the replica exactly as it was, and an accepted
// one leaves a replica inside the bounds.
func FuzzApplyUpdate(f *testing.F) {
	n, err := NewNode(NodeConfig{
		ListenAddr:  "127.0.0.1:0",
		Directory:   bloom.DirectoryConfig{ExpectedDocs: 64},
		HasDocument: func(string) bool { return false },
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { n.Close() })
	member, err := icp.Listen("127.0.0.1:0", nil)
	if err != nil {
		f.Fatal(err)
	}
	member.Start()
	f.Cleanup(func() { member.Close() })
	if err := n.AddPeer(member.Addr()); err != nil {
		f.Fatal(err)
	}
	local := uint32(n.Directory().Bits())
	upd := func(k int, bits uint32, flips ...uint32) []byte {
		var fl []bloom.Flip
		for _, i := range flips {
			fl = append(fl, bloom.Flip{Index: i, Set: true})
		}
		return wire(f, icp.NewDirUpdate(1, hashing.Spec{FunctionNum: k, FunctionBits: 32}, bits, fl))
	}
	lying := upd(4, local, 1, 2)
	binary.BigEndian.PutUint32(lying[icp.HeaderLen+8:], 3) // NumberOfUpdates: 3, with 2 records present
	f.Add(frame(frame(nil, upd(4, local, 1, 5)), upd(4, 2*local, 9)))
	f.Add(frame(frame(nil, upd(4, local, 3)), upd(maxReplicaK+1, local, 3)))
	f.Add(frame(frame(nil, upd(4, local, 3)), upd(4, 1, 0)))
	f.Add(frame(frame(nil, upd(4, local, 3)), lying))
	f.Add(frame(nil, upd(6, local*maxBitsRatio, local*maxBitsRatio-1)))
	f.Fuzz(func(t *testing.T, stream []byte) {
		n.mu.Lock()
		n.byAddr[addrKey(member.Addr())].rep = replica{}
		n.mu.Unlock()
		var dec icp.Decoder
		for len(stream) >= 2 {
			size := min(int(binary.BigEndian.Uint16(stream)), len(stream)-2)
			datagram := stream[2 : 2+size]
			stream = stream[2+size:]
			m, err := dec.Decode(datagram)
			if err != nil || m.Op != icp.OpDirUpdate {
				continue
			}
			before, beforeBits := replicaState(n, member.Addr())
			rejected := n.Stats().UpdatesRejected
			n.handle(member.Addr(), m)
			after, afterBits := replicaState(n, member.Addr())
			if n.Stats().UpdatesRejected != rejected {
				if after.filter != before.filter || after.gen != before.gen || !bytes.Equal(afterBits, beforeBits) {
					t.Fatalf("rejected update %+v changed the replica", m.Update.Spec)
				}
				continue
			}
			k, bits := after.filter.K(), after.filter.Size()
			if k < 1 || k > maxReplicaK || bits > uint64(local)*maxBitsRatio || bits*maxBitsRatio < uint64(local) {
				t.Fatalf("accepted a replica of k=%d and %d bits against %d local bits", k, bits, local)
			}
		}
	})
}
