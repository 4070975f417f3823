package icp_test

import (
	"context"
	"net"
	"testing"
	"time"

	"summarycache/internal/bloom"
	"summarycache/internal/core"
	"summarycache/internal/icp"
)

// TestDualStackPeers: an endpoint listening on "[::]:0" receives an IPv4
// peer's datagrams from the IPv4-mapped address ::ffff:127.0.0.1. It still
// queries and answers that peer as 127.0.0.1: the fan-out returns the
// peer's HIT as the caller's own *net.UDPAddr with nothing counted
// unasked, and a core member registered by its IPv4 address is answered.
// A reply matched by its raw source would count every such reply unasked.
func TestDualStackPeers(t *testing.T) {
	if pc, err := net.ListenUDP("udp6", &net.UDPAddr{IP: net.IPv6loopback}); err != nil {
		t.Skipf("no IPv6 on this host: %v", err)
	} else {
		pc.Close()
	}
	const url = "http://dual/doc"
	// answerer listens on addr and answers HIT for url.
	answerer := func(addr string) *icp.Conn {
		var c *icp.Conn
		c, err := icp.Listen(addr, func(from *net.UDPAddr, m icp.Message) {
			if m.Op == icp.OpQuery {
				_ = c.Send(from, icp.NewReply(icp.OpHit, m.ReqNum, m.URL)) // a lost reply fails the query below
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		t.Cleanup(func() { c.Close() })
		return c
	}
	dual, v4 := answerer("[::]:0"), answerer("127.0.0.1:0")
	dualV4 := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: dual.Addr().Port}
	for _, tc := range []struct {
		name  string
		asker *icp.Conn
		peer  *net.UDPAddr
	}{
		{"dual-stack asks IPv4", dual, v4.Addr()},
		{"IPv4 asks dual-stack", v4, dualV4},
	} {
		peers := []*net.UDPAddr{tc.peer}
		win, from, _, err := tc.asker.QueryAllFunc(context.Background(), 2*time.Second, peers, url, 0, nil, nil)
		if err != nil || from != tc.peer || win.Op != icp.OpHit || win.URL != url {
			t.Fatalf("%s: %v for %q from %v (%v), want a HIT from %v", tc.name, win.Op, win.URL, from, err, tc.peer)
		}
		if st := tc.asker.Stats(); st.Unasked != 0 {
			t.Fatalf("%s: %d replies counted unasked", tc.name, st.Unasked)
		}
	}

	// node runs a query-all core node on addr holding doc.
	node := func(addr, doc string) *core.Node {
		n, err := core.NewNode(core.NodeConfig{
			ListenAddr:   addr,
			Directory:    bloom.DirectoryConfig{ExpectedDocs: 100},
			HasDocument:  func(u string) bool { return u == doc },
			QueryTimeout: 2 * time.Second,
			QueryAll:     true,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		return n
	}
	dn, vn := node("[::]:0", "http://dual/a"), node("127.0.0.1:0", "http://dual/b")
	dnV4 := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: dn.Addr().Port}
	if err := dn.AddPeer(vn.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := vn.AddPeer(dnV4); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		asker *core.Node
		doc   string
		want  *net.UDPAddr
	}{
		{vn, "http://dual/a", dnV4},
		{dn, "http://dual/b", vn.Addr()},
	} {
		hit, _, err := tc.asker.Lookup(context.Background(), tc.doc)
		if err != nil || hit != tc.want {
			t.Fatalf("lookup of %s from %v: hit %v (%v), want %v", tc.doc, tc.asker.Addr(), hit, err, tc.want)
		}
	}
	for _, n := range []*core.Node{dn, vn} {
		if st := n.Stats(); st.QueriesReceived != 1 || st.QueriesRefused != 0 || st.UDP.Unasked != 0 {
			t.Fatalf("%v: stats %+v, want its member's one query answered and no reply unasked", n.Addr(), st)
		}
	}
}
