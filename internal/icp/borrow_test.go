package icp

import (
	"net"
	"reflect"
	"testing"
	"time"

	"summarycache/internal/bloom"
	"summarycache/internal/hashing"
)

// mustPanicStale fails t unless read panics with the stale-borrow message.
func mustPanicStale(t *testing.T, read func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != staleBorrow {
			t.Fatalf("read of a stale borrow: recovered %v, want panic %q", r, staleBorrow)
		}
	}()
	read()
}

// deliverAB runs a handler on a real Conn: it passes the first datagram's
// message to keep, then waits until the handler has seen the second, so
// the read loop's decoder has moved on past the first. It returns what
// keep returned.
func deliverAB[T any](t *testing.T, a, b Message, keep func(m Message) T) T {
	t.Helper()
	var kept T
	seen := make(chan struct{}, 2)
	first := true
	srv, err := Listen("127.0.0.1:0", func(_ *net.UDPAddr, m Message) {
		if first {
			kept, first = keep(m), false
		}
		seen <- struct{}{}
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Close()
	cli := client(t)
	for _, m := range []Message{a, b} {
		if err := cli.Send(srv.Addr(), m); err != nil {
			t.Fatal(err)
		}
		select {
		case <-seen:
		case <-time.After(2 * time.Second):
			t.Fatalf("%v not delivered", m.Op)
		}
	}
	return kept
}

// borrowA and borrowB are the two DIRUPDATEs a retained borrow straddles.
func borrowA() Message { return NewDirUpdate(1, hashing.DefaultSpec, 1<<20, someFlips(8)) }
func borrowB() Message {
	return NewDirUpdate(2, hashing.DefaultSpec, 1<<16, []bloom.Flip{{Index: 5, Set: true}, {Index: 6}, {Index: 7}})
}

// Package state the retaining cases below keep a borrow in.
var (
	keptUpdate  DirUpdate
	stashed     DirUpdate
	keptDecoded Message
)

// stash keeps its argument past the call.
func stash(u DirUpdate) { stashed = u }

type recorder struct{ last Message }

func (r *recorder) keep(m Message) { r.last = m }

// A DIRUPDATE's records are borrowed from the decoder for the handler's
// call. Every way a handler (or a Decode caller) can keep the borrow past
// that leaves a message or update whose records panic on first read once
// the next datagram is decoded; none reads the next datagram's flips.
func TestRetainedBorrowPanics(t *testing.T) {
	cases := []struct {
		name string
		// keep runs in the handler on datagram A and returns a read of
		// what it kept, made after datagram B.
		keep func(m Message) (read func())
	}{
		{"field store through the receiver", func(m Message) func() {
			r := &recorder{}
			r.keep(m)
			return func() { r.last.Update.Len() }
		}},
		{"package-variable store", func(m Message) func() {
			keptUpdate = m.Update
			return func() { keptUpdate.At(0) }
		}},
		{"channel send", func(m Message) func() {
			ch := make(chan Message, 1)
			ch <- m
			return func() {
				k := <-ch
				_ = k.Update.ApplyTo(bloom.MustNewFilter(1<<20, hashing.DefaultSpec))
			}
		}},
		{"goroutine argument", func(m Message) func() {
			release, done := make(chan struct{}), make(chan any)
			go func(k Message, release <-chan struct{}, done chan<- any) {
				<-release
				defer func() { done <- recover() }()
				_ = k.Update.Validate()
			}(m, release, done)
			return rethrow(release, done)
		}},
		{"goroutine capture", func(m Message) func() {
			release, done := make(chan struct{}), make(chan any)
			go func() {
				<-release
				defer func() { done <- recover() }()
				m.Update.WireBytes()
			}()
			return rethrow(release, done)
		}},
		{"callee that keeps its argument", func(m Message) func() {
			stash(m.Update)
			return func() { stashed.Len() }
		}},
		{"re-encoding a kept message", func(m Message) func() {
			k := m
			return func() { _, _ = k.MarshalBinary() }
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			read := deliverAB(t, borrowA(), borrowB(), c.keep)
			mustPanicStale(t, read)
		})
	}

	t.Run("Decode result kept in package state", func(t *testing.T) {
		var dec Decoder
		if keptDecoded, _ = dec.Decode(mustWire(t, borrowA())); keptDecoded.Update.Len() != 8 {
			t.Fatalf("decoded %d flips, want 8", keptDecoded.Update.Len())
		}
		if _, err := dec.Decode(mustWire(t, borrowB())); err != nil {
			t.Fatal(err)
		}
		mustPanicStale(t, func() { keptDecoded.Update.At(0) })
	})
}

// rethrow releases a goroutine that reads a kept borrow and re-raises, on
// the caller's goroutine, whatever the read panicked with.
func rethrow(release chan<- struct{}, done <-chan any) func() {
	return func() {
		close(release)
		if r := <-done; r != nil {
			panic(r)
		}
	}
}

// What a handler may keep from a borrowed message: records copied out,
// scalars, the owned URL, and whatever a local carrier or a read-only
// callee derived during the call. None of it panics after the next
// datagram, and all of it still shows datagram A.
func TestBorrowCopiesSurvive(t *testing.T) {
	a := borrowA()
	query := NewQuery(3, "http://example.com/kept")
	var setA uint32
	for _, f := range a.Update.Flips {
		if f.Set {
			setA++
		}
	}
	cases := []struct {
		name string
		a    Message
		keep func(m Message) any
		want any
	}{
		{"flips copied out", a, func(m Message) any {
			var out []bloom.Flip
			for i := 0; i < m.Update.Len(); i++ {
				out = append(out, m.Update.At(i))
			}
			return out
		}, a.Update.Flips},
		{"scalars copied", a, func(m Message) any {
			return [3]uint32{m.ReqNum, m.Update.Bits, uint32(m.Update.Spec.FunctionNum)}
		}, [3]uint32{a.ReqNum, a.Update.Bits, uint32(a.Update.Spec.FunctionNum)}},
		{"URL kept", query, func(m Message) any { return m.URL }, query.URL},
		{"local carrier", a, func(m Message) any {
			local := m
			return local.Update.WireBytes()
		}, a.Update.WireBytes()},
		{"read-only callee", a, func(m Message) any {
			return countSet(&m.Update)
		}, setA},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := deliverAB(t, c.a, borrowB(), c.keep); !reflect.DeepEqual(got, c.want) {
				t.Fatalf("kept %v, want %v", got, c.want)
			}
		})
	}
}

// countSet reads u during the call and keeps nothing of it.
func countSet(u *DirUpdate) uint32 {
	var n uint32
	for i := 0; i < u.Len(); i++ {
		if u.At(i).Set {
			n++
		}
	}
	return n
}
