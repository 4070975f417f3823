package faultnet

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// chaosRates is a representative schedule used across the tests.
var chaosRates = Rates{Drop: 0.2, Duplicate: 0.1, Delay: 0.1, DelayMin: time.Millisecond, DelayMax: 3 * time.Millisecond}

// TestDeciderDeterminism is the package's core contract: the same seed
// and rates produce the same verdict (and delay) sequence, event by event.
func TestDeciderDeterminism(t *testing.T) {
	a := newDecider(42, 7)
	b := newDecider(42, 7)
	diffSeed := newDecider(43, 7)
	diverged := false
	for i := 0; i < 10000; i++ {
		va, da := a.udpVerdict(chaosRates)
		vb, db := b.udpVerdict(chaosRates)
		if va != vb || da != db {
			t.Fatalf("event %d: (%v,%v) != (%v,%v)", i, va, da, vb, db)
		}
		if vc, dc := diffSeed.udpVerdict(chaosRates); vc != va || dc != da {
			diverged = true
		}
	}
	if !diverged {
		t.Error("a different seed produced an identical 10k-event sequence")
	}
}

func TestDeciderRatesRoughlyHonored(t *testing.T) {
	d := newDecider(1, 1)
	counts := map[Verdict]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		v, _ := d.udpVerdict(chaosRates)
		counts[v]++
	}
	check := func(v Verdict, want float64) {
		got := float64(counts[v]) / n
		if got < want*0.8 || got > want*1.2 {
			t.Errorf("%v rate %.3f, want ~%.3f", v, got, want)
		}
	}
	check(Drop, 0.2)
	check(Duplicate, 0.1)
	check(Delay, 0.1)
	check(Pass, 0.6)
}

// scriptConn is a fake socket recording outbound writes and serving a
// scripted inbound queue.
type scriptConn struct {
	mu     sync.Mutex
	writes []string
	inbox  []string
}

func (s *scriptConn) ReadFromUDP(b []byte) (int, *net.UDPAddr, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.inbox) == 0 {
		return 0, nil, io.EOF
	}
	msg := s.inbox[0]
	s.inbox = s.inbox[1:]
	return copy(b, msg), &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}, nil
}

func (s *scriptConn) WriteToUDP(b []byte, _ *net.UDPAddr) (int, error) {
	s.mu.Lock()
	s.writes = append(s.writes, string(b))
	s.mu.Unlock()
	return len(b), nil
}

func (s *scriptConn) Close() error        { return nil }
func (s *scriptConn) LocalAddr() net.Addr { return &net.UDPAddr{} }

func (s *scriptConn) wireLog() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.writes...)
}

// TestWrapUDPDeterministicSchedule drives the same write sequence through
// two injectors built from the same scenario and requires the on-wire
// result to be identical (drop/duplicate only — delays land asynchronously
// and are exercised separately).
func TestWrapUDPDeterministicSchedule(t *testing.T) {
	scen := Scenario{Seed: 99, Outbound: Rates{Drop: 0.3, Duplicate: 0.2}}
	run := func() []string {
		raw := &scriptConn{}
		c := New(scen).WrapUDP(raw)
		addr := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 1}
		for i := 0; i < 400; i++ {
			msg := string(rune('a' + i%26))
			if _, err := c.WriteToUDP([]byte(msg), addr); err != nil {
				t.Fatal(err)
			}
		}
		return raw.wireLog()
	}
	first, second := run(), run()
	if len(first) != len(second) {
		t.Fatalf("wire logs differ in length: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("wire logs diverge at %d: %q vs %q", i, first[i], second[i])
		}
	}
	if len(first) == 400 {
		t.Error("no faults fired at 30% drop + 20% duplicate over 400 writes")
	}
}

func TestWrapUDPInboundDrop(t *testing.T) {
	scen := Scenario{Seed: 5, Inbound: Rates{Drop: 0.5}}
	inj := New(scen)
	raw := &scriptConn{}
	for i := 0; i < 200; i++ {
		raw.inbox = append(raw.inbox, "m")
	}
	c := inj.WrapUDP(raw)
	buf := make([]byte, 16)
	delivered := 0
	for {
		_, _, err := c.ReadFromUDP(buf)
		if err != nil {
			break
		}
		delivered++
	}
	dropped := inj.Count(KindUDPDropIn)
	if delivered+int(dropped) != 200 {
		t.Fatalf("delivered %d + dropped %d != 200", delivered, dropped)
	}
	if dropped < 60 || dropped > 140 {
		t.Errorf("dropped %d of 200 at rate 0.5", dropped)
	}
}

// TestInjectorDisabledPassthrough checks the kill switch: every event
// passes and no decision stream is consumed.
func TestInjectorDisabledPassthrough(t *testing.T) {
	inj := New(Scenario{Seed: 1, Outbound: Rates{Drop: 1}, Inbound: Rates{Drop: 1}})
	inj.SetEnabled(false)
	raw := &scriptConn{inbox: []string{"x"}}
	c := inj.WrapUDP(raw)
	addr := &net.UDPAddr{}
	for i := 0; i < 50; i++ {
		if _, err := c.WriteToUDP([]byte("y"), addr); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(raw.wireLog()); got != 50 {
		t.Fatalf("disabled injector dropped writes: %d of 50 on the wire", got)
	}
	buf := make([]byte, 4)
	if _, _, err := c.ReadFromUDP(buf); err != nil {
		t.Fatalf("disabled injector ate the inbound datagram: %v", err)
	}
	if inj.Total() != 0 {
		t.Errorf("disabled injector counted %d faults", inj.Total())
	}
}

// countingOrigin is a fake remote serving a fixed body and counting the
// fetches that reach it.
type countingOrigin struct {
	calls int
	body  string
}

// fetch runs one attempt under f the way a fetcher must apply its verdict:
// no dial after an Attempt error, a 503 without network I/O for Err5xx,
// and TruncateBody over the response body for Truncate.
func (o *countingOrigin) fetch(f *HTTPFaults, budget time.Duration) (status int, body io.Reader, err error) {
	v, err := f.Attempt(budget)
	if err != nil {
		return 0, nil, err
	}
	if v == Err5xx {
		return http.StatusServiceUnavailable, strings.NewReader(""), nil
	}
	o.calls++
	body = strings.NewReader(o.body)
	if v == Truncate {
		body = TruncateBody(body, int64(len(o.body)))
	}
	return http.StatusOK, body, nil
}

func TestTransportConnectFail(t *testing.T) {
	base := &countingOrigin{body: "hello"}
	f := New(Scenario{Seed: 3, HTTP: HTTPRates{ConnectFail: 1}}).HTTPFaults()
	_, _, err := base.fetch(f, 0)
	if !errors.Is(err, ErrInjectedConnect) {
		t.Fatalf("err = %v, want ErrInjectedConnect", err)
	}
	if base.calls != 0 {
		t.Errorf("origin reached %d times through a connect failure", base.calls)
	}
}

func TestTransport5xxBurst(t *testing.T) {
	base := &countingOrigin{body: "hello"}
	inj := New(Scenario{Seed: 3, HTTP: HTTPRates{Err5xx: 0.3, Burst: 3}})
	f := inj.HTTPFaults()
	var codes []int
	for i := 0; i < 60; i++ {
		status, _, err := base.fetch(f, 0)
		if err != nil {
			t.Fatal(err)
		}
		codes = append(codes, status)
	}
	// Every injected 503 must come in runs of exactly Burst (or end the
	// sequence early).
	run := 0
	for i, c := range codes {
		if c == http.StatusServiceUnavailable {
			run++
			continue
		}
		if run != 0 && run%3 != 0 {
			t.Fatalf("503 run of %d before index %d; bursts must be multiples of 3", run, i)
		}
		run = 0
	}
	if inj.Count(KindHTTP5xx) == 0 {
		t.Error("no 503 injected at rate 0.3 over 60 requests")
	}
}

func TestTransportTruncate(t *testing.T) {
	base := &countingOrigin{body: strings.Repeat("x", 1000)}
	f := New(Scenario{Seed: 3, HTTP: HTTPRates{Truncate: 1}}).HTTPFaults()
	_, resp, err := base.fetch(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("read err = %v, want ErrUnexpectedEOF", err)
	}
	if len(body) >= 1000 {
		t.Errorf("truncated body still delivered %d of 1000 bytes", len(body))
	}
}

func TestTransportStallRespectsDeadline(t *testing.T) {
	base := &countingOrigin{body: "hello"}
	f := New(Scenario{Seed: 3, HTTP: HTTPRates{Stall: 1, StallFor: time.Minute}}).HTTPFaults()
	start := time.Now()
	_, _, err := base.fetch(f, 20*time.Millisecond)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want os.ErrDeadlineExceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("stall ignored the attempt's time limit")
	}
}

func TestNilInjectorPassthrough(t *testing.T) {
	var inj *Injector
	f := inj.HTTPFaults()
	if f != nil {
		t.Error("nil injector handed out an HTTP fault schedule")
	}
	if v, err := f.Attempt(time.Second); v != Pass || err != nil {
		t.Errorf("nil schedule: Attempt = %v, %v; want pass", v, err)
	}
	raw := &scriptConn{}
	if got := inj.WrapUDP(raw); got != PacketConn(raw) {
		t.Error("nil injector did not return the raw socket unchanged")
	}
}

func TestScenarioFork(t *testing.T) {
	s := Scenario{Seed: 7, Outbound: chaosRates}
	a, b := s.Fork(1), s.Fork(2)
	if a.Seed == b.Seed || a.Seed == s.Seed {
		t.Errorf("forks did not derive distinct seeds: %d %d %d", s.Seed, a.Seed, b.Seed)
	}
	if a.Outbound != s.Outbound {
		t.Error("fork changed the rates")
	}
}
