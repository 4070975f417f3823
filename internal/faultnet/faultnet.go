// Package faultnet is a deterministic fault-injection layer for the
// mesh's two network paths: a net-socket wrapper for the ICP UDP traffic
// (drop, delay, duplicate — and, through delayed sends overtaken by later
// ones, reorder) and a per-attempt verdict for origin and sibling HTTP
// fetches (connect failures, stalls, truncated bodies, 5xx bursts).
//
// Everything is driven by a Scenario: a seed plus per-direction fault
// rates. The same Scenario always produces the same per-event fault
// sequence, so a test failure under chaos is replayable from its seed —
// the paper's §VI-A robustness claims ("loss of previous update messages
// would [not] have cascading effects"; the prototype "detects failure and
// recovery of neighbor proxies") become assertions against a scheduled,
// reproducible storm instead of hopes about a flaky network.
//
// A nil *Injector everywhere means zero-overhead passthrough: the icp,
// core and httpproxy layers only interpose the socket wrapper or consult
// an HTTP schedule when one is configured, so production and benchmark hot
// paths are untouched.
package faultnet

import (
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/netip"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Verdict is the fate assigned to one network event.
type Verdict uint8

// The possible fates of one datagram or HTTP request.
const (
	Pass        Verdict = iota // deliver normally
	Drop                       // silently lose the datagram
	Duplicate                  // deliver twice (UDP outbound only)
	Delay                      // deliver late (outbound: later sends overtake it)
	ConnectFail                // HTTP: fail as if the connection was refused
	Stall                      // HTTP: sit silent before proceeding (trips caller timeouts)
	Truncate                   // HTTP: cut the response body short mid-stream
	Err5xx                     // HTTP: answer 503 instead of forwarding
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Pass:
		return "pass"
	case Drop:
		return "drop"
	case Duplicate:
		return "duplicate"
	case Delay:
		return "delay"
	case ConnectFail:
		return "connect_fail"
	case Stall:
		return "stall"
	case Truncate:
		return "truncate"
	case Err5xx:
		return "5xx"
	default:
		return fmt.Sprintf("verdict(%d)", uint8(v))
	}
}

// Rates are the per-datagram fault probabilities for one direction of a
// UDP path. The probabilities are disjoint (at most one verdict fires per
// datagram); their sum must not exceed 1.
type Rates struct {
	// Drop is the probability a datagram is silently lost.
	Drop float64
	// Duplicate is the probability a datagram is delivered twice
	// (meaningful outbound; ignored inbound).
	Duplicate float64
	// Delay is the probability a datagram is held for a duration drawn
	// uniformly from [DelayMin, DelayMax]. Outbound, later sends overtake
	// the held datagram — that is the reorder fault.
	Delay              float64
	DelayMin, DelayMax time.Duration
}

// HTTPRates are the per-attempt fault probabilities of an HTTP fault
// schedule. As with Rates, at most one fault fires per attempt.
type HTTPRates struct {
	// ConnectFail is the probability a request errors immediately, as if
	// the remote refused the connection.
	ConnectFail float64
	// Stall is the probability the attempt sits silent for StallFor
	// before proceeding — long stalls trip the caller's per-attempt
	// timeout, which is the point.
	Stall    float64
	StallFor time.Duration
	// Truncate is the probability the response body is cut short
	// mid-stream, surfacing io.ErrUnexpectedEOF to the reader.
	Truncate float64
	// Err5xx is the probability the request is answered with a
	// synthesized 503 without reaching the remote at all.
	Err5xx float64
	// Burst widens every fault into a run: once any HTTP fault fires, the
	// same fault is applied to the next Burst-1 requests too (default 1 —
	// independent faults). 5xx bursts are how origins actually fail.
	Burst int
}

// Scenario is a complete, replayable fault schedule: a seed plus the
// rates for each path. Two Injectors built from equal Scenarios make
// identical per-event decisions.
type Scenario struct {
	// Seed drives every random decision. Sockets and HTTP schedules handed
	// out by one Injector get independent streams derived from (Seed, ordinal),
	// so the n-th datagram through the first-wrapped socket meets the same
	// fate on every run.
	Seed int64
	// Inbound and Outbound are the UDP fault rates per direction.
	Inbound, Outbound Rates
	// HTTP are the fetch-attempt fault rates.
	HTTP HTTPRates
}

// Fork derives a sub-scenario with the same rates and a seed offset —
// how a mesh gives each member its own independent but reproducible
// injector.
func (s Scenario) Fork(i int64) Scenario {
	s.Seed += i * 0x9e3779b9
	return s
}

// Counter kinds, the label values of the injected-faults counter.
const (
	KindUDPDropIn   = "udp_drop_in"
	KindUDPDropOut  = "udp_drop_out"
	KindUDPDup      = "udp_duplicate"
	KindUDPDelayIn  = "udp_delay_in"
	KindUDPDelayOut = "udp_delay_out"
	KindHTTPConnect = "http_connect_fail"
	KindHTTPStall   = "http_stall"
	KindHTTPTrunc   = "http_truncate"
	KindHTTP5xx     = "http_5xx"
)

// Kinds lists every counter kind, in exposition order.
var Kinds = []string{
	KindUDPDropIn, KindUDPDropOut, KindUDPDup, KindUDPDelayIn, KindUDPDelayOut,
	KindHTTPConnect, KindHTTPStall, KindHTTPTrunc, KindHTTP5xx,
}

// decider turns a seeded random stream plus rates into a deterministic
// verdict sequence. One decider serves one direction of one socket (or
// one HTTP schedule); callers hold no other lock while consulting it.
type decider struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func newDecider(seed int64, ordinal uint64) *decider {
	return &decider{rng: rand.New(rand.NewPCG(uint64(seed), ordinal))}
}

// udpVerdict decides one datagram's fate under r, with the delay to apply
// when the verdict is Delay.
func (d *decider) udpVerdict(r Rates) (Verdict, time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	roll := d.rng.Float64()
	switch {
	case roll < r.Drop:
		return Drop, 0
	case roll < r.Drop+r.Duplicate:
		return Duplicate, 0
	case roll < r.Drop+r.Duplicate+r.Delay:
		return Delay, d.delayIn(r.DelayMin, r.DelayMax)
	}
	return Pass, 0
}

// delayIn draws a delay uniformly from [min, max]; callers hold d.mu.
func (d *decider) delayIn(min, max time.Duration) time.Duration {
	if max <= min {
		return min
	}
	return min + time.Duration(d.rng.Int64N(int64(max-min)+1))
}

// httpDecider adds the burst state the HTTP rates need.
type httpDecider struct {
	decider
	rates     HTTPRates
	burstKind Verdict
	burstLeft int
}

func (d *httpDecider) verdict() Verdict {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.burstLeft > 0 {
		d.burstLeft--
		return d.burstKind
	}
	r := d.rates
	roll := d.rng.Float64()
	var v Verdict
	switch {
	case roll < r.ConnectFail:
		v = ConnectFail
	case roll < r.ConnectFail+r.Stall:
		v = Stall
	case roll < r.ConnectFail+r.Stall+r.Truncate:
		v = Truncate
	case roll < r.ConnectFail+r.Stall+r.Truncate+r.Err5xx:
		v = Err5xx
	default:
		return Pass
	}
	if r.Burst > 1 {
		d.burstKind = v
		d.burstLeft = r.Burst - 1
	}
	return v
}

// Injector instantiates a Scenario: it hands out socket wrappers and HTTP
// schedules that share the kill switch and the injected-fault accounting.
type Injector struct {
	scenario Scenario
	enabled  atomic.Bool
	ordinal  atomic.Uint64 // next derived-stream ordinal

	counts [len9]atomic.Uint64
}

// len9 pins the counter array to the Kinds list at compile time.
const len9 = 9

func kindIndex(kind string) int {
	for i, k := range Kinds {
		if k == kind {
			return i
		}
	}
	return -1
}

// New instantiates a Scenario. The injector starts enabled.
func New(s Scenario) *Injector {
	inj := &Injector{scenario: s}
	inj.enabled.Store(true)
	return inj
}

// SetEnabled flips the kill switch: disabled, every wrapper and HTTP
// schedule is a pure passthrough (the "faults clear" phase of a chaos
// run). The decision streams are not consumed while disabled.
func (inj *Injector) SetEnabled(v bool) { inj.enabled.Store(v) }

// Enabled reports the kill switch.
func (inj *Injector) Enabled() bool { return inj.enabled.Load() }

func (inj *Injector) count(kind int) {
	inj.counts[kind].Add(1)
}

// Count returns how many faults of the given kind have been injected.
func (inj *Injector) Count(kind string) uint64 {
	i := kindIndex(kind)
	if i < 0 {
		return 0
	}
	return inj.counts[i].Load()
}

// Total returns the total number of injected faults.
func (inj *Injector) Total() uint64 {
	var t uint64
	for i := range inj.counts {
		t += inj.counts[i].Load()
	}
	return t
}

// --- UDP path ---

// PacketConn is the socket surface the UDP wrapper decorates;
// *net.UDPConn implements it, and the icp package's endpoints accept it.
// Addresses are netip.AddrPort values, as the icp endpoint reads and writes
// them: neither *net.UDPConn nor the wrapper allocates one per datagram (a
// delayed send copies its datagram, not its address).
type PacketConn interface {
	ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error)
	WriteToUDPAddrPort(b []byte, addr netip.AddrPort) (int, error)
	Close() error
	LocalAddr() net.Addr
}

// WrapUDP decorates a UDP socket with this injector's Inbound/Outbound
// schedule. Each wrapped socket gets its own derived decision streams, so
// a mesh member's fault sequence does not depend on its neighbors'
// traffic.
func (inj *Injector) WrapUDP(c PacketConn) PacketConn {
	if inj == nil {
		return c
	}
	ord := inj.ordinal.Add(1)
	return &udpConn{
		PacketConn: c,
		inj:        inj,
		in:         newDecider(inj.scenario.Seed, ord*2),
		out:        newDecider(inj.scenario.Seed, ord*2+1),
	}
}

type udpConn struct {
	PacketConn
	inj     *Injector
	in, out *decider
}

// ReadFromUDPAddrPort applies the inbound schedule: dropped datagrams are
// consumed and never surface; delayed ones hold the receive path (queueing
// latency, as a congested NIC would).
func (c *udpConn) ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error) {
	for {
		n, from, err := c.PacketConn.ReadFromUDPAddrPort(b)
		if err != nil || !c.inj.Enabled() {
			return n, from, err
		}
		v, d := c.in.udpVerdict(c.inj.scenario.Inbound)
		switch v {
		case Drop:
			c.inj.count(kindIndex(KindUDPDropIn))
			continue
		case Delay:
			c.inj.count(kindIndex(KindUDPDelayIn))
			time.Sleep(d)
		}
		return n, from, err
	}
}

// WriteToUDPAddrPort applies the outbound schedule. A dropped datagram
// reports success — the network ate it, not the sender. A delayed datagram
// is sent from a timer goroutine, so later writes overtake it (reorder).
func (c *udpConn) WriteToUDPAddrPort(b []byte, addr netip.AddrPort) (int, error) {
	if !c.inj.Enabled() {
		return c.PacketConn.WriteToUDPAddrPort(b, addr)
	}
	v, d := c.out.udpVerdict(c.inj.scenario.Outbound)
	switch v {
	case Drop:
		c.inj.count(kindIndex(KindUDPDropOut))
		return len(b), nil
	case Duplicate:
		c.inj.count(kindIndex(KindUDPDup))
		if n, err := c.PacketConn.WriteToUDPAddrPort(b, addr); err != nil {
			return n, err
		}
		return c.PacketConn.WriteToUDPAddrPort(b, addr)
	case Delay:
		c.inj.count(kindIndex(KindUDPDelayOut))
		held := append([]byte(nil), b...)
		time.AfterFunc(d, func() {
			// A send error on a socket closed meanwhile is the same
			// outcome as a drop; nothing to report to the original caller.
			_, _ = c.PacketConn.WriteToUDPAddrPort(held, addr)
		})
		return len(b), nil
	}
	return c.PacketConn.WriteToUDPAddrPort(b, addr)
}

// --- HTTP path ---

// ErrInjectedConnect is the error an injected connect failure surfaces in
// place of the dial it suppresses.
var ErrInjectedConnect = errors.New("faultnet: injected connect failure")

// HTTPFaults is one fetcher's HTTP fault schedule: a seeded verdict per
// fetch attempt, which the fetcher applies itself.
type HTTPFaults struct {
	inj *Injector
	d   *httpDecider
}

// HTTPFaults hands out an HTTP fault schedule with its own decision
// stream. A nil injector returns nil, whose Attempt always passes.
func (inj *Injector) HTTPFaults() *HTTPFaults {
	if inj == nil {
		return nil
	}
	d := &httpDecider{rates: inj.scenario.HTTP}
	// HTTP schedules draw from a stream family disjoint from the sockets'.
	d.rng = rand.New(rand.NewPCG(uint64(inj.scenario.Seed), (1<<32)+inj.ordinal.Add(1)))
	return &HTTPFaults{inj: inj, d: d}
}

// Attempt draws the fate of the next fetch attempt, counts an injected
// fault, and applies the two that need no connection: ConnectFail returns
// ErrInjectedConnect, and the caller must not dial; Stall sleeps StallFor,
// or only budget (the attempt's time limit, when positive) when that is
// shorter, and then returns os.ErrDeadlineExceeded. The caller applies the
// other two: Err5xx is a 503 answered without network I/O, and Truncate
// cuts the response body with TruncateBody and closes the connection. A nil
// or disabled schedule returns Pass.
func (f *HTTPFaults) Attempt(budget time.Duration) (Verdict, error) {
	if f == nil || !f.inj.Enabled() {
		return Pass, nil
	}
	v := f.d.verdict()
	switch v {
	case ConnectFail:
		f.inj.count(kindIndex(KindHTTPConnect))
		return v, ErrInjectedConnect
	case Stall:
		f.inj.count(kindIndex(KindHTTPStall))
		stall := f.d.rates.StallFor
		if stall <= 0 {
			stall = 5 * time.Second
		}
		if budget > 0 && budget < stall {
			time.Sleep(budget)
			return v, os.ErrDeadlineExceeded
		}
		time.Sleep(stall)
	case Err5xx:
		f.inj.count(kindIndex(KindHTTP5xx))
	case Truncate:
		f.inj.count(kindIndex(KindHTTPTrunc))
	}
	return v, nil
}

// TruncateBody cuts a response body at half its declared length (after one
// byte when the length is unknown) and then fails with
// io.ErrUnexpectedEOF, as a connection reset mid-body does. A body that
// ends before the cut fails the same way.
func TruncateBody(body io.Reader, declared int64) io.Reader {
	cut := int64(1)
	if declared > 1 {
		cut = declared / 2
	}
	return io.MultiReader(io.LimitReader(body, cut), cutReader{})
}

// cutReader is where a truncated body ends.
type cutReader struct{}

func (cutReader) Read([]byte) (int, error) { return 0, io.ErrUnexpectedEOF }
