package httpproxy

import (
	"sync"
	"time"
)

// Per-sibling circuit breaker for the cache-only fetch path. A sibling
// whose ICP endpoint answers HIT but whose HTTP endpoint cannot deliver
// (crashed listener, partition, overload) would otherwise cost every
// nominated request a failed fetch before the origin fallback. The
// breaker trips after BreakerThreshold consecutive fetch failures —
// fetches stop, requests go straight to the origin (still counted as
// false hits, never surfaced as client errors) — and after
// BreakerCooldown it admits a single half-open probe fetch; success
// closes it again. Trips and recoveries feed the protocol node's health
// monitor (Node.MarkPeerDown / MarkPeerUp); under SC-ICP a tripped
// sibling's summary replica is dropped, so it stops attracting
// nominations until it proves itself alive again.

// BreakerState is a circuit's position, exposed by the
// summarycache_proxy_breaker_state gauge.
type BreakerState int32

// The breaker states (the gauge's values).
const (
	BreakerClosed   BreakerState = 0 // healthy: fetches flow
	BreakerOpen     BreakerState = 1 // tripped: fetches skipped
	BreakerHalfOpen BreakerState = 2 // probing: one trial fetch in flight
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// breaker is one sibling's circuit. The zero value is not usable; see
// newBreaker.
type breaker struct {
	threshold int
	cooldown  time.Duration

	mu          sync.Mutex
	state       BreakerState
	consecutive int
	openedAt    time.Time
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown}
}

// Allow reports whether a fetch may be attempted now. In the open state
// it transitions to half-open once the cooldown has elapsed, admitting
// exactly one probe; concurrent callers see half-open and are refused
// until the probe resolves via Success or Failure.
func (b *breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if time.Since(b.openedAt) >= b.cooldown {
			b.state = BreakerHalfOpen
			return true
		}
		return false
	default: // half-open: the admitted probe is still in flight
		return false
	}
}

// Success records a delivered fetch. It returns true when the circuit
// just recovered (half-open probe succeeded), which the proxy turns into
// a MarkPeerUp.
func (b *breaker) Success() (recovered bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive = 0
	if b.state != BreakerClosed {
		b.state = BreakerClosed
		return true
	}
	return false
}

// Failure records a failed fetch. It returns true when the circuit just
// tripped (closed crossed the threshold), which the proxy turns into a
// MarkPeerDown. A failed half-open probe re-opens silently — the peer is
// already marked down.
func (b *breaker) Failure() (tripped bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.consecutive++
		if b.consecutive >= b.threshold {
			b.state = BreakerOpen
			b.openedAt = time.Now()
			return true
		}
	case BreakerHalfOpen:
		b.state = BreakerOpen
		b.openedAt = time.Now()
	case BreakerOpen:
		// A fetch admitted before the trip resolved late: refresh the
		// cooldown window.
		b.openedAt = time.Now()
	}
	return false
}

// ForceOpen trips the circuit from outside — the health prober reporting
// the peer down. The cooldown restarts from now.
func (b *breaker) ForceOpen() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = BreakerOpen
	b.consecutive = 0
	b.openedAt = time.Now()
}

// Reset closes the circuit from outside — the health prober reporting
// the peer up again (UDP liveness is the mesh-level half-open probe).
func (b *breaker) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = BreakerClosed
	b.consecutive = 0
}

// State reports the circuit's position.
func (b *breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
