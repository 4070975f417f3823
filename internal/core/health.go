package core

import (
	"context"
	"net"
	"slices"
	"sync"
	"time"
)

// Peer liveness: the paper's prototype "leverages Squid's built-in support
// to detect failure and recovery of neighbor proxies, and reinitializes a
// failed neighbor's bit array when it recovers". A registered peer's record
// holds its one liveness state. Two sources feed it: the prober's periodic
// ICP SECHO probes (StartHealthChecks), and the HTTP layer's sibling fetches
// (AdmitFetch, FetchDone), which catch a sibling whose ICP endpoint answers
// while its HTTP endpoint cannot deliver. Going down drops the peer's
// summary replica, so a dead neighbor cannot attract queries; coming up
// re-ships this node's full state, so its replica of us restarts correct.

// PeerState is a registered peer's liveness: the value of the
// summarycache_proxy_breaker_state gauge.
type PeerState int32

// The peer states.
const (
	PeerUp      PeerState = 0 // queried and fetched from
	PeerDown    PeerState = 1 // replica dropped; fetches refused until the cooldown passes
	PeerProbing PeerState = 2 // down, with one admitted fetch in flight
)

// String implements fmt.Stringer.
func (s PeerState) String() string {
	switch s {
	case PeerUp:
		return "up"
	case PeerDown:
		return "down"
	case PeerProbing:
		return "probing"
	default:
		return "unknown"
	}
}

// The fetch path's defaults (NodeConfig.BreakerThreshold and
// BreakerCooldown).
const (
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = 5 * time.Second
)

// evidence is one observation of a peer's liveness.
type evidence int

const (
	probeAnswered evidence = iota
	probeMissed
	fetchAdmission
	fetchOK
	fetchFailed
	reAdded
)

// observe folds one piece of evidence into p's record; every liveness
// transition happens here, under n.mu. A peer taken down by the prober
// comes back on a probe answer or a delivered fetch; one taken down by
// fetch failures only on a delivered fetch, so an ICP-alive, HTTP-dark
// sibling does not flap. Coming back restarts both failure counts. It
// returns p's state before and after, and the full-state re-ship's error.
func (n *Node) observe(p *peer, ev evidence) (from, to PeerState, err error) {
	n.mu.Lock()
	if n.byAddr[addrKey(p.addr)] != p {
		n.mu.Unlock()
		return PeerUp, PeerUp, nil // removed while its evidence was out
	}
	from = p.state
	down := func(byProbe bool) {
		p.state, p.downSince, p.probeDown = PeerDown, time.Now(), byProbe
		p.rep = replica{}
	}
	revive := func() { p.state, p.misses, p.fails = PeerUp, 0, 0 }
	switch ev {
	case probeAnswered:
		p.misses = 0
		if p.state != PeerUp && p.probeDown {
			revive()
		}
	case probeMissed:
		p.misses++
		if p.state == PeerUp && p.misses >= n.probeLimit {
			down(true)
		}
	case fetchAdmission:
		if p.state == PeerDown && time.Since(p.downSince) >= n.cfg.BreakerCooldown {
			p.state = PeerProbing
		}
	case fetchOK:
		if p.state == PeerUp {
			p.fails = 0
		} else {
			revive()
		}
	case fetchFailed:
		p.fails++
		switch {
		case p.state == PeerProbing, p.state == PeerUp && p.fails >= n.cfg.BreakerThreshold:
			down(false)
		case p.state == PeerDown:
			// A fetch admitted before the peer went down failed late:
			// the cooldown restarts.
			p.downSince = time.Now()
		}
	case reAdded:
		revive()
	}
	to, byProbe := p.state, p.probeDown
	n.mu.Unlock()

	switch {
	case from == PeerUp && to == PeerDown:
		cause := "fetch"
		if byProbe {
			cause = "probe"
		}
		n.log.Warn("peer down", "peer", p.id, "cause", cause)
	case from != PeerUp && to == PeerUp:
		err = n.publish(p)
		n.log.Info("peer up", "peer", p.id)
	}
	return from, to, err
}

// AdmitFetch reports whether the HTTP layer may fetch from the peer at addr
// now. An up or unregistered peer is always admitted; a down one once its
// cooldown has passed, as the one probing fetch whose FetchDone decides its
// state. With a negative BreakerThreshold every fetch is admitted.
func (n *Node) AdmitFetch(addr *net.UDPAddr) bool {
	if n.cfg.BreakerThreshold < 0 {
		return true
	}
	n.mu.RLock()
	p := n.byAddr[addrKey(addr)]
	up := p == nil || p.state == PeerUp
	n.mu.RUnlock()
	if up {
		return true
	}
	from, to, _ := n.observe(p, fetchAdmission)
	return to == PeerUp || from == PeerDown && to == PeerProbing
}

// FetchDone records whether an admitted fetch from the peer at addr
// delivered. BreakerThreshold consecutive failures take an up peer down,
// and a failed probing fetch takes it back down; a delivered one brings a
// down peer up. With a negative BreakerThreshold nothing is recorded.
func (n *Node) FetchDone(addr *net.UDPAddr, ok bool) {
	if n.cfg.BreakerThreshold < 0 {
		return
	}
	n.mu.RLock()
	p := n.byAddr[addrKey(addr)]
	quiet := p == nil || ok && p.state == PeerUp && p.fails == 0
	n.mu.RUnlock()
	if quiet {
		return
	}
	ev := fetchFailed
	if ok {
		ev = fetchOK
	}
	_, _, _ = n.observe(p, ev) // a failed re-ship is the peer's next problem, not the fetch's
}

// PeerState returns the liveness of the peer at addr (PeerUp when it is
// not registered).
func (n *Node) PeerState(addr *net.UDPAddr) PeerState {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if p := n.byAddr[addrKey(addr)]; p != nil {
		return p.state
	}
	return PeerUp
}

// Health returns the registered peers' identifiers by liveness, sorted:
// up, and down (down or probing). It is what /healthz reports.
func (n *Node) Health() (up, down []string) {
	n.mu.RLock()
	for _, p := range n.members {
		if p.state == PeerUp {
			up = append(up, p.id)
		} else {
			down = append(down, p.id)
		}
	}
	n.mu.RUnlock()
	slices.Sort(up)
	slices.Sort(down)
	return up, down
}

// HealthConfig parameterizes StartHealthChecks.
type HealthConfig struct {
	// Interval between probe rounds (default 1s); each probe waits half of
	// it for an answer.
	Interval time.Duration
	// FailureThreshold marks a peer down after this many consecutive
	// unanswered probes (default 3).
	FailureThreshold int
}

func (c *HealthConfig) applyDefaults() {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 3
	}
}

// healthMonitor probes the registered peers; its verdicts live on their
// records, so a removed peer takes its probe state with it.
type healthMonitor struct {
	node *Node
	cfg  HealthConfig
	stop chan struct{}
	done chan struct{}
}

// StartHealthChecks begins probing registered peers; it returns a stop
// function. A peer that misses FailureThreshold consecutive probes goes
// down, and comes back up when it answers again.
func (n *Node) StartHealthChecks(cfg HealthConfig) (stop func()) {
	cfg.applyDefaults()
	n.mu.Lock()
	n.probeLimit = cfg.FailureThreshold
	n.mu.Unlock()
	h := &healthMonitor{
		node: n,
		cfg:  cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go h.loop()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(h.stop)
			<-h.done
		})
	}
}

func (h *healthMonitor) loop() {
	defer close(h.done)
	t := time.NewTicker(h.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			h.probeAll()
		case <-h.stop:
			return
		}
	}
}

func (h *healthMonitor) probeAll() {
	var wg sync.WaitGroup
	for _, p := range h.node.memberList() {
		wg.Add(1)
		go func(p *peer) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), h.cfg.Interval/2)
			defer cancel()
			// An SECHO (or any query) answered within the timeout counts
			// as alive; Squid uses the same probe.
			ev := probeMissed
			if _, err := h.node.conn.Query(ctx, p.addr, "summarycache:ping"); err == nil {
				ev = probeAnswered
			}
			_, _, _ = h.node.observe(p, ev) // a failed re-ship waits for the next recovery
		}(p)
	}
	wg.Wait()
}
