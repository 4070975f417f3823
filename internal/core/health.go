package core

import (
	"context"
	"net"
	"sync"
	"time"
)

// Peer health monitoring: the paper's prototype "leverages Squid's
// built-in support to detect failure and recovery of neighbor proxies,
// and reinitializes a failed neighbor's bit array when it recovers". This
// file supplies that support for Node: periodic ICP SECHO probes mark
// peers down after consecutive misses (dropping their summary so a dead
// neighbor cannot attract queries), and on recovery re-ship our full
// state so the neighbor's replica of *us* restarts correct.

// HealthConfig parameterizes StartHealthChecks.
type HealthConfig struct {
	// Interval between probe rounds (default 1s).
	Interval time.Duration
	// Timeout per probe (default half the interval).
	Timeout time.Duration
	// FailureThreshold marks a peer down after this many consecutive
	// unanswered probes (default 3).
	FailureThreshold int
	// OnChange, if non-nil, observes up/down transitions.
	OnChange func(peer *net.UDPAddr, up bool)
}

func (c *HealthConfig) applyDefaults() {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = c.Interval / 2
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
// function. Peers that fail FailureThreshold consecutive probes have their
// summary replicas dropped (no more queries routed to them); when a downed
// peer answers again, the node re-ships its full summary state to it.
func (n *Node) StartHealthChecks(cfg HealthConfig) (stop func()) {
	cfg.applyDefaults()
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
			ctx, cancel := context.WithTimeout(context.Background(), h.cfg.Timeout)
			defer cancel()
			// An SECHO (or any query) answered within the timeout counts
			// as alive; Squid uses the same probe.
			_, err := h.node.conn.Query(ctx, p.addr, "summarycache:ping")
			h.record(p, err == nil)
		}(p)
	}
	wg.Wait()
}

func (h *healthMonitor) record(p *peer, alive bool) {
	n := h.node
	n.mu.Lock()
	if n.byAddr[addrKey(p.addr)] != p {
		n.mu.Unlock()
		return // removed while its probe was out
	}
	var becameUp, becameDown bool
	if alive {
		p.misses = 0
		if p.down {
			p.down = false
			becameUp = true
		}
	} else {
		p.misses++
		if !p.down && p.misses >= h.cfg.FailureThreshold {
			p.down = true
			becameDown = true
		}
	}
	n.mu.Unlock()

	switch {
	case becameDown:
		// A dead neighbor must not attract queries: drop its replica.
		// (Its address registration stays; recovery re-learns the rest.)
		n.peers.Drop(p.id)
		n.health.SetPeer(p.id, false)
		n.log.Warn("peer down", "peer", p.id,
			"consecutive_misses", h.cfg.FailureThreshold)
		if h.cfg.OnChange != nil {
			h.cfg.OnChange(p.addr, false)
		}
	case becameUp:
		// The neighbor restarted with an empty replica of us: re-ship the
		// full state ("reinitializes a failed neighbor's bit array when it
		// recovers").
		_ = n.publish(p)
		n.health.SetPeer(p.id, true)
		n.log.Info("peer up", "peer", p.id)
		if h.cfg.OnChange != nil {
			h.cfg.OnChange(p.addr, true)
		}
	}
}
