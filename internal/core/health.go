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

// healthMonitor tracks per-peer probe state.
type healthMonitor struct {
	node *Node
	cfg  HealthConfig

	mu     sync.Mutex
	misses map[string]int
	down   map[string]bool
	stop   chan struct{}
	done   chan struct{}
}

// StartHealthChecks begins probing registered peers; it returns a stop
// function. Peers that fail FailureThreshold consecutive probes have their
// summary replicas dropped (no more queries routed to them); when a downed
// peer answers again, the node re-ships its full summary state to it.
func (n *Node) StartHealthChecks(cfg HealthConfig) (stop func()) {
	cfg.applyDefaults()
	h := &healthMonitor{
		node:   n,
		cfg:    cfg,
		misses: make(map[string]int),
		down:   make(map[string]bool),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
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
	peers := h.node.PeerAddrs()
	var wg sync.WaitGroup
	for _, addr := range peers {
		wg.Add(1)
		go func(addr *net.UDPAddr) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), h.cfg.Timeout)
			defer cancel()
			// An SECHO (or any query) answered within the timeout counts
			// as alive; Squid uses the same probe.
			_, err := h.node.conn.Query(ctx, addr, "summarycache:ping")
			h.record(addr, err == nil)
		}(addr)
	}
	wg.Wait()
}

func (h *healthMonitor) record(addr *net.UDPAddr, alive bool) {
	id := addr.String()
	h.mu.Lock()
	var becameUp, becameDown bool
	if alive {
		h.misses[id] = 0
		if h.down[id] {
			h.down[id] = false
			becameUp = true
		}
	} else {
		h.misses[id]++
		if !h.down[id] && h.misses[id] >= h.cfg.FailureThreshold {
			h.down[id] = true
			becameDown = true
		}
	}
	h.mu.Unlock()

	switch {
	case becameDown:
		// A dead neighbor must not attract queries: drop its replica.
		// (Its address registration stays; recovery re-learns the rest.)
		h.node.peers.Drop(id)
		h.node.health.SetPeer(id, false)
		h.node.log.Warn("peer down", "peer", id,
			"consecutive_misses", h.cfg.FailureThreshold)
		if h.cfg.OnChange != nil {
			h.cfg.OnChange(addr, false)
		}
	case becameUp:
		// The neighbor restarted with an empty replica of us: re-ship the
		// full state ("reinitializes a failed neighbor's bit array when it
		// recovers").
		_ = h.node.publish(addr)
		h.node.health.SetPeer(id, true)
		h.node.log.Info("peer up", "peer", id)
		if h.cfg.OnChange != nil {
			h.cfg.OnChange(addr, true)
		}
	}
}
