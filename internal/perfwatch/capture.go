package perfwatch

import (
	"bytes"
	"log/slog"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"summarycache/internal/obs"
)

// CaptureConfig configures anomaly-triggered profile capture. The zero
// value disables capture entirely.
type CaptureConfig struct {
	// Enabled turns capture on.
	Enabled bool
	// Ring is the number of retained captures (default 4); older captures
	// are overwritten oldest-first, bounding memory no matter how long a
	// breach lasts.
	Ring int
	// CPUDuration is how long the CPU profile runs (default 5s). Heap,
	// mutex and block profiles are instantaneous snapshots taken after it.
	CPUDuration time.Duration
	// MinInterval rate-limits captures: triggers arriving sooner than
	// this after the previous capture started are dropped (default 1m).
	MinInterval time.Duration
}

// Capture is one captured profile set.
type Capture struct {
	// Seq numbers captures monotonically from 1.
	Seq int `json:"seq"`
	// Reason is what tripped the capture (e.g. "slo:client_p99 burn=3.10").
	Reason string    `json:"reason"`
	Start  time.Time `json:"start"`
	// DurationMS is how long the whole capture took (dominated by the CPU
	// profile window).
	DurationMS float64 `json:"duration_ms"`
	// Profiles maps profile name (cpu, heap, mutex, block) to the raw
	// pprof-format bytes, served by /debug/perf.
	Profiles map[string][]byte `json:"-"`
}

// Capturer owns the bounded capture ring. Trigger is cheap and non-
// blocking: the capture itself (a multi-second CPU profile) runs on its
// own goroutine, at most one at a time, rate-limited by MinInterval.
type Capturer struct {
	cfg CaptureConfig
	log *slog.Logger

	captures *obs.Counter
	skipped  *obs.Counter

	inflight atomic.Bool

	mu   sync.Mutex
	last time.Time // start of the most recent admitted capture
	seq  int
	ring []*Capture
	done chan struct{} // closed+replaced per capture; tests wait on it
}

// newCapturer builds the capturer (nil when cfg.Enabled is false). It
// enables mutex profiling (fraction 100) and block profiling (rate 1ms)
// so those profiles carry data.
func newCapturer(cfg CaptureConfig, reg *obs.Registry, ls obs.Labels, log *slog.Logger) *Capturer {
	if !cfg.Enabled {
		return nil
	}
	if cfg.Ring <= 0 {
		cfg.Ring = 4
	}
	if cfg.CPUDuration <= 0 {
		cfg.CPUDuration = 5 * time.Second
	}
	if cfg.MinInterval <= 0 {
		cfg.MinInterval = time.Minute
	}
	runtime.SetMutexProfileFraction(100)
	runtime.SetBlockProfileRate(int(time.Millisecond))
	return &Capturer{
		cfg: cfg,
		log: obs.OrNop(log),
		captures: reg.Counter("summarycache_perf_captures_total",
			"anomaly-triggered profile captures completed", ls),
		skipped: reg.Counter("summarycache_perf_captures_skipped_total",
			"capture triggers dropped by rate limiting or an in-flight capture", ls),
	}
}

// Trigger requests a capture with the given reason. It returns whether a
// capture was started; triggers during an in-flight capture or within
// MinInterval of the previous one are counted and dropped. Safe on a nil
// Capturer.
func (c *Capturer) Trigger(reason string) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	if !c.last.IsZero() && time.Since(c.last) < c.cfg.MinInterval {
		c.mu.Unlock()
		c.skipped.Inc()
		return false
	}
	if !c.inflight.CompareAndSwap(false, true) {
		c.mu.Unlock()
		c.skipped.Inc()
		return false
	}
	c.last = time.Now()
	c.seq++
	cp := &Capture{Seq: c.seq, Reason: reason, Start: c.last}
	done := make(chan struct{})
	c.done = done
	c.mu.Unlock()

	go func() {
		defer close(done)
		defer c.inflight.Store(false)
		c.run(cp)
		c.mu.Lock()
		c.ring = append(c.ring, cp)
		if len(c.ring) > c.cfg.Ring {
			c.ring = c.ring[len(c.ring)-c.cfg.Ring:]
		}
		c.mu.Unlock()
		c.captures.Inc()
		c.log.Info("perf capture completed",
			"seq", cp.Seq, "reason", cp.Reason,
			"profiles", len(cp.Profiles), "duration_ms", cp.DurationMS)
	}()
	return true
}

// run performs one capture into cp: a CPUDuration CPU profile, then
// heap, mutex and block snapshots. A profile that fails (e.g. another CPU
// profile already running via /debug/pprof) is omitted rather than
// failing the capture.
func (c *Capturer) run(cp *Capture) {
	cp.Profiles = make(map[string][]byte, 4)
	var cpu bytes.Buffer
	if err := pprof.StartCPUProfile(&cpu); err == nil {
		time.Sleep(c.cfg.CPUDuration)
		pprof.StopCPUProfile()
		cp.Profiles["cpu"] = cpu.Bytes()
	} else {
		c.log.Warn("perf capture: cpu profile unavailable", "err", err)
	}
	for _, name := range []string{"heap", "mutex", "block"} {
		p := pprof.Lookup(name)
		if p == nil {
			continue
		}
		var buf bytes.Buffer
		if err := p.WriteTo(&buf, 0); err != nil {
			c.log.Warn("perf capture: profile failed", "profile", name, "err", err)
			continue
		}
		cp.Profiles[name] = buf.Bytes()
	}
	cp.DurationMS = float64(time.Since(cp.Start)) / float64(time.Millisecond)
}

// Captures returns the retained captures, oldest first.
func (c *Capturer) Captures() []*Capture {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Capture(nil), c.ring...)
}

// Wait blocks until the most recently started capture finishes (returns
// immediately if none is running). Tests use it for determinism.
func (c *Capturer) Wait() {
	if c == nil {
		return
	}
	c.mu.Lock()
	done := c.done
	c.mu.Unlock()
	if done != nil {
		<-done
	}
}
