package perfwatch

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"summarycache/internal/obs"
)

// Objective kinds. Latency and error-rate objectives accumulate over the
// completed-request stream the Watch sees as a SpanSink; ratio objectives
// read a pair of cumulative counters the caller supplies (e.g. false hits
// over client requests), so they can express any taxonomy ceiling.
const (
	KindLatency   = "latency"
	KindErrorRate = "error_rate"
	KindRatio     = "ratio"
)

// Objective is one named service-level objective. The SLO engine follows
// the SRE burn-rate formulation: over each evaluation window the bad
// fraction (bad events / total events) is divided by the error Budget
// (the bad fraction the objective tolerates); a burn rate of 1 means the
// budget is being consumed exactly as fast as it accrues, and the
// objective breaches when burn reaches 1.
type Objective struct {
	// Name identifies the objective in metrics ({slo="<name>"}), the
	// /debug/slo report, breach logs and trace anomaly reasons.
	Name string
	// Threshold is the per-request latency ceiling for latency objectives;
	// a request slower than this is a bad event and its trace is marked
	// anomalous ("slo:<name>") so tail sampling retains it.
	Threshold time.Duration
	// Budget is the tolerated bad fraction (e.g. 0.01 for a p99
	// objective, or the false-hit ratio ceiling). Defaults to 0.01.
	Budget float64
	// Num and Den are cumulative counter readers for ratio objectives
	// (numerator = bad events, denominator = total events).
	Num, Den func() uint64
}

// kind names the event stream the objective's fields select: Num set →
// KindRatio (bad/total read from Num/Den), Threshold set → KindLatency
// (bad = request slower than Threshold), otherwise KindErrorRate (bad =
// request with outcome "error").
func (o Objective) kind() string {
	if o.Num != nil {
		return KindRatio
	}
	if o.Threshold > 0 {
		return KindLatency
	}
	return KindErrorRate
}

// SLOStatus is one objective's state at the last evaluation — the JSON
// row /debug/slo serves.
type SLOStatus struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// ThresholdSeconds is the latency ceiling (latency objectives only).
	ThresholdSeconds float64 `json:"threshold_seconds,omitempty"`
	// Budget is the tolerated bad fraction.
	Budget float64 `json:"budget"`
	// WindowTotal/WindowBad are the event counts of the last evaluation
	// window (the delta since the previous evaluation).
	WindowTotal uint64 `json:"window_total"`
	WindowBad   uint64 `json:"window_bad"`
	// BadFraction is WindowBad/WindowTotal (0 on an empty window).
	BadFraction float64 `json:"bad_fraction"`
	// BurnRate is BadFraction/Budget: 1 means the error budget burns
	// exactly as fast as it accrues.
	BurnRate float64 `json:"burn_rate"`
	// Breached reports whether BurnRate reached 1 (the window's bad
	// fraction reached the budget) in the last window.
	Breached bool `json:"breached"`
	// Breaches counts evaluations that newly entered the breached state
	// (rising edges) over the watch's lifetime.
	Breaches uint64 `json:"breaches_total"`
	// TotalEvents/TotalBad are the cumulative counts since startup.
	TotalEvents uint64 `json:"total_events"`
	TotalBad    uint64 `json:"total_bad"`
}

// sloState is one objective plus its accumulators and metric series.
type sloState struct {
	o      Objective
	kind   string
	reason string // precomputed "slo:<name>" anomaly reason

	bad, total atomic.Uint64 // cumulative (latency/error_rate kinds)
	burnBits   atomic.Uint64 // float64 bits of the last burn rate

	// Guarded by Watch.evalMu.
	lastBad, lastTotal uint64
	breachedNow        bool
	breachCount        uint64

	breachedG *obs.Gauge
	breaches  *obs.Counter
}

func newSLOState(o Objective, reg *obs.Registry, base obs.Labels) *sloState {
	if o.Budget <= 0 {
		o.Budget = 0.01
	}
	s := &sloState{
		o:      o,
		kind:   o.kind(),
		reason: "slo:" + o.Name,
	}
	ls := base.With("slo", o.Name)
	reg.GaugeFunc("summarycache_slo_burn_rate",
		"error-budget burn rate at the last evaluation (1 = budget consumed as fast as it accrues)",
		ls, func() float64 { return math.Float64frombits(s.burnBits.Load()) })
	s.breachedG = reg.Gauge("summarycache_slo_breached",
		"whether the objective's burn rate reached its threshold in the last window (0/1)", ls)
	s.breaches = reg.Counter("summarycache_slo_breaches_total",
		"evaluations that newly entered the breached state", ls)
	return s
}

// onRequest accounts one completed request trace. It returns a non-empty
// anomaly reason when this single request breached a latency objective's
// threshold, so the trace is retained by tail sampling.
func (s *sloState) onRequest(outcome string, d time.Duration) string {
	switch s.kind {
	case KindLatency:
		s.total.Add(1)
		if d > s.o.Threshold {
			s.bad.Add(1)
			return s.reason
		}
	case KindErrorRate:
		s.total.Add(1)
		if outcome == "error" {
			s.bad.Add(1)
		}
	}
	return ""
}

// read returns the cumulative (bad, total) event counts.
func (s *sloState) read() (bad, total uint64) {
	if s.kind == KindRatio {
		return s.o.Num(), s.o.Den()
	}
	return s.bad.Load(), s.total.Load()
}

// evaluate closes the current window (everything since the previous
// evaluation), updates the burn/breached series, and returns the status.
// Caller holds Watch.evalMu.
func (s *sloState) evaluate() SLOStatus {
	bad, total := s.read()
	dBad, dTotal := bad-s.lastBad, total-s.lastTotal
	s.lastBad, s.lastTotal = bad, total
	frac := 0.0
	if dTotal > 0 {
		frac = float64(dBad) / float64(dTotal)
	}
	burn := frac / s.o.Budget
	s.burnBits.Store(math.Float64bits(burn))
	breached := dTotal > 0 && burn >= 1
	if breached && !s.breachedNow {
		s.breachCount++
		s.breaches.Inc()
	}
	s.breachedNow = breached
	if breached {
		s.breachedG.Set(1)
	} else {
		s.breachedG.Set(0)
	}
	st := s.status()
	st.WindowTotal = dTotal
	st.WindowBad = dBad
	st.BadFraction = frac
	st.BurnRate = burn
	st.Breached = breached
	st.Breaches = s.breachCount
	st.TotalEvents = total
	st.TotalBad = bad
	return st
}

// status is the objective's row before any window has closed: what it is,
// with a zero window that has not breached.
func (s *sloState) status() SLOStatus {
	st := SLOStatus{Name: s.o.Name, Kind: s.kind, Budget: s.o.Budget}
	if s.kind == KindLatency {
		st.ThresholdSeconds = s.o.Threshold.Seconds()
	}
	return st
}

// Evaluate closes every objective's window, updating the burn-rate and
// breached series, and triggers a profile capture when any objective
// breached. It returns the per-objective statuses (also retained for
// /debug/slo). Call it periodically (see Run) or explicitly in tests.
func (w *Watch) Evaluate() []SLOStatus {
	if w == nil {
		return nil
	}
	w.evalMu.Lock()
	defer w.evalMu.Unlock()
	out := make([]SLOStatus, 0, len(w.slos))
	for _, s := range w.slos {
		st := s.evaluate()
		out = append(out, st)
		if st.Breached {
			w.log.Warn("slo breached",
				"slo", st.Name, "kind", st.Kind,
				"burn_rate", st.BurnRate, "bad", st.WindowBad, "total", st.WindowTotal)
			w.capturer.Trigger(fmt.Sprintf("slo:%s burn=%.2f", st.Name, st.BurnRate))
		}
	}
	w.lastEval = time.Now()
	w.last = out
	return out
}

// Status returns the statuses of the most recent evaluation and its
// timestamp. Before the first evaluation every objective reports a zero,
// unbreached window evaluated at the zero time: reading never evaluates,
// so it can neither close a window nor trigger a capture.
func (w *Watch) Status() ([]SLOStatus, time.Time) {
	if w == nil {
		return nil, time.Time{}
	}
	w.evalMu.Lock()
	defer w.evalMu.Unlock()
	return w.last, w.lastEval
}

// Run evaluates every interval (default 10s) until stop is closed. It is
// the binaries' evaluation loop; tests call Evaluate directly.
func (w *Watch) Run(interval time.Duration, stop <-chan struct{}) {
	if w == nil {
		return
	}
	if interval <= 0 {
		interval = 10 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			w.Evaluate()
		}
	}
}
