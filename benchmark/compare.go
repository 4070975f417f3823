package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// spec is BENCHMARK.json: the frozen names, directions and bounds.
type spec struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// absoluteBounds are for the three user-visible ratios that are exactly 0
// on some workload, where a share of the base means nothing: how far each
// may move before it counts as worse, as the larger of abs (in its own
// unit) and rel (a share of the base). Their directions come from
// BENCHMARK.json like everyone else's.
var absoluteBounds = map[string]struct{ abs, rel float64 }{
	"udp_msgs_per_req": {abs: 0.001, rel: 0.03},
	"hit_ratio":        {abs: 0.01},
	"error_ratio":      {}, // any increase is a regression
}

const (
	verdictBetter     = "better"
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares one metric of one workload. allowed is the bound in the
// metric's own unit. A move beyond the bound is only called better or
// worse when the rounds of both runs agree with themselves to within the
// bound; otherwise the spread is wider than what is being resolved.
func judge(old, new metric, better string, allowed float64) string {
	worsening := new.Value - old.Value
	if better == "higher" {
		worsening = -worsening
	}
	spread := math.Max(old.Spread, new.Spread) * math.Abs(old.Value)
	switch {
	case math.Abs(worsening) <= allowed:
		return verdictWithin
	case spread > allowed:
		return verdictUnresolved
	case worsening > 0:
		return verdictWorse
	}
	return verdictBetter
}

// compare prints one row per metric and workload and reports whether any
// row is worse.
func compare(w io.Writer, sp spec, old, new document) (worse bool) {
	if !old.Comparable || !new.Comparable {
		fmt.Fprintln(w, "warning: a run made at -scale other than 1 is not comparable with the ledger")
	}
	fmt.Fprintf(w, "%-18s %-12s %14s %14s %9s  %s\n", "metric", "workload", "old", "new", "new/old", "verdict")
	row := func(name, workload, better string, o, n metric, allowed float64) {
		v := judge(o, n, better, allowed)
		worse = worse || v == verdictWorse
		rel := "-" // a ratio needs a base other than 0
		if o.Value != 0 {
			rel = fmt.Sprintf("%.4f", n.Value/o.Value)
		}
		fmt.Fprintf(w, "%-18s %-12s %14.4f %14.4f %9s  %s (%s is better, bound %.4g %s)\n",
			name, workload, o.Value, n.Value, rel, v, better, allowed, o.Unit)
	}
	for _, name := range workloadNames {
		ow, nw := old.Workloads[name], new.Workloads[name]
		for _, m := range sp.EndToEnd {
			o, n := ow.EndToEnd[m.Name], nw.EndToEnd[m.Name]
			row(m.Name, name, m.Better, o, n, m.Bound*math.Abs(o.Value))
		}
		for _, m := range sp.PerLayer {
			if b, ok := absoluteBounds[m.Name]; ok {
				o := ow.PerLayer[m.Name]
				row(m.Name, name, m.Better, o, nw.PerLayer[m.Name], math.Max(b.abs, b.rel*math.Abs(o.Value)))
			}
		}
	}
	return worse
}
