// Command simulate regenerates the paper's trace-driven results: Table I
// (trace statistics), Figure 1 (benefit of cache sharing), Figure 2
// (update-delay impact), Figures 5–8 and Table III (summary
// representations), the §V-F scalability extrapolation, the design-choice
// ablations, and the parent/child hierarchy extension.
//
// Usage:
//
//	simulate -experiment=all|table1|fig1|fig2|fig5678|table3|scale|amortization|ablations|hierarchy \
//	    [-scale=1.0] [-trace=DEC] [-tracefile=log.trace -groups=8] [-csv=outdir]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"

	"summarycache/internal/experiments"
	"summarycache/internal/trace"
	"summarycache/internal/tracegen"
)

var (
	experiment = flag.String("experiment", "all", "experiment to run: all, table1, fig1, fig2, fig5678, table3, scale, amortization, ablations, hierarchy")
	scale      = flag.Float64("scale", 0.25, "trace scale factor (1.0 ≈ 200k requests for the largest trace)")
	traceName  = flag.String("trace", "", "restrict to one trace (DEC, UCB, UPisa, Questnet, NLANR)")
	traceFile  = flag.String("tracefile", "", "run against an external trace file (the repository text format) instead of the presets")
	fileGroups = flag.Int("groups", 8, "proxy group count for -tracefile traces")
	csvDir     = flag.String("csv", "", "also write each experiment's data as CSV into this directory")
)

// csvOut opens <csvDir>/<name>.csv, or returns nil when -csv is unset.
func csvOut(name string) (io.WriteCloser, error) {
	if *csvDir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(*csvDir, 0o755); err != nil {
		return nil, err
	}
	return os.Create(filepath.Join(*csvDir, name+".csv"))
}

// emitCSV runs write against a csvOut file when enabled.
func emitCSV(name string, write func(io.Writer) error) error {
	f, err := csvOut(name)
	if err != nil {
		return err
	}
	if f == nil {
		return nil
	}
	defer f.Close()
	return write(f)
}

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
		os.Exit(1)
	}
}

func run() error {
	var sets []experiments.TraceSet
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			return err
		}
		reqs, err := trace.ReadAllAuto(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("reading %s: %w", *traceFile, err)
		}
		name := filepath.Base(*traceFile)
		fmt.Fprintf(os.Stderr, "loaded %d requests from %s\n", len(reqs), *traceFile)
		sets = append(sets, experiments.LoadFromRequests(name, reqs, *fileGroups))
	} else {
		for _, p := range tracegen.Presets() {
			if *traceName != "" && string(p) != *traceName {
				continue
			}
			fmt.Fprintf(os.Stderr, "generating %s trace (scale %g)...\n", p, *scale)
			ts, err := experiments.Load(p, *scale)
			if err != nil {
				return err
			}
			sets = append(sets, ts)
		}
	}
	if len(sets) == 0 {
		return fmt.Errorf("no traces selected (unknown -trace=%q?)", *traceName)
	}

	want := func(name string) bool { return *experiment == "all" || *experiment == name }
	if want("table1") {
		if err := table1(sets); err != nil {
			return err
		}
	}
	if want("fig1") {
		if err := fig1(sets); err != nil {
			return err
		}
	}
	if want("fig2") {
		if err := fig2(sets); err != nil {
			return err
		}
	}
	if want("fig5678") || want("table3") {
		if err := summaryComparison(sets); err != nil {
			return err
		}
	}
	if want("scale") {
		if err := scalability(); err != nil {
			return err
		}
	}
	if want("amortization") {
		if err := amortization(sets); err != nil {
			return err
		}
	}
	if want("ablations") {
		if err := ablations(sets); err != nil {
			return err
		}
	}
	if want("hierarchy") {
		if err := hierarchy(sets); err != nil {
			return err
		}
	}
	return nil
}

func hierarchy(sets []experiments.TraceSet) error {
	fmt.Println("== Extension: parent/child hierarchy (paper §VIII, not simulated there) ==")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "trace\tparent?\tsibling hit\tparent hit\torigin traffic")
	var all []experiments.HierarchyRow
	for _, ts := range sets {
		rows, err := experiments.Hierarchy(ts)
		if err != nil {
			return err
		}
		all = append(all, rows...)
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%v\t%.2f%%\t%.2f%%\t%.2f%%\n",
				r.Trace, r.WithParent, 100*r.HitRatio, 100*r.ParentHitRatio, 100*r.OriginMissRate)
		}
	}
	w.Flush()
	fmt.Println()
	return emitCSV("hierarchy", func(out io.Writer) error {
		return experiments.HierarchyCSV(out, all)
	})
}

func ablations(sets []experiments.TraceSet) error {
	fmt.Println("== Ablation: delta vs whole-array (cache digest) updates, Bloom lf=16 ==")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "trace\tthreshold\tdelta B/req\tdigest B/req")
	var allDigest []experiments.DigestRow
	for _, ts := range sets {
		rows, err := experiments.DigestVsDelta(ts, nil)
		if err != nil {
			return err
		}
		allDigest = append(allDigest, rows...)
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%.0f%%\t%.1f\t%.1f\n", r.Trace, 100*r.Threshold, r.DeltaBytesReq, r.DigestBytesReq)
		}
	}
	w.Flush()

	fmt.Println("\n== Ablation: number of hash functions (Bloom lf=16, threshold=1%) ==")
	w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "trace\tk\toptimal?\tfalse hit\tanalytic fp\thit ratio")
	var allK []experiments.HashKRow
	for _, ts := range sets {
		rows, err := experiments.HashKSweep(ts, nil)
		if err != nil {
			return err
		}
		allK = append(allK, rows...)
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%d\t%v\t%.4f%%\t%.4f%%\t%.2f%%\n",
				r.Trace, r.K, r.Optimal, 100*r.FalseHit, 100*r.AnalyticFP, 100*r.HitRatio)
		}
	}
	w.Flush()

	fmt.Println("\n== Ablation: counting-filter counter width (Bloom lf=16, threshold=1%) ==")
	w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "trace\tcounter bits\tsaturations\tfalse hit\tcounter memory (KB)")
	var allC []experiments.CounterRow
	for _, ts := range sets {
		rows, err := experiments.CounterWidthSweep(ts, nil)
		if err != nil {
			return err
		}
		allC = append(allC, rows...)
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%d\t%d\t%.4f%%\t%.1f\n",
				r.Trace, r.CounterBits, r.Saturations, 100*r.FalseHit, float64(r.MemoryBytes)/1024)
		}
	}
	w.Flush()

	fmt.Println("\n== Ablation: Bloom load factor sweep (threshold=1%) ==")
	w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "trace\tload factor\tfalse hit\tmsgs/req\tmemory/cache")
	var allLF []experiments.LoadFactorRow
	for _, ts := range sets {
		rows, err := experiments.LoadFactorSweep(ts, nil)
		if err != nil {
			return err
		}
		allLF = append(allLF, rows...)
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%g\t%.4f%%\t%.3f\t%.3f%%\n",
				r.Trace, r.LoadFactor, 100*r.FalseHit, r.MsgsPerReq, r.MemoryPct)
		}
	}
	w.Flush()
	fmt.Println()
	for name, write := range map[string]func(io.Writer) error{
		"ablation_digest":      func(out io.Writer) error { return experiments.DigestCSV(out, allDigest) },
		"ablation_hashk":       func(out io.Writer) error { return experiments.HashKCSV(out, allK) },
		"ablation_counter":     func(out io.Writer) error { return experiments.CounterCSV(out, allC) },
		"ablation_load_factor": func(out io.Writer) error { return experiments.LoadFactorCSV(out, allLF) },
	} {
		if err := emitCSV(name, write); err != nil {
			return err
		}
	}
	return nil
}

func amortization(sets []experiments.TraceSet) error {
	fmt.Println("== Ablation: update-batch amortization (Bloom lf=16, threshold=1%) ==")
	fmt.Println("   (batch≈90 is the prototype's fill-an-IP-packet rule; the paper's")
	fmt.Println("    million-entry caches batch thousands of documents per update)")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "trace\tbatch (docs)\thit ratio\tmsgs/req\tbytes/req\tvs ICP")
	var all []experiments.AmortRow
	for _, ts := range sets {
		rows, err := experiments.UpdateAmortization(ts, nil)
		if err != nil {
			return err
		}
		all = append(all, rows...)
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%d\t%.2f%%\t%.3f\t%.1f\t%.1fx\n",
				r.Trace, r.MinUpdateDocs, 100*r.HitRatio, r.MsgsPerReq, r.BytesPerReq, r.ICPFactor)
		}
	}
	w.Flush()
	fmt.Println()
	return emitCSV("amortization", func(out io.Writer) error {
		return experiments.AmortCSV(out, all)
	})
}

func table1(sets []experiments.TraceSet) error {
	fmt.Println("== Table I: trace statistics ==")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "trace\trequests\tclients\tgroups\tunique docs\tinf cache (MB)\tmax hit\tmax byte hit")
	for _, ts := range sets {
		s := experiments.TableI(ts)
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%.1f\t%.1f%%\t%.1f%%\n",
			s.Name, s.Requests, s.Clients, ts.Groups, s.UniqueDocs,
			float64(s.InfiniteCacheSize)/(1<<20), 100*s.MaxHitRatio, 100*s.MaxByteHitRatio)
	}
	w.Flush()
	fmt.Println()
	return emitCSV("table1", func(out io.Writer) error {
		return experiments.TableICSV(out, sets)
	})
}

func fig1(sets []experiments.TraceSet) error {
	fmt.Println("== Figure 1: hit ratios under cooperative caching schemes ==")
	var all []experiments.Fig1Row
	for _, ts := range sets {
		rows, err := experiments.Fig1(ts, nil)
		if err != nil {
			return err
		}
		all = append(all, rows...)
		fmt.Printf("-- %s --\n", ts.Name)
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprint(w, "cache size\t")
		for _, s := range experiments.Fig1Schemes {
			fmt.Fprintf(w, "%v\t", s)
		}
		fmt.Fprintln(w)
		for _, frac := range experiments.Fig1CacheFracs {
			fmt.Fprintf(w, "%.1f%%\t", 100*frac)
			for _, s := range experiments.Fig1Schemes {
				for _, r := range rows {
					if r.CacheFrac == frac && r.Scheme == s {
						fmt.Fprintf(w, "%.1f%%\t", 100*r.HitRatio)
					}
				}
			}
			fmt.Fprintln(w)
		}
		w.Flush()
	}
	fmt.Println()
	return emitCSV("fig1", func(out io.Writer) error {
		return experiments.Fig1CSV(out, all)
	})
}

func fig2(sets []experiments.TraceSet) error {
	fmt.Println("== Figure 2: impact of summary update delays (exact-directory, cache=10%) ==")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "trace\tthreshold\thit ratio\tfalse miss\tfalse hit\tremote stale hit")
	var all []experiments.Fig2Row
	for _, ts := range sets {
		rows, err := experiments.Fig2(ts, nil)
		if err != nil {
			return err
		}
		all = append(all, rows...)
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%.1f%%\t%.2f%%\t%.3f%%\t%.3f%%\t%.3f%%\n",
				r.Trace, 100*r.Threshold, 100*r.HitRatio, 100*r.FalseMissRate,
				100*r.FalseHitRate, 100*r.StaleHitRate)
		}
	}
	w.Flush()
	fmt.Println()
	return emitCSV("fig2", func(out io.Writer) error {
		return experiments.Fig2CSV(out, all)
	})
}

func summaryComparison(sets []experiments.TraceSet) error {
	fmt.Println("== Figures 5-8 + Table III: summary representations (threshold=1%, cache=10%) ==")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "trace\tsummary\thit ratio (F5)\tfalse hit (F6)\tmsgs/req (F7)\tbytes/req (F8)\tmemory/cache (T3)")
	var all []experiments.SummaryRow
	for _, ts := range sets {
		rows, err := experiments.SummaryComparison(ts, nil)
		if err != nil {
			return err
		}
		all = append(all, rows...)
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%s\t%.2f%%\t%.4f%%\t%.3f\t%.1f\t%.3f%%\n",
				r.Trace, r.Label(), 100*r.HitRatio, 100*r.FalseHit,
				r.MsgsPerReq, r.BytesPerReq, r.MemoryPct)
		}
	}
	w.Flush()
	fmt.Println()
	return emitCSV("fig5678_table3", func(out io.Writer) error {
		return experiments.SummaryCSV(out, all)
	})
}

func scalability() error {
	fmt.Println("== §V-F: scalability with the number of proxies (Bloom lf=16, threshold=1%) ==")
	rows, err := experiments.Scalability(nil, 4000)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "proxies\thit ratio\tSC msgs/req\tICP msgs/req\treduction\tsummary table (MB)")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%.2f%%\t%.3f\t%.3f\t%.1fx\t%.2f\n",
			r.Proxies, 100*r.HitRatio, r.MsgsPerReq, r.ICPMsgsPerReq,
			r.ICPMsgsPerReq/r.MsgsPerReq, r.SummaryTableMB)
	}
	w.Flush()
	fmt.Println()
	return emitCSV("scalability", func(out io.Writer) error {
		return experiments.ScaleCSV(out, rows)
	})
}
