// Command tracegen synthesizes HTTP request traces with the statistical
// shape of the paper's workloads and writes them in the repository's trace
// text format (one "time client size version url" record per line).
//
// Usage:
//
//	tracegen -preset=DEC -scale=1.0 -out=dec.trace
//	tracegen -requests=100000 -clients=500 -docs=30000 -out=custom.trace
package main

import (
	"flag"
	"fmt"
	"os"

	"summarycache/internal/trace"
	"summarycache/internal/tracegen"
)

var (
	preset  = flag.String("preset", "", "paper trace preset: DEC, UCB, UPisa, Questnet, NLANR (empty: custom)")
	scale   = flag.Float64("scale", 1.0, "preset scale factor")
	out     = flag.String("out", "", "output file (default stdout)")
	format  = flag.String("format", "text", "output format: text (greppable) or binary (compact)")
	doStats = flag.Bool("stats", true, "print Table I statistics to stderr")

	requests = flag.Int("requests", 100000, "custom: number of requests")
	clients  = flag.Int("clients", 500, "custom: number of clients")
	docs     = flag.Int("docs", 30000, "custom: shared document universe")
	groups   = flag.Int("groups", 8, "custom: proxy group count (metadata)")
	zipf     = flag.Float64("zipf", 0.8, "custom: popularity skew")
	shared   = flag.Float64("shared", 0.7, "custom: shared-reference fraction")
	locality = flag.Float64("locality", 0.4, "custom: temporal-locality probability")
	modify   = flag.Float64("modify", 0.005, "custom: per-reference modification rate")
	seed     = flag.Int64("seed", 1, "custom: RNG seed")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run() error {
	var reqs []trace.Request
	var name string
	var err error
	if *preset != "" {
		var cfg tracegen.Config
		reqs, cfg, err = tracegen.GeneratePreset(tracegen.Preset(*preset), *scale)
		if err != nil {
			return err
		}
		name = cfg.Name
	} else {
		cfg := tracegen.Config{
			Name: "custom", Seed: *seed,
			Requests: *requests, Clients: *clients, Groups: *groups,
			Docs: *docs, ZipfAlpha: *zipf,
			SharedFraction: *shared, LocalityProb: *locality, ModifyRate: *modify,
		}
		reqs, err = tracegen.Generate(cfg)
		if err != nil {
			return err
		}
		name = cfg.Name
	}

	dst := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	switch *format {
	case "text":
		w := trace.NewWriter(dst)
		for _, r := range reqs {
			if err := w.Write(r); err != nil {
				return err
			}
		}
		if err := w.Flush(); err != nil {
			return err
		}
	case "binary":
		w := trace.NewBinaryWriter(dst)
		for _, r := range reqs {
			if err := w.Write(r); err != nil {
				return err
			}
		}
		if err := w.Flush(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown -format %q", *format)
	}
	if *doStats {
		fmt.Fprintln(os.Stderr, trace.ComputeStats(name, reqs))
	}
	return nil
}
