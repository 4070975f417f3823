// Command benchmark is the repository's benchmark: four request-class
// workloads on a live four-proxy SC-ICP mesh, measured end to end and
// layer by layer. See README.md for the metrics and how they interact.
//
// The driver runs one pass of one workload:
//
//	go -C benchmark run . --workload remote_hit --seed 7 --seconds 15 --trace 0
//
// and reads the JSON object on the last line of standard output. Without
// --trace every workload is run through both passes, each metric is
// printed by name, and the whole ledger entry is printed as one JSON
// document (and written to -out):
//
//	go -C benchmark run . -seed 1 -out results/PR11.json
//
// -compare old.json new.json holds two such documents against the bounds
// in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

// specPath is BENCHMARK.json as seen from this directory, where both
// `go -C benchmark run .` and `go test` run the program.
const specPath = "../BENCHMARK.json"

// document is one ledger entry: everything one invocation measured.
type document struct {
	Env     env     `json:"env"`
	Seed    int64   `json:"seed"`
	Seconds float64 `json:"seconds"`
	Scale   float64 `json:"scale"`
	// Comparable is false for a run at -scale other than 1: its numbers
	// are from smaller populations and belong in no ledger.
	Comparable bool                   `json:"comparable"`
	Workloads  map[string]workloadDoc `json:"workloads"`
	Probes     metrics                `json:"probes"`
}

type workloadDoc struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	EndToEnd  metrics `json:"end_to_end"`
	PerLayer  metrics `json:"per_layer"`
}

// env records the fixed conditions every number was taken under.
type env struct {
	GoVersion       string `json:"go_version"`
	GOOS            string `json:"goos"`
	GOARCH          string `json:"goarch"`
	NumCPU          int    `json:"num_cpu"`
	GOMAXPROCS      int    `json:"gomaxprocs"`
	Network         string `json:"network"`
	OriginLatencyMS int    `json:"origin_latency_ms"`
	Proxies         int    `json:"proxies"`
	Load            string `json:"load"`
	Rounds          int    `json:"rounds"`
}

func currentEnv() env {
	return env{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Network: "loopback", OriginLatencyMS: 0, Proxies: meshProxies,
		Load:   fmt.Sprintf("closed loop, %d workers, one request in flight each", workers),
		Rounds: rounds,
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "seed of URL namespaces, key order and the generated trace")
	name := fs.String("workload", "", "run only this workload (default: all four)")
	seconds := fs.Float64("seconds", 0, "seconds measured per pass (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", -1, "driver mode: 0 prints the end-to-end metrics of -workload as one JSON line, 1 the per-layer metrics")
	procs := fs.Int("procs", min(runtime.NumCPU(), workers), "GOMAXPROCS")
	scale := fs.Float64("scale", 1, "shrink populations, trace and probe time; the output is then not comparable")
	out := fs.String("out", "", "also write the JSON document here")
	cmp := fs.Bool("compare", false, "compare two documents: -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	var sp spec
	if err := readJSON(specPath, &sp); err != nil {
		return fail(err)
	}
	if *cmp {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two documents, got %d", fs.NArg()))
		}
		var old, new document
		if err := readJSON(fs.Arg(0), &old); err != nil {
			return fail(err)
		}
		if err := readJSON(fs.Arg(1), &new); err != nil {
			return fail(err)
		}
		if compare(stdout, sp, old, new) {
			return 1
		}
		return 0
	}
	if *seconds <= 0 {
		*seconds = sp.RunSeconds
	}
	runtime.GOMAXPROCS(*procs)

	if *trace >= 0 {
		res, err := runPass(*name, *seed, *scale, *seconds, *trace == 1, true)
		if err != nil {
			return fail(err)
		}
		for _, p := range res.problems {
			fmt.Fprintln(stderr, "benchmark:", p)
		}
		for name, m := range res.Metrics {
			res.Metrics[name] = metric{Value: m.Value, Unit: m.Unit} // the driver's shape has no spread
		}
		if err := json.NewEncoder(stdout).Encode(res); err != nil {
			return fail(err)
		}
		return 0
	}

	doc := document{
		Env: currentEnv(), Seed: *seed, Seconds: *seconds, Scale: *scale, Comparable: *scale == 1,
		Workloads: map[string]workloadDoc{}, Probes: metrics{},
	}
	names := workloadNames
	if *name != "" {
		names = []string{*name}
	}
	valid := true
	for _, n := range names {
		e2e, err := runPass(n, *seed, *scale, *seconds, false, false)
		if err != nil {
			return fail(err)
		}
		layers, err := runPass(n, *seed, *scale, *seconds, true, false)
		if err != nil {
			return fail(err)
		}
		for _, p := range append(e2e.problems, layers.problems...) {
			fmt.Fprintln(stderr, "benchmark:", p)
		}
		valid = valid && e2e.Correct && layers.Correct
		doc.Workloads[n] = workloadDoc{
			Correct: e2e.Correct && layers.Correct, Attempted: e2e.Attempted + layers.Attempted,
			Failed: e2e.Failed + layers.Failed, EndToEnd: e2e.Metrics, PerLayer: layers.Metrics,
		}
		printMetrics(stdout, n, e2e.Metrics)
		printMetrics(stdout, n, layers.Metrics)
	}
	if err := runProbes(*scale, doc.Probes); err != nil {
		return fail(err)
	}
	printMetrics(stdout, "-", doc.Probes)
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if *out != "" {
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	if !valid {
		return fail(fmt.Errorf("a class assertion, a response check or the Che check failed; the run is invalid"))
	}
	return 0
}

// runPass runs one pass of one workload. With probes, the isolated
// per-layer probes are added to a per-layer pass, as the driver wants every
// per-layer metric from one invocation.
func runPass(name string, seed int64, scale, seconds float64, layers, probes bool) (result, error) {
	w, err := newWorkload(name, seed, scale)
	if err != nil {
		return result{}, err
	}
	if !layers {
		return runEndToEnd(w, seconds), nil
	}
	res := runLayers(w, seconds)
	if probes {
		if err := runProbes(scale, res.Metrics); err != nil {
			res.invalid("probes: %v", err)
		}
	}
	return res, nil
}

func printMetrics(w io.Writer, workload string, m metrics) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-40s %-12s %16.4f %s\n", name, workload, m[name].Value, m[name].Unit)
	}
}
