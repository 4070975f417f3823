// Command sclint runs the repository's project-specific static analysis
// suite (internal/analysis) over the module: invariants go vet cannot
// see — atomic-mixing, replay determinism, Stats()/scrape drift,
// discarded Close errors, stray printing in library code, lock-order
// cycles across the call graph, and goroutines without a shutdown path
// (see internal/analysis).
//
// Usage:
//
//	go run ./cmd/sclint ./...          # whole module, plain output
//	go run ./cmd/sclint -json ./...    # machine-readable findings
//	go run ./cmd/sclint -rules stats-drift,determinism ./internal/bench
//	go run ./cmd/sclint -list          # rule catalog
//
// Package arguments are module-relative path prefixes ("./..." or "" is
// everything; "./internal/bench" restricts findings to that subtree).
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
//
// Suppress a finding at one site with an in-source directive carrying a
// reason, on the offending line or the line directly above:
//
//	//lint:ignore sclint/<rule> <why this site is intentional>
//
// Declare an intentional lock hierarchy (consumed by lock-order) at
// package scope:
//
//	//lint:lockorder pkg.Type.fieldA < pkg.Type.fieldB <why A precedes B>
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"summarycache/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI behind a testable seam: flag parsing, rule
// selection, loading, and rendering, returning the process exit code
// (0 clean, 1 findings, 2 usage or load failure).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sclint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	ruleList := fs.String("rules", "", "comma-separated subset of rules to run (default: all)")
	list := fs.Bool("list", false, "print the rule catalog and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: sclint [-json] [-rules r1,r2] [-list] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	rules := analysis.Rules()
	if *list {
		for _, r := range rules {
			fmt.Fprintf(stdout, "%-20s %s\n", r.Name(), r.Doc())
		}
		return 0
	}
	if *ruleList != "" {
		want := map[string]bool{}
		for _, name := range strings.Split(*ruleList, ",") {
			want[strings.TrimSpace(name)] = true
		}
		var sel []analysis.Rule
		for _, r := range rules {
			if want[r.Name()] {
				sel = append(sel, r)
				delete(want, r.Name())
			}
		}
		for name := range want {
			fmt.Fprintf(stderr, "sclint: unknown rule %q (see -list)\n", name)
			return 2
		}
		rules = sel
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintf(stderr, "sclint: %v\n", err)
		return 2
	}
	u, err := analysis.Load(root)
	if err != nil {
		fmt.Fprintf(stderr, "sclint: %v\n", err)
		return 2
	}
	findings := analysis.Run(u, rules)
	findings = filterByArgs(findings, fs.Args())

	if *jsonOut {
		if err := analysis.WriteJSON(stdout, findings); err != nil {
			fmt.Fprintf(stderr, "sclint: %v\n", err)
			return 2
		}
	} else {
		analysis.WritePlain(stdout, findings)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "sclint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// moduleRoot walks up from the working directory to the enclosing go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}

// filterByArgs keeps findings under the requested module-relative path
// prefixes. "./..." and "" mean everything; "./internal/bench" (with or
// without a trailing /...) keeps that subtree.
func filterByArgs(findings []analysis.Finding, args []string) []analysis.Finding {
	var prefixes []string
	for _, a := range args {
		a = strings.TrimSuffix(a, "/...")
		a = strings.TrimPrefix(a, "./")
		if a == "" || a == "." {
			return findings
		}
		prefixes = append(prefixes, a+"/")
	}
	if len(prefixes) == 0 {
		return findings
	}
	var out []analysis.Finding
	for _, f := range findings {
		for _, p := range prefixes {
			if strings.HasPrefix(f.File, p) || f.File == strings.TrimSuffix(p, "/") {
				out = append(out, f)
				break
			}
		}
	}
	return out
}
