package analysis

import (
	"bytes"
	"encoding/json"
	"flag"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// loadFixtures loads the go.mod-less fixture universe once per test run.
func loadFixtures(t *testing.T) *Universe {
	t.Helper()
	u, err := Load(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatalf("Load(testdata/src): %v", err)
	}
	return u
}

// TestGoldenFixtures runs the full rule suite over the fixture universe
// and compares the rendered diagnostics against testdata/golden.txt.
// Run with -update to regenerate the golden after intentional changes.
func TestGoldenFixtures(t *testing.T) {
	u := loadFixtures(t)
	for _, pkg := range u.Pkgs {
		for _, err := range pkg.SoftErrors {
			t.Errorf("fixture package %s has type error: %v", pkg.Path, err)
		}
	}

	findings := Run(u, Rules())
	var buf bytes.Buffer
	WritePlain(&buf, findings)
	got := buf.String()

	golden := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
	}
	wantBytes, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if want := string(wantBytes); got != want {
		t.Errorf("fixture findings diverge from golden.\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// Every rule — including the implicit lint-directive rule — must have
	// at least one positive fixture case.
	seen := map[string]int{}
	for _, f := range findings {
		seen[f.Rule]++
	}
	for _, name := range append(RuleNames(), RuleLintDirective) {
		if seen[name] == 0 {
			t.Errorf("rule %s has no positive fixture finding", name)
		}
	}

	// Negative fixtures (ok/, okmain/) must be completely silent.
	for _, f := range findings {
		for _, quiet := range []string{"/ok/", "/okmain/"} {
			if strings.Contains("/"+f.File, quiet) {
				t.Errorf("negative fixture produced a finding: %s", f)
			}
		}
	}
}

// TestModuleTreeIsClean pins the repo itself at zero findings: any rule
// regression or new violation in library code fails this test before CI
// even reaches the sclint gate.
func TestModuleTreeIsClean(t *testing.T) {
	findings, err := LintDir(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("LintDir(module root): %v", err)
	}
	for _, f := range findings {
		t.Errorf("unexpected finding on module tree: %s", f)
	}
}

func TestParseIgnores(t *testing.T) {
	const src = `package p

//lint:ignore sclint/lock-order nesting order is fixed by construction
var a int

//lint:ignore sclint/stray-printing,sclint/unchecked-close two rules one reason
var b int

//lint:ignore sclint/unchecked-close
var c int
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	ds := parseIgnores(fset, f)
	if len(ds) != 3 {
		t.Fatalf("got %d directives, want 3", len(ds))
	}
	if !ds[0].rules["lock-order"] || ds[0].reason != "nesting order is fixed by construction" {
		t.Errorf("directive 0 parsed as %+v", ds[0])
	}
	if !ds[1].rules["stray-printing"] || !ds[1].rules["unchecked-close"] {
		t.Errorf("directive 1 should cover both rules, got %+v", ds[1].rules)
	}
	if ds[1].reason != "two rules one reason" {
		t.Errorf("directive 1 reason = %q", ds[1].reason)
	}
	if ds[2].reason != "" {
		t.Errorf("directive 2 should have empty reason, got %q", ds[2].reason)
	}
}

func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "[]" {
		t.Errorf("nil findings should encode as [], got %q", got)
	}

	buf.Reset()
	in := []Finding{{Rule: RuleStrayPrinting, File: "x/y.go", Line: 3, Col: 2, Message: "m"}}
	if err := WriteJSON(&buf, in); err != nil {
		t.Fatal(err)
	}
	var out []Finding
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if len(out) != 1 || out[0] != in[0] {
		t.Errorf("round-trip mismatch: %+v", out)
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{Rule: RuleStrayPrinting, File: "internal/sim/sim.go", Line: 42, Message: "fmt.Println in library code"}
	const want = "internal/sim/sim.go:42: [stray-printing] fmt.Println in library code"
	if got := f.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
