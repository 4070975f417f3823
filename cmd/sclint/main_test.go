package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// chdir switches the working directory and restores it on cleanup;
// moduleRoot resolves from the working directory, so every run() test
// must pin where it starts.
func chdir(t *testing.T, dir string) {
	t.Helper()
	prev, err := os.Getwd()
	if err != nil {
		t.Fatalf("getwd: %v", err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatalf("chdir %s: %v", dir, err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(prev); err != nil {
			t.Fatalf("restore chdir %s: %v", prev, err)
		}
	})
}

// writeModule materialises a throwaway module for run() to lint.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatalf("write %s: %v", name, err)
		}
	}
	return root
}

// TestRunCleanModuleJSON pins the contract CI depends on: a clean tree
// exits 0 and -json renders an empty array, not null.
func TestRunCleanModuleJSON(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":     "module tmpclean\n\ngo 1.22\n",
		"lib/lib.go": "package lib\n\nfunc Add(a, b int) int { return a + b }\n",
	})
	chdir(t, root)

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, stderr.String())
	}
	if got := strings.TrimSpace(stdout.String()); got != "[]" {
		t.Fatalf("clean -json output = %q, want []", got)
	}
}

// TestRunFindingsJSON checks exit code 1 and the stable JSON shape:
// one object per finding with fields in declaration order
// rule, file, line, col, message.
func TestRunFindingsJSON(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module tmpdirty\n\ngo 1.22\n",
		"internal/sim/sim.go": `package sim

import "fmt"

func Step() { fmt.Println("step") }
`,
	})
	chdir(t, root)

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr: %s", code, stderr.String())
	}

	var findings []struct {
		Rule    string `json:"rule"`
		File    string `json:"file"`
		Line    int    `json:"line"`
		Col     int    `json:"col"`
		Message string `json:"message"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &findings); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, stdout.String())
	}
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1:\n%s", len(findings), stdout.String())
	}
	f := findings[0]
	if f.Rule != "stray-printing" || f.File != "internal/sim/sim.go" || f.Line != 5 || f.Col == 0 || f.Message == "" {
		t.Fatalf("finding = %+v", f)
	}

	// Key order is part of the schema (struct declaration order): diffs
	// of -json output must stay byte-stable across runs.
	out := stdout.String()
	last := -1
	for _, key := range []string{`"rule"`, `"file"`, `"line"`, `"col"`, `"message"`} {
		i := strings.Index(out, key)
		if i < 0 {
			t.Fatalf("key %s missing from output:\n%s", key, out)
		}
		if i < last {
			t.Fatalf("key %s out of order; want rule,file,line,col,message:\n%s", key, out)
		}
		last = i
	}
	if !strings.Contains(stderr.String(), "1 finding(s)") {
		t.Fatalf("stderr = %q, want finding count summary", stderr.String())
	}
}

// TestRunUnknownRule exercises the usage-error path: exit 2 and a
// pointer at -list on stderr.
func TestRunUnknownRule(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-rules", "no-such-rule"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), `unknown rule "no-such-rule"`) {
		t.Fatalf("stderr = %q, want unknown-rule message", stderr.String())
	}
}

// TestRunBadFlag: flag-parse failures are usage errors, exit 2.
func TestRunBadFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-definitely-not-a-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

// TestRunList checks the catalog names every rule of the suite and none
// of the retired ones.
func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, stderr.String())
	}
	for _, rule := range []string{"lock-order", "unchecked-close", "stray-printing"} {
		if !strings.Contains(stdout.String(), rule) {
			t.Fatalf("-list output missing %s:\n%s", rule, stdout.String())
		}
	}
	for _, retired := range []string{"borrow-escape", "atomic-mixing", "stats-drift", "goroutine-lifecycle", "determinism"} {
		if strings.Contains(stdout.String(), retired) {
			t.Fatalf("-list output still names the retired %s rule:\n%s", retired, stdout.String())
		}
	}
}
