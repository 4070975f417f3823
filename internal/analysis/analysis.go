package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"path/filepath"
	"sort"
	"strings"
)

// Canonical rule names, exported so callers (cmd/sclint, the public
// facade) and suppression directives refer to one spelling.
const (
	RuleAtomicMixing       = "atomic-mixing"
	RuleDeterminism        = "determinism"
	RuleStatsDrift         = "stats-drift"
	RuleUncheckedClose     = "unchecked-close"
	RuleStrayPrinting      = "stray-printing"
	RuleLockOrder          = "lock-order"
	RuleGoroutineLifecycle = "goroutine-lifecycle"
	// RuleLintDirective is the analyzer's own hygiene rule: a
	// //lint:ignore directive without a reason neither suppresses nor
	// passes silently.
	RuleLintDirective = "lint-directive"
)

// Finding is one diagnostic. File is relative to the universe root.
type Finding struct {
	Rule    string `json:"rule"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

// String renders the canonical plain form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Rule, f.Message)
}

// Rule is one checker. Check inspects a single package and reports
// findings through report; the driver handles suppression, ordering and
// exit status.
type Rule interface {
	Name() string
	Doc() string
	Check(pkg *Package, report ReportFunc)
}

// ReportFunc records a finding at pos.
type ReportFunc func(pos token.Pos, format string, args ...any)

// Rules returns the full default rule suite in stable order.
func Rules() []Rule {
	return []Rule{
		&atomicMixingRule{},
		&determinismRule{},
		&statsDriftRule{},
		&uncheckedCloseRule{},
		&strayPrintingRule{},
		&lockOrderRule{},
		&goroutineLifecycleRule{},
	}
}

// RuleNames lists the names of the default suite.
func RuleNames() []string {
	rules := Rules()
	out := make([]string, len(rules))
	for i, r := range rules {
		out[i] = r.Name()
	}
	return out
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	file   string
	line   int
	rules  map[string]bool
	reason string
}

const ignorePrefix = "//lint:ignore "

// parseIgnores scans a file's comments for suppression directives:
//
//	//lint:ignore sclint/<rule>[,sclint/<rule>...] reason
//
// A directive covers findings on its own line (trailing comment) and on
// the line directly below (standalone comment above the offending code).
func parseIgnores(fset *token.FileSet, f *ast.File) []ignoreDirective {
	var out []ignoreDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, ignorePrefix)
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			d := ignoreDirective{file: pos.Filename, line: pos.Line, rules: map[string]bool{}}
			fields := strings.Fields(text)
			if len(fields) > 0 {
				for _, r := range strings.Split(fields[0], ",") {
					r = strings.TrimPrefix(r, "sclint/")
					if r != "" {
						d.rules[r] = true
					}
				}
				d.reason = strings.TrimSpace(strings.Join(fields[1:], " "))
			}
			out = append(out, d)
		}
	}
	return out
}

// Run executes rules over every package of the universe, applies
// //lint:ignore suppressions, and returns the surviving findings sorted
// by file, line and rule. Directives missing a reason are themselves
// reported under the lint-directive rule.
func Run(u *Universe, rules []Rule) []Finding {
	type lineKey struct {
		file string
		line int
	}
	suppress := map[lineKey]map[string]bool{}
	var findings []Finding
	for _, pkg := range u.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range parseIgnores(u.Fset, f) {
				if d.reason == "" || len(d.rules) == 0 {
					findings = append(findings, Finding{
						Rule: RuleLintDirective,
						File: u.relFile(d.file), Line: d.line,
						Message: "//lint:ignore needs a rule and a reason: //lint:ignore sclint/<rule> <why>",
					})
					continue
				}
				for _, l := range []int{d.line, d.line + 1} {
					k := lineKey{d.file, l}
					if suppress[k] == nil {
						suppress[k] = map[string]bool{}
					}
					for r := range d.rules {
						suppress[k][r] = true
					}
				}
			}
		}
	}
	for _, pkg := range u.Pkgs {
		pkg := pkg
		for _, rule := range rules {
			name := rule.Name()
			rule.Check(pkg, func(pos token.Pos, format string, args ...any) {
				p := u.Fset.Position(pos)
				if suppress[lineKey{p.Filename, p.Line}][name] {
					return
				}
				findings = append(findings, Finding{
					Rule: name,
					File: u.relFile(p.Filename), Line: p.Line, Col: p.Column,
					Message: fmt.Sprintf(format, args...),
				})
			})
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	return findings
}

func (u *Universe) relFile(file string) string {
	if rel, err := filepath.Rel(u.Root, file); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return file
}

// WritePlain renders findings one per line in the canonical
// "file:line: [rule] message" form.
func WritePlain(w io.Writer, findings []Finding) {
	for _, f := range findings {
		fmt.Fprintln(w, f.String())
	}
}

// WriteJSON renders findings as a JSON array (empty slice, not null,
// when clean — stable shape for tooling).
func WriteJSON(w io.Writer, findings []Finding) error {
	if findings == nil {
		findings = []Finding{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(findings)
}

// LintDir loads the universe rooted at dir and runs the default suite —
// the one-call form behind cmd/sclint.
func LintDir(dir string) ([]Finding, error) {
	u, err := Load(dir)
	if err != nil {
		return nil, err
	}
	return Run(u, Rules()), nil
}
