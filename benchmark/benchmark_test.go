package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var nameRule = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// sameNames fails unless got holds exactly the names of want, each with
// want's unit.
func sameNames(t *testing.T, what string, got metrics, want []specMetric) {
	t.Helper()
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: %s is in BENCHMARK.json but was not emitted", what, m.Name)
			continue
		}
		if g.Unit != m.Unit || g.Unit == "" {
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, m.Name, g.Unit, m.Unit)
		}
	}
	if len(got) != len(want) {
		known := map[string]bool{}
		for _, m := range want {
			known[m.Name] = true
		}
		for name := range got {
			if !known[name] {
				t.Errorf("%s: %s was emitted but is not in BENCHMARK.json", what, name)
			}
		}
	}
}

// TestSelf runs the whole benchmark at a hundredth of its size — all four
// workloads through both passes, and the probes — and holds what it prints
// against BENCHMARK.json.
func TestSelf(t *testing.T) {
	var sp spec
	if err := readJSON(specPath, &sp); err != nil {
		t.Fatal(err)
	}
	for _, m := range append(append([]specMetric{}, sp.EndToEnd...), sp.PerLayer...) {
		if !nameRule.MatchString(m.Name) {
			t.Errorf("metric name %q breaks the naming rule", m.Name)
		}
	}
	if len(sp.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(sp.Workloads), len(workloadNames))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloadNames[i] || !nameRule.MatchString(w.Name) {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, w.Name, workloadNames[i])
		}
	}

	path := filepath.Join(t.TempDir(), "doc.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-seed", "3", "-scale", "0.01", "-seconds", "0.6", "-out", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\n%s", code, stderr.String())
	}
	var doc document
	if err := readJSON(path, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Comparable {
		t.Error("a run at -scale 0.01 is stamped comparable")
	}
	if doc.Env.GOMAXPROCS == 0 || doc.Env.NumCPU == 0 || doc.Env.GoVersion == "" {
		t.Errorf("env block is incomplete: %+v", doc.Env)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Errorf("document has %d workloads, want %d", len(doc.Workloads), len(workloadNames))
	}
	for _, name := range workloadNames {
		w := doc.Workloads[name]
		if !w.Correct || w.Failed != 0 || w.Attempted == 0 {
			t.Errorf("%s: correct %v, %d of %d requests failed", name, w.Correct, w.Failed, w.Attempted)
		}
		sameNames(t, name+" end to end", w.EndToEnd, sp.EndToEnd)
		layers := metrics{}
		for n, m := range w.PerLayer {
			layers[n] = m
		}
		for n, m := range doc.Probes {
			if _, twice := layers[n]; twice {
				t.Errorf("%s is emitted both per workload and as a probe", n)
			}
			layers[n] = m
		}
		sameNames(t, name+" per layer", layers, sp.PerLayer)
		if e := w.PerLayer["error_ratio"].Value; e != 0 {
			t.Errorf("%s: error_ratio %v", name, e)
		}
	}

	var table bytes.Buffer
	if compare(&table, sp, doc, doc) {
		t.Errorf("a document compared with itself has worse rows:\n%s", table.String())
	}
	if strings.Contains(table.String(), "  "+verdictUnresolved+" (") || strings.Contains(table.String(), "  "+verdictBetter+" (") {
		t.Errorf("a document compared with itself has rows that are not within bound:\n%s", table.String())
	}
}

// TestDriverLine checks the one-line result the driver reads, for both
// passes of one workload.
func TestDriverLine(t *testing.T) {
	var sp spec
	if err := readJSON(specPath, &sp); err != nil {
		t.Fatal(err)
	}
	for trace, want := range [][]specMetric{sp.EndToEnd, sp.PerLayer} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "origin_miss", "--seed", "5", "--seconds", "0.6", "--trace", []string{"0", "1"}[trace], "-scale", "0.01"}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %d: exit code %d\n%s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("trace %d: last line is not JSON: %v", trace, err)
		}
		if len(line) != 4 {
			t.Errorf("trace %d: result has %d keys, want correct, attempted, failed and metrics", trace, len(line))
		}
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("trace %d: correct %v, %d of %d failed\n%s", trace, res.Correct, res.Failed, res.Attempted, stderr.String())
		}
		sameNames(t, "driver line", res.Metrics, want)
		var raw struct {
			Metrics map[string]map[string]json.RawMessage `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
			t.Fatal(err)
		}
		for name, m := range raw.Metrics {
			if len(m) != 2 {
				t.Errorf("trace %d: %s has %d keys, want value and unit", trace, name, len(m))
			}
		}
	}
}
