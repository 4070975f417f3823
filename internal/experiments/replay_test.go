package experiments

import (
	"bytes"
	"io"
	"testing"
)

// replayScale is the toy scale CI runs every simulate experiment at.
const replayScale = 0.01

// TestExperimentsReplay runs every simulate experiment twice in one process
// at toy scale and demands byte-identical CSV output. Each run is seeded, so
// any difference is a read of the wall clock, of a shared generator, or of
// map iteration order leaking into a result.
func TestExperimentsReplay(t *testing.T) {
	first, second := runAllExperiments(t), runAllExperiments(t)
	for name, out := range first {
		if !bytes.Equal(out, second[name]) {
			t.Errorf("%s differs between two runs of the same seeds:\n--- first ---\n%s--- second ---\n%s", name, out, second[name])
		}
	}
}

// runAllExperiments generates every preset trace and runs each simulate
// experiment over them, returning each experiment's CSV by name.
func runAllExperiments(t *testing.T) map[string][]byte {
	t.Helper()
	fail := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	sets, err := LoadAll(replayScale)
	fail(err)
	var (
		fig1    []Fig1Row
		fig2    []Fig2Row
		summary []SummaryRow
		amort   []AmortRow
		digest  []DigestRow
		hashK   []HashKRow
		counter []CounterRow
		lf      []LoadFactorRow
		hier    []HierarchyRow
	)
	for _, ts := range sets {
		f1, err := Fig1(ts, nil)
		fail(err)
		f2, err := Fig2(ts, nil)
		fail(err)
		sm, err := SummaryComparison(ts, nil)
		fail(err)
		am, err := UpdateAmortization(ts, nil)
		fail(err)
		dg, err := DigestVsDelta(ts, nil)
		fail(err)
		hk, err := HashKSweep(ts, nil)
		fail(err)
		cw, err := CounterWidthSweep(ts, nil)
		fail(err)
		lfs, err := LoadFactorSweep(ts, nil)
		fail(err)
		hr, err := Hierarchy(ts)
		fail(err)
		fig1, fig2, summary = append(fig1, f1...), append(fig2, f2...), append(summary, sm...)
		amort, digest, hashK = append(amort, am...), append(digest, dg...), append(hashK, hk...)
		counter, lf, hier = append(counter, cw...), append(lf, lfs...), append(hier, hr...)
	}
	scale, err := Scalability(nil, 50)
	fail(err)

	out := map[string][]byte{}
	for name, write := range map[string]func(io.Writer) error{
		"table1":               func(w io.Writer) error { return TableICSV(w, sets) },
		"fig1":                 func(w io.Writer) error { return Fig1CSV(w, fig1) },
		"fig2":                 func(w io.Writer) error { return Fig2CSV(w, fig2) },
		"fig5678_table3":       func(w io.Writer) error { return SummaryCSV(w, summary) },
		"scalability":          func(w io.Writer) error { return ScaleCSV(w, scale) },
		"amortization":         func(w io.Writer) error { return AmortCSV(w, amort) },
		"ablation_digest":      func(w io.Writer) error { return DigestCSV(w, digest) },
		"ablation_hashk":       func(w io.Writer) error { return HashKCSV(w, hashK) },
		"ablation_counter":     func(w io.Writer) error { return CounterCSV(w, counter) },
		"ablation_load_factor": func(w io.Writer) error { return LoadFactorCSV(w, lf) },
		"hierarchy":            func(w io.Writer) error { return HierarchyCSV(w, hier) },
	} {
		var b bytes.Buffer
		fail(write(&b))
		out[name] = b.Bytes()
	}
	return out
}
