package experiments

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"strings"
	"testing"

	"summarycache/internal/sim"
	"summarycache/internal/tracegen"
)

// parseCSV reads back what an emitter wrote and sanity-checks shape.
func parseCSV(t *testing.T, buf *bytes.Buffer, wantCols int, wantRows int) [][]string {
	t.Helper()
	recs, err := csv.NewReader(buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != wantRows+1 {
		t.Fatalf("got %d records, want %d (header + rows)", len(recs), wantRows+1)
	}
	for i, rec := range recs {
		if len(rec) != wantCols {
			t.Fatalf("record %d has %d columns, want %d", i, len(rec), wantCols)
		}
	}
	return recs
}

func TestFig1CSV(t *testing.T) {
	rows := []Fig1Row{
		{Trace: "DEC", CacheFrac: 0.1, Scheme: sim.SimpleSharing, HitRatio: 0.375},
		{Trace: "DEC", CacheFrac: 0.1, Scheme: sim.GlobalCache, HitRatio: 0.402},
	}
	var buf bytes.Buffer
	if err := Fig1CSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	recs := parseCSV(t, &buf, 4, 2)
	if recs[1][2] != "simple" || recs[2][2] != "global" {
		t.Fatalf("scheme column wrong: %v", recs)
	}
	if v, err := strconv.ParseFloat(recs[1][3], 64); err != nil || v != 0.375 {
		t.Fatalf("hit ratio column: %v %v", v, err)
	}
}

func TestFig2CSV(t *testing.T) {
	var buf bytes.Buffer
	rows := []Fig2Row{{Trace: "UCB", Threshold: 0.01, HitRatio: 0.369,
		FalseMissRate: 0.0003, FalseHitRate: 0.0004, StaleHitRate: 0.001}}
	if err := Fig2CSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	parseCSV(t, &buf, 6, 1)
}

func TestSummaryCSV(t *testing.T) {
	var buf bytes.Buffer
	rows := []SummaryRow{{Trace: "UPisa", Kind: sim.Bloom, LoadFactor: 8,
		HitRatio: 0.4, FalseHit: 0.07, MsgsPerReq: 1.7, BytesPerReq: 160, MemoryPct: 0.14}}
	if err := SummaryCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	recs := parseCSV(t, &buf, 9, 1)
	if recs[1][1] != "bloom_8" {
		t.Fatalf("label column: %v", recs[1])
	}
}

func TestRemainingCSVEmitters(t *testing.T) {
	var buf bytes.Buffer
	if err := ScaleCSV(&buf, []ScaleRow{{Proxies: 16, HitRatio: 0.42, MsgsPerReq: 0.47, ICPMsgsPerReq: 10.1, SummaryTableMB: 0.01}}); err != nil {
		t.Fatal(err)
	}
	parseCSV(t, &buf, 5, 1)

	buf.Reset()
	if err := AmortCSV(&buf, []AmortRow{{Trace: "DEC", MinPending: 360, HitRatio: 0.36, MsgsPerReq: 0.58, BytesPerReq: 300, ICPFactor: 19.9}}); err != nil {
		t.Fatal(err)
	}
	parseCSV(t, &buf, 6, 1)

	buf.Reset()
	if err := DigestCSV(&buf, []DigestRow{{Trace: "DEC", Threshold: 0.1, DeltaBytesReq: 287.5, DigestBytesReq: 287.2}}); err != nil {
		t.Fatal(err)
	}
	parseCSV(t, &buf, 4, 1)

	buf.Reset()
	if err := HashKCSV(&buf, []HashKRow{{Trace: "DEC", K: 4, Optimal: false, FalseHit: 0.02, AnalyticFP: 0.002}}); err != nil {
		t.Fatal(err)
	}
	parseCSV(t, &buf, 5, 1)

	buf.Reset()
	if err := CounterCSV(&buf, []CounterRow{{Trace: "DEC", CounterBits: 4, Saturations: 0, FalseHit: 0.02, MemoryBytes: 1 << 19}}); err != nil {
		t.Fatal(err)
	}
	parseCSV(t, &buf, 5, 1)

	buf.Reset()
	if err := LoadFactorCSV(&buf, []LoadFactorRow{{Trace: "DEC", LoadFactor: 16, FalseHit: 0.02, MsgsPerReq: 3.9, MemoryPct: 0.64}}); err != nil {
		t.Fatal(err)
	}
	parseCSV(t, &buf, 5, 1)

	buf.Reset()
	if err := HierarchyCSV(&buf, []HierarchyRow{{Trace: "DEC", WithParent: true, HitRatio: 0.37, ParentHitRatio: 0.1, OriginMissRate: 0.53}}); err != nil {
		t.Fatal(err)
	}
	parseCSV(t, &buf, 5, 1)
}

func TestTableICSV(t *testing.T) {
	ts := loadTest(t, tracegen.UPisa)
	var buf bytes.Buffer
	if err := TableICSV(&buf, []TraceSet{ts}); err != nil {
		t.Fatal(err)
	}
	recs := parseCSV(t, &buf, 9, 1)
	if recs[1][0] != "UPisa" {
		t.Fatalf("name column: %v", recs[1])
	}
	if !strings.Contains(strings.Join(recs[0], ","), "max_hit_ratio") {
		t.Fatal("header malformed")
	}
}
