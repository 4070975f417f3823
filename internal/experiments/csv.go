package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// CSV emitters: every experiment's rows can be written as a CSV table, so
// the paper's figures can be re-plotted from this repository's output with
// any plotting tool. Each function writes a header row followed by one
// record per data point.

func writeCSV(w io.Writer, header []string, records [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	if err := cw.WriteAll(records); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

func f(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }
func d(v int) string     { return strconv.Itoa(v) }
func u(v uint64) string  { return strconv.FormatUint(v, 10) }

// Fig1CSV writes Figure 1 rows.
func Fig1CSV(w io.Writer, rows []Fig1Row) error {
	recs := make([][]string, 0, len(rows))
	for _, r := range rows {
		recs = append(recs, []string{r.Trace, f(r.CacheFrac), r.Scheme.String(), f(r.HitRatio)})
	}
	return writeCSV(w, []string{"trace", "cache_frac", "scheme", "hit_ratio"}, recs)
}

// Fig2CSV writes Figure 2 rows.
func Fig2CSV(w io.Writer, rows []Fig2Row) error {
	recs := make([][]string, 0, len(rows))
	for _, r := range rows {
		recs = append(recs, []string{
			r.Trace, f(r.Threshold), f(r.HitRatio), f(r.FalseMissRate),
			f(r.FalseHitRate), f(r.StaleHitRate),
		})
	}
	return writeCSV(w, []string{"trace", "threshold", "hit_ratio", "false_miss", "false_hit", "stale_hit"}, recs)
}

// SummaryCSV writes the Figs. 5–8 / Table III comparison rows.
func SummaryCSV(w io.Writer, rows []SummaryRow) error {
	recs := make([][]string, 0, len(rows))
	for _, r := range rows {
		recs = append(recs, []string{
			r.Trace, r.Label(), f(r.HitRatio), f(r.FalseHit),
			f(r.MsgsPerReq), f(r.BytesPerReq), f(r.MemoryPct),
			u(r.Result.QueryMessages), u(r.Result.UpdateMessages),
		})
	}
	return writeCSV(w, []string{
		"trace", "summary", "hit_ratio", "false_hit", "msgs_per_req",
		"bytes_per_req", "memory_pct", "query_msgs", "update_msgs",
	}, recs)
}

// ScaleCSV writes §V-F scalability rows.
func ScaleCSV(w io.Writer, rows []ScaleRow) error {
	recs := make([][]string, 0, len(rows))
	for _, r := range rows {
		recs = append(recs, []string{
			d(r.Proxies), f(r.HitRatio), f(r.MsgsPerReq), f(r.ICPMsgsPerReq),
			f(r.SummaryTableMB),
		})
	}
	return writeCSV(w, []string{"proxies", "hit_ratio", "sc_msgs_per_req", "icp_msgs_per_req", "summary_table_mb"}, recs)
}

// AmortCSV writes update-amortization ablation rows.
func AmortCSV(w io.Writer, rows []AmortRow) error {
	recs := make([][]string, 0, len(rows))
	for _, r := range rows {
		recs = append(recs, []string{
			r.Trace, d(r.MinPending), f(r.HitRatio), f(r.MsgsPerReq),
			f(r.BytesPerReq), f(r.ICPFactor),
		})
	}
	return writeCSV(w, []string{"trace", "batch_flips", "hit_ratio", "msgs_per_req", "bytes_per_req", "icp_factor"}, recs)
}

// DigestCSV writes delta-vs-digest ablation rows.
func DigestCSV(w io.Writer, rows []DigestRow) error {
	recs := make([][]string, 0, len(rows))
	for _, r := range rows {
		recs = append(recs, []string{
			r.Trace, f(r.Threshold), f(r.DeltaBytesReq), f(r.DigestBytesReq),
		})
	}
	return writeCSV(w, []string{"trace", "threshold", "delta_bytes_per_req", "digest_bytes_per_req"}, recs)
}

// HashKCSV writes hash-function-count ablation rows.
func HashKCSV(w io.Writer, rows []HashKRow) error {
	recs := make([][]string, 0, len(rows))
	for _, r := range rows {
		recs = append(recs, []string{
			r.Trace, d(r.K), strconv.FormatBool(r.Optimal), f(r.FalseHit), f(r.AnalyticFP),
		})
	}
	return writeCSV(w, []string{"trace", "k", "optimal", "false_hit", "analytic_fp"}, recs)
}

// CounterCSV writes counter-width ablation rows.
func CounterCSV(w io.Writer, rows []CounterRow) error {
	recs := make([][]string, 0, len(rows))
	for _, r := range rows {
		recs = append(recs, []string{
			r.Trace, d(int(r.CounterBits)), u(r.Saturations), f(r.FalseHit), u(r.MemoryBytes),
		})
	}
	return writeCSV(w, []string{"trace", "counter_bits", "saturations", "false_hit", "memory_bytes"}, recs)
}

// LoadFactorCSV writes load-factor sweep rows.
func LoadFactorCSV(w io.Writer, rows []LoadFactorRow) error {
	recs := make([][]string, 0, len(rows))
	for _, r := range rows {
		recs = append(recs, []string{
			r.Trace, f(r.LoadFactor), f(r.FalseHit), f(r.MsgsPerReq), f(r.MemoryPct),
		})
	}
	return writeCSV(w, []string{"trace", "load_factor", "false_hit", "msgs_per_req", "memory_pct"}, recs)
}

// HierarchyCSV writes hierarchy extension rows.
func HierarchyCSV(w io.Writer, rows []HierarchyRow) error {
	recs := make([][]string, 0, len(rows))
	for _, r := range rows {
		recs = append(recs, []string{
			r.Trace, strconv.FormatBool(r.WithParent), f(r.HitRatio),
			f(r.ParentHitRatio), f(r.OriginMissRate),
		})
	}
	return writeCSV(w, []string{"trace", "with_parent", "sibling_hit", "parent_hit", "origin_miss"}, recs)
}

// TableICSV writes Table I statistics for a set of traces.
func TableICSV(w io.Writer, sets []TraceSet) error {
	recs := make([][]string, 0, len(sets))
	for _, ts := range sets {
		s := ts.Stats
		recs = append(recs, []string{
			s.Name, u(s.Requests), d(s.Clients), d(ts.Groups), u(s.UniqueDocs),
			u(s.InfiniteCacheSize), f(s.MaxHitRatio), f(s.MaxByteHitRatio),
			fmt.Sprint(ts.AvgDocBytes),
		})
	}
	return writeCSV(w, []string{
		"trace", "requests", "clients", "groups", "unique_docs",
		"infinite_cache_bytes", "max_hit_ratio", "max_byte_hit_ratio", "avg_doc_bytes",
	}, recs)
}
