package main

import (
	"fmt"
	"io"
	"math"
)

// repeatRow compares one end-to-end metric of one workload across sets.
type repeatRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	RelDiff  float64   `json:"rel_diff"` // largest |set i - set 0| / set 0
	Bound    float64   `json:"bound"`
	Breach   bool      `json:"breach"`
}

// runRepeat runs the untraced suite n times on unchanged code and checks
// that the sets agree within the bounds BENCHMARK.json fixes: a bound the
// benchmark cannot hold against itself cannot gate a later change.
func runRepeat(n int, ws []spec, o options, outDir string, out io.Writer) error {
	o.traced = false
	var sets []*resultFile
	for i := 0; i < n; i++ {
		fmt.Fprintf(out, "---- set %d of %d\n", i+1, n)
		rf, err := runSuite(ws, o, out)
		if err != nil {
			return err
		}
		sets = append(sets, rf)
	}
	var rows []repeatRow
	breaches := 0
	for wi, w := range ws {
		if !sets[0].Workloads[wi].Correct {
			return fmt.Errorf("%s: outputs are wrong: %s", w.name, sets[0].Workloads[wi].Mismatch)
		}
		for _, cm := range o.con.EndToEnd {
			row := repeatRow{Workload: w.name, Metric: cm.Name, Unit: cm.Unit, Bound: cm.Bound}
			for _, rf := range sets {
				row.Values = append(row.Values, rf.Workloads[wi].EndToEnd[cm.Name].Value)
			}
			for _, v := range row.Values[1:] {
				row.RelDiff = math.Max(row.RelDiff, math.Abs(v-row.Values[0])/row.Values[0])
			}
			row.Breach = row.RelDiff > row.Bound
			if row.Breach {
				breaches++
			}
			rows = append(rows, row)
		}
	}
	fmt.Fprintf(out, "---- repeat: %d sets\n%-18s %-16s %-32s %9s %7s\n", n, "workload", "metric", "values", "rel.diff", "bound")
	for _, r := range rows {
		flag := ""
		if r.Breach {
			flag = "  BREACH"
		}
		fmt.Fprintf(out, "%-18s %-16s %-32s %8.1f%% %6.0f%%%s\n", r.Workload, r.Metric, fmt.Sprintf("%.4g %s", r.Values, r.Unit), 100*r.RelDiff, 100*r.Bound, flag)
	}
	path, err := writeJSON(outDir, "repeat.json", rows)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", path)
	if breaches > 0 {
		return fmt.Errorf("%d metric × workload pairs differ between sets by more than their bound", breaches)
	}
	return nil
}
