package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// loadResults reads the untraced result files of a directory, grouped by
// workload.
func loadResults(dir string) (map[string][]*resultFile, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]*resultFile{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if rf.Trace != 0 || rf.Result == nil {
			continue
		}
		if !rf.Result.Correct || rf.Result.Failed > 0 {
			return nil, fmt.Errorf("%s: a run with %d failed operations (correct=%v) is no measurement", p, rf.Result.Failed, rf.Result.Correct)
		}
		out[rf.Workload] = append(out[rf.Workload], &rf)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no untraced result files", dir)
	}
	return out, nil
}

// gap is how much worse b's median is than a's, as a share of a's median
// (negative when b is better).
func gap(m metricSpec, a, b float64) float64 {
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compare prints, for every (workload, end-to-end metric), each side's
// median and quartiles and whether B's median is worse than A's by more
// than the metric's bound. It fails when any gap exceeds its bound.
func compare(w io.Writer, sp *spec, dirA, dirB string) error {
	a, err := loadResults(dirA)
	if err != nil {
		return err
	}
	b, err := loadResults(dirB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A = %s, B = %s; spread = (q3-q1)/median; gap = how much worse B's median is\n", dirA, dirB)
	fmt.Fprintf(w, "%-13s %-15s %5s  %-34s %-34s %8s %6s  %s\n", "workload", "metric", "unit", "A median [q1, q3] (n, spread)", "B median [q1, q3] (n, spread)", "gap", "bound", "verdict")
	var over []string
	for _, wl := range sp.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			side := "B"
			if len(ra) == 0 {
				side = "A"
			}
			fmt.Fprintf(w, "%-13s missing from %s\n", wl.Name, side)
			over = append(over, wl.Name)
			continue
		}
		for _, m := range sp.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			qa1, ma, qa3 := quartiles(va)
			qb1, mb, qb3 := quartiles(vb)
			g := gap(m, ma, mb)
			verdict := "within bound"
			switch {
			case g > m.Bound:
				verdict = "WORSE than bound"
				over = append(over, wl.Name+"/"+m.Name)
			case (qa3-qa1)/ma > m.Bound || (qb3-qb1)/mb > m.Bound:
				verdict = "unresolved: spread exceeds bound"
			}
			fmt.Fprintf(w, "%-13s %-15s %5s  %-34s %-34s %+7.1f%% %5.0f%%  %s\n", wl.Name, m.Name, m.Unit,
				summary(ma, qa1, qa3, len(va)), summary(mb, qb1, qb3, len(vb)), 100*g, 100*m.Bound, verdict)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("outside the bounds: %v", over)
	}
	return nil
}

func values(rs []*resultFile, name string) []float64 {
	var v []float64
	for _, r := range rs {
		if m, ok := r.Result.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

func summary(med, q1, q3 float64, n int) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d, %.1f%%)", med, q1, q3, n, 100*(q3-q1)/med)
}
