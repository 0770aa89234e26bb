package main

import (
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestNearestRankCountsFailuresAsInfinite(t *testing.T) {
	var ok []float64
	for i := 1; i <= 100; i++ {
		ok = append(ok, float64(i))
	}
	if got := nearestRank(ok, 0.5); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := nearestRank(ok, 0.99); got != 99 {
		t.Errorf("p99 = %v, want 99", got)
	}
	// Two failures among 100 requests: the 99th-ranked sample is one.
	failed := append(append([]float64(nil), ok[:98]...), math.Inf(1), math.Inf(1))
	slices.Sort(failed)
	if got := nearestRank(failed, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with 2%% failures = %v, want +Inf", got)
	}
	if got := nearestRank(failed, 0.98); got != 98 {
		t.Errorf("p98 with 2%% failures = %v, want 98", got)
	}
	if got := nearestRank(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("p50 of nothing = %v, want NaN", got)
	}
	if got := nearestRank([]float64{7}, 0.999); got != 7 {
		t.Errorf("p99.9 of one sample = %v, want 7", got)
	}
}

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95},
		{1000, 99}, {9999, 99}, {10_000, 99.9}, {100_000, 99.99}, {400_000, 99.99}, {10_000_000, 99.999},
	} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// TestFailedRequestsFailTheRun feeds failed requests through the latency
// metrics and the run's final check: more than 1% of failures make p99
// infinite, and any failure at all, even one too few to move p99, fails
// the run.
func TestFailedRequestsFailTheRun(t *testing.T) {
	want := []metricSpec{{Name: "p50_ms", Unit: "ms"}, {Name: "p99_ms", Unit: "ms"}}
	for _, c := range []struct {
		failed  int
		infP99  bool
		wantErr bool
	}{{0, false, false}, {1, false, true}, {20, true, true}} {
		var lat []float64
		for i := 1; i <= 1000-c.failed; i++ {
			lat = append(lat, float64(i)/100)
		}
		for i := 0; i < c.failed; i++ {
			lat = append(lat, math.Inf(1))
		}
		res := &result{Metrics: metricSet{}, Info: map[string]any{}, Attempted: 1000, Failed: int64(c.failed)}
		latencyMetrics(res, lat)
		if got := math.IsInf(res.Metrics["p99_ms"].Value, 1); got != c.infP99 {
			t.Errorf("%d failed: p99 = %v", c.failed, res.Metrics["p99_ms"].Value)
		}
		if err := checkResult(res, want); (err != nil) != c.wantErr {
			t.Errorf("%d failed: checkResult = %v", c.failed, err)
		}
	}
}

// TestCompareRejectsFailedRuns: a result file recording failures is not a
// measurement, so -compare refuses the directory that holds it.
func TestCompareRejectsFailedRuns(t *testing.T) {
	dir := t.TempDir()
	res := &result{Correct: true, Attempted: 10, Failed: 1, Metrics: metricSet{}}
	if err := writeResultFile(filepath.Join(dir, "r.json"), options{workload: "serve-hot", seed: 1}, env{}, res); err != nil {
		t.Fatal(err)
	}
	if _, err := loadResults(dir); err == nil || !strings.Contains(err.Error(), "failed operations") {
		t.Fatalf("loadResults = %v", err)
	}
}

// TestQuartilesMatchPython pins quartiles against Python's
// statistics.quantiles(values, n=4), the rule the spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 4, 3, 2, 1}, 1.5, 3, 4.5},
		{[]float64{3.5, 1.25}, 0.6875, 2.375, 4.0625},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, 30, 60, 90},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, m, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(m-c.m) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, m, q3, c.q1, c.m, c.q3)
		}
		if got := median(c.in); got != c.m {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.m)
		}
	}
	if _, m, _ := quartiles(nil); !math.IsNaN(m) {
		t.Errorf("median of nothing = %v, want NaN", m)
	}
}
