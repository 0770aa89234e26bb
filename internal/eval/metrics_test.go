package eval

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestConfusionBasics(t *testing.T) {
	var c Confusion
	c.Add(true, true, true)   // TP
	c.Add(true, false, true)  // FN
	c.Add(false, true, true)  // FP
	c.Add(false, false, true) // TN
	c.Add(true, false, false) // invalid on gold-true
	if c.TP != 1 || c.FN != 1 || c.FP != 1 || c.TN != 1 {
		t.Fatalf("confusion = %+v", c)
	}
	if c.Invalid() != 1 || c.InvalidTrue != 1 {
		t.Fatalf("invalid accounting wrong: %+v", c)
	}
	if c.Total() != 5 {
		t.Errorf("Total = %d, want 5", c.Total())
	}
	if got := c.PrecisionTrue(); got != 0.5 {
		t.Errorf("PrecisionTrue = %f, want 0.5", got)
	}
	// Recall(T) = TP / (TP + FN + invalidTrue) = 1/3.
	if got := c.RecallTrue(); math.Abs(got-1.0/3) > 1e-9 {
		t.Errorf("RecallTrue = %f, want 1/3", got)
	}
	if got := c.Accuracy(); got != 0.4 {
		t.Errorf("Accuracy = %f, want 0.4", got)
	}
}

func TestF1HandComputed(t *testing.T) {
	// 80 TP, 20 FN, 30 FP, 70 TN.
	c := Confusion{TP: 80, FN: 20, FP: 30, TN: 70}
	pT, rT := 80.0/110, 80.0/100
	wantT := 2 * pT * rT / (pT + rT)
	if got := c.F1True(); math.Abs(got-wantT) > 1e-9 {
		t.Errorf("F1True = %f, want %f", got, wantT)
	}
	pF, rF := 70.0/90, 70.0/100
	wantF := 2 * pF * rF / (pF + rF)
	if got := c.F1False(); math.Abs(got-wantF) > 1e-9 {
		t.Errorf("F1False = %f, want %f", got, wantF)
	}
	if c.F1(true) != c.F1True() || c.F1(false) != c.F1False() {
		t.Error("F1(class) accessor inconsistent")
	}
}

func TestF1EdgeCases(t *testing.T) {
	var empty Confusion
	if empty.F1True() != 0 || empty.F1False() != 0 {
		t.Error("empty confusion F1 not 0")
	}
	perfect := Confusion{TP: 10, TN: 10}
	if perfect.F1True() != 1 || perfect.F1False() != 1 {
		t.Error("perfect predictions F1 not 1")
	}
}

func TestF1RangeProperty(t *testing.T) {
	f := func(tp, fp, tn, fn uint8) bool {
		c := Confusion{TP: int(tp), FP: int(fp), TN: int(tn), FN: int(fn)}
		t1, t2 := c.F1True(), c.F1False()
		return t1 >= 0 && t1 <= 1 && t2 >= 0 && t2 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConfusionFrom(t *testing.T) {
	preds := []Prediction{
		{Gold: true, Pred: true, Valid: true},
		{Gold: false, Pred: false, Valid: true},
		{Gold: false, Pred: true, Valid: true},
		{Gold: true, Pred: false, Valid: false},
	}
	c := ConfusionFrom(preds)
	if c.TP != 1 || c.TN != 1 || c.FP != 1 || c.InvalidTrue != 1 {
		t.Errorf("ConfusionFrom = %+v", c)
	}
}

func TestConsensusAlignment(t *testing.T) {
	model := []bool{true, false, true, true}
	maj := []bool{true, true, true, false}
	if got := ConsensusAlignment(model, maj); got != 0.5 {
		t.Errorf("CA = %f, want 0.5", got)
	}
	if got := ConsensusAlignment(nil, nil); got != 0 {
		t.Errorf("CA(empty) = %f, want 0", got)
	}
	if got := ConsensusAlignment([]bool{true}, []bool{true, false}); got != 0 {
		t.Errorf("CA(mismatched) = %f, want 0", got)
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	if got := Percentile(sorted, 50); got != 3 {
		t.Errorf("P50 = %f, want 3", got)
	}
	if got := Percentile(sorted, 0); got != 1 {
		t.Errorf("P0 = %f, want 1", got)
	}
	if got := Percentile(sorted, 100); got != 5 {
		t.Errorf("P100 = %f, want 5", got)
	}
	if got := Percentile(sorted, 25); got != 2 {
		t.Errorf("P25 = %f, want 2", got)
	}
	if got := Percentile([]float64{7}, 50); got != 7 {
		t.Errorf("P50 single = %f, want 7", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("P50 of empty not NaN")
	}
}

func TestIQRFilterRemovesOutliers(t *testing.T) {
	xs := []float64{1, 1.1, 0.9, 1.2, 1.0, 0.95, 1.05, 50}
	out := IQRFilter(xs)
	for _, x := range out {
		if x == 50 {
			t.Fatal("outlier survived IQR filter")
		}
	}
	if len(out) != len(xs)-1 {
		t.Errorf("filtered %d values, want 1", len(xs)-len(out))
	}
}

func TestIQRFilterSmallSamples(t *testing.T) {
	xs := []float64{5, 500, 2}
	out := IQRFilter(xs)
	if len(out) != 3 {
		t.Error("small samples must pass through unfiltered")
	}
}

func TestIQRFilterPreservesCleanData(t *testing.T) {
	f := func(seed uint8) bool {
		var xs []float64
		for i := 0; i < 30; i++ {
			xs = append(xs, 1+0.01*float64((int(seed)+i*7)%13))
		}
		return len(IQRFilter(xs)) == len(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// sortIQRFilter is the retired IQRFilter: it sorts a copy of the sample to
// read its quartiles. It is the reference for the selecting one.
func sortIQRFilter(xs []float64) []float64 {
	if len(xs) < 4 {
		return append([]float64(nil), xs...)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	q1 := Percentile(sorted, 25)
	q3 := Percentile(sorted, 75)
	iqr := q3 - q1
	lo, hi := q1-1.5*iqr, q3+1.5*iqr
	var out []float64
	for _, x := range xs {
		if x >= lo && x <= hi {
			out = append(out, x)
		}
	}
	return out
}

// iqrAlphabet holds the sample values the fuzzer draws from: duplicates
// are common, and NaN, ±Inf, ±0 and an outlier are all in reach.
var iqrAlphabet = [16]float64{
	0, math.Copysign(0, -1), 1, 1, 1.5, 2, 2.25, 3, 0.001, -4, 1e6, -1e300,
	math.NaN(), math.Inf(1), math.Inf(-1), 0.1,
}

// FuzzIQRFilterMatchesSort pins the selecting IQRFilter to the sorting
// one: the same values, bit for bit, in the same order.
func FuzzIQRFilterMatchesSort(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 3, 4})
	f.Add([]byte{2, 2, 2, 2})
	f.Add([]byte{2, 3, 4, 5, 6, 7, 10})
	f.Add([]byte{12, 2, 3, 4, 5, 6})
	f.Add([]byte{13, 14, 2, 3, 4, 5, 6, 13})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0, 1, 9, 8})
	f.Add([]byte("a longer sample with many duplicate values and a few outliers"))
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := make([]float64, len(data))
		for i, b := range data {
			xs[i] = iqrAlphabet[b%16]
			if b >= 16 {
				xs[i] += float64(b) / 64 // a spread of distinct values
			}
		}
		in := append([]float64(nil), xs...)
		got, want := IQRFilter(xs), sortIQRFilter(xs)
		if (got == nil) != (want == nil) || len(got) != len(want) {
			t.Fatalf("%v: got %v, want %v", xs, got, want)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%v: got %v, want %v", xs, got, want)
			}
		}
		for i := range xs {
			if math.Float64bits(xs[i]) != math.Float64bits(in[i]) {
				t.Fatalf("IQRFilter changed its input: %v, was %v", xs, in)
			}
		}
	})
}

// TestIQRFilterMatchesSortOnLatencies checks latency-like samples, long
// right tails included, of every length up to 64 and of 9,000 values.
func TestIQRFilterMatchesSortOnLatencies(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lengths := []int{9000}
	for n := 0; n <= 64; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = 0.2 + rng.ExpFloat64()/10
			if rng.Intn(4) == 0 {
				xs[i] = math.Round(xs[i]*100) / 100 // ties
			}
		}
		got, want := IQRFilter(xs), sortIQRFilter(xs)
		if len(got) != len(want) {
			t.Fatalf("%d values: %d kept, want %d", n, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%d values: value %d is %v, want %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestMeanResponseTime(t *testing.T) {
	ds := []time.Duration{
		100 * time.Millisecond, 110 * time.Millisecond, 105 * time.Millisecond,
		95 * time.Millisecond, 102 * time.Millisecond, 98 * time.Millisecond,
		10 * time.Second, // outlier, removed by IQR
	}
	got := MeanResponseTime(ds)
	if got < 0.09 || got > 0.12 {
		t.Errorf("theta-bar = %f, want ~0.10", got)
	}
	if MeanResponseTime(nil) != 0 {
		t.Error("empty input not 0")
	}
}

// TestMeanResponseTimeMatchesFilteredMean pins θ̄'s one-scratch-slice path
// to Mean(IQRFilter(xs)) bit for bit: over every sample of up to 5 values
// drawn from iqrAlphabet (NaN, ±Inf and ±0 included), over longer drawn
// samples, and through MeanResponseTime over latency-like durations of
// every length up to 64. A NaN mean must be NaN on both sides; its payload
// bits depend on which operand the compiler makes an addition's
// destination (they differ under -race), so they are not compared.
func TestMeanResponseTimeMatchesFilteredMean(t *testing.T) {
	check := func(xs []float64) {
		t.Helper()
		got := filteredMean(len(xs), func(i int) float64 { return xs[i] })
		want := Mean(IQRFilter(xs))
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("%v: filtered mean %v, Mean(IQRFilter) %v", xs, got, want)
		}
	}
	var draw func(prefix []float64, n int)
	draw = func(prefix []float64, n int) {
		check(prefix)
		if n == 0 {
			return
		}
		for _, x := range iqrAlphabet {
			draw(append(prefix, x), n-1)
		}
	}
	draw(nil, 5)
	rng := rand.New(rand.NewSource(58))
	for trial := 0; trial < 200; trial++ {
		xs := make([]float64, 6+rng.Intn(60))
		for i := range xs {
			xs[i] = iqrAlphabet[rng.Intn(len(iqrAlphabet))] + float64(rng.Intn(4))/64
		}
		check(xs)
	}
	for n := 0; n <= 64; n++ {
		ds := make([]time.Duration, n)
		secs := make([]float64, n)
		for i := range ds {
			ds[i] = time.Duration(50+rng.Intn(100)) * time.Millisecond
			if rng.Intn(10) == 0 {
				ds[i] *= time.Duration(5 + rng.Intn(50)) // a long right tail
			}
			secs[i] = ds[i].Seconds()
		}
		got, want := MeanResponseTime(ds), Mean(IQRFilter(secs))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%v: MeanResponseTime %v, Mean(IQRFilter) %v", ds, got, want)
		}
	}
}

func TestMeanAndStddev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %f, want 5", got)
	}
	if got := Stddev(xs); math.Abs(got-2) > 1e-9 {
		t.Errorf("Stddev = %f, want 2", got)
	}
	if Mean(nil) != 0 || Stddev(nil) != 0 {
		t.Error("empty stats not 0")
	}
}

func TestParetoFrontier(t *testing.T) {
	pts := []ParetoPoint{
		{Label: "fast-weak", Cost: 0.2, Score: 0.5},
		{Label: "slow-strong", Cost: 2.5, Score: 0.9},
		{Label: "mid", Cost: 0.8, Score: 0.75},
		{Label: "dominated", Cost: 1.0, Score: 0.6}, // dominated by mid
		{Label: "also-dominated", Cost: 3.0, Score: 0.85},
	}
	front := ParetoFrontier(pts)
	want := map[string]bool{"fast-weak": true, "mid": true, "slow-strong": true}
	if len(front) != len(want) {
		t.Fatalf("frontier size %d, want %d: %v", len(front), len(want), front)
	}
	for i, p := range front {
		if !want[p.Label] {
			t.Errorf("unexpected frontier member %s", p.Label)
		}
		if i > 0 && front[i].Cost < front[i-1].Cost {
			t.Error("frontier not sorted by cost")
		}
	}
}

func TestParetoFrontierProperty(t *testing.T) {
	// No frontier point may dominate another frontier point.
	f := func(seeds []uint8) bool {
		if len(seeds) < 2 {
			return true
		}
		var pts []ParetoPoint
		for i, s := range seeds {
			pts = append(pts, ParetoPoint{
				Label: string(rune('a' + i%26)),
				Cost:  float64(s%17) / 4,
				Score: float64(s%23) / 23,
			})
		}
		front := ParetoFrontier(pts)
		for i, p := range front {
			for j, q := range front {
				if i != j && q.Cost <= p.Cost && q.Score >= p.Score &&
					(q.Cost < p.Cost || q.Score > p.Score) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGuessRate(t *testing.T) {
	// The paper's baselines: mu=0.80 with q=0.5 gives F1(T)~0.62,
	// and the false class (prevalence 0.20) gives ~0.29.
	if got := GuessRate(0.80, 0.5); math.Abs(got-0.615) > 0.01 {
		t.Errorf("GuessRate(T) = %f, want ~0.62", got)
	}
	if got := GuessRate(0.20, 0.5); math.Abs(got-0.286) > 0.01 {
		t.Errorf("GuessRate(F) = %f, want ~0.29", got)
	}
	if GuessRate(0, 0) != 0 {
		t.Error("degenerate guess rate not 0")
	}
}
