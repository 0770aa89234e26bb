// Package eval implements the benchmark's performance metrics (paper §4.3):
// class-wise F1 scores for the True and False labels, Consensus Alignment
// (CA_M), IQR-filtered mean response time, and the Pareto-frontier analysis
// of the cost/effectiveness trade-off (Figure 3).
package eval

import (
	"math"
	"sort"
	"time"
)

// Confusion is a binary confusion matrix with extra buckets for invalid
// (format-failing) responses, split by gold class. Invalid responses count
// against recall of their gold class but are never predictions of either
// class.
type Confusion struct {
	TP, FP, TN, FN            int
	InvalidTrue, InvalidFalse int
}

// Add records one prediction. pred is meaningful only when valid.
func (c *Confusion) Add(gold bool, pred bool, valid bool) {
	if !valid {
		if gold {
			c.InvalidTrue++
		} else {
			c.InvalidFalse++
		}
		return
	}
	switch {
	case gold && pred:
		c.TP++
	case gold && !pred:
		c.FN++
	case !gold && pred:
		c.FP++
	default:
		c.TN++
	}
}

// Invalid returns the total count of invalid responses.
func (c Confusion) Invalid() int { return c.InvalidTrue + c.InvalidFalse }

// Total returns the number of recorded predictions including invalid ones.
func (c Confusion) Total() int {
	return c.TP + c.FP + c.TN + c.FN + c.Invalid()
}

// PrecisionTrue returns precision of the "True" class.
func (c Confusion) PrecisionTrue() float64 { return ratio(c.TP, c.TP+c.FP) }

// RecallTrue returns recall of the "True" class; invalid responses on
// gold-true facts are missed positives.
func (c Confusion) RecallTrue() float64 {
	return ratio(c.TP, c.TP+c.FN+c.InvalidTrue)
}

// PrecisionFalse returns precision of the "False" class.
func (c Confusion) PrecisionFalse() float64 { return ratio(c.TN, c.TN+c.FN) }

// RecallFalse returns recall of the "False" class.
func (c Confusion) RecallFalse() float64 {
	return ratio(c.TN, c.TN+c.FP+c.InvalidFalse)
}

// F1True returns the F1 score of the "True" class (paper's F1(T)).
func (c Confusion) F1True() float64 {
	return f1(c.PrecisionTrue(), c.RecallTrue())
}

// F1False returns the F1 score of the "False" class (paper's F1(F)).
func (c Confusion) F1False() float64 {
	return f1(c.PrecisionFalse(), c.RecallFalse())
}

// Accuracy returns plain accuracy over valid and invalid responses.
func (c Confusion) Accuracy() float64 {
	return ratio(c.TP+c.TN, c.Total())
}

// F1 returns the class-wise F1 for class c ∈ {true, false}, matching the
// paper's F1(c) notation.
func (c Confusion) F1(class bool) float64 {
	if class {
		return c.F1True()
	}
	return c.F1False()
}

func f1(p, r float64) float64 {
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Prediction is the minimal view of one model response used by the metric
// computations.
type Prediction struct {
	Gold  bool
	Pred  bool
	Valid bool
}

// ConfusionFrom aggregates predictions into a confusion matrix.
func ConfusionFrom(preds []Prediction) Confusion {
	var c Confusion
	for _, p := range preds {
		c.Add(p.Gold, p.Pred, p.Valid)
	}
	return c
}

// ConsensusAlignment computes CA_M (paper §4.3): the fraction of facts on
// which a model's prediction equals the majority vote. Both slices must be
// index-aligned.
func ConsensusAlignment(model []bool, majority []bool) float64 {
	if len(model) == 0 || len(model) != len(majority) {
		return 0
	}
	agree := 0
	for i := range model {
		if model[i] == majority[i] {
			agree++
		}
	}
	return float64(agree) / float64(len(model))
}

// IQRFilter removes outliers outside [Q1-1.5*IQR, Q3+1.5*IQR], returning
// the filtered sample in input order (paper §4.3 response-time protocol).
// The quartiles are Percentile's on the sample sorted as sort.Float64s
// sorts it; each order statistic they read is selected, not sorted for.
func IQRFilter(xs []float64) []float64 {
	if len(xs) < 4 {
		return append([]float64(nil), xs...)
	}
	buf := append([]float64(nil), xs...)
	lo, hi := iqrFences(buf)
	out := buf[:0]
	for _, x := range xs {
		if x >= lo && x <= hi {
			out = append(out, x)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// iqrFences returns the IQR filter's bounds [Q1-1.5*IQR, Q3+1.5*IQR] for
// a sample of at least 4 values, selecting the quartiles' order statistics
// in buf, which it reorders.
func iqrFences(buf []float64) (lo, hi float64) {
	// at(k) is the sorted sample's k-th value.
	at := func(k int) float64 {
		selectNth(buf, k)
		return buf[k]
	}
	q1, q3 := percentile(len(buf), 25, at), percentile(len(buf), 75, at)
	iqr := q3 - q1
	return q1 - 1.5*iqr, q3 + 1.5*iqr
}

// selectNth reorders xs so that xs[k] holds the value sort.Float64s would
// put there: no value before it sorts later and none after it sorts
// earlier (Hoare's FIND).
func selectNth(xs []float64, k int) {
	// less is sort.Float64s's order: NaN before every other value.
	less := func(a, b float64) bool { return a < b || a != a && b == b }
	lo, hi := 0, len(xs)-1
	for lo < hi {
		pivot := xs[k]
		i, j := lo, hi
		for i <= j {
			for less(xs[i], pivot) {
				i++
			}
			for less(pivot, xs[j]) {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		if j < k {
			lo = i
		}
		if k < i {
			hi = j
		}
	}
}

// Percentile computes the p-th percentile (0-100) of a *sorted* sample by
// linear interpolation.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return percentile(len(sorted), p, func(k int) float64 { return sorted[k] })
}

// percentile interpolates the p-th percentile of n > 0 values whose k-th
// smallest is at(k), reading the lower order statistic first.
func percentile(n int, p float64, at func(int) float64) float64 {
	if n == 1 {
		return at(0)
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return at(lo)
	}
	frac := rank - float64(lo)
	return at(lo)*(1-frac) + at(hi)*frac
}

// MeanResponseTime returns the IQR-filtered mean of the durations in
// seconds (the paper's θ̄), bit-identical to Mean(IQRFilter(seconds)).
func MeanResponseTime(ds []time.Duration) float64 {
	return filteredMean(len(ds), func(i int) float64 { return ds[i].Seconds() })
}

// filteredMean returns Mean(IQRFilter(xs)) for the n values x(0), ...,
// x(n-1), bit for bit, with one scratch slice: the quartiles are selected
// in it, then the kept values are summed in input order, as Mean sums
// IQRFilter's output.
func filteredMean(n int, x func(i int) float64) float64 {
	var lo, hi float64
	if n >= 4 {
		buf := make([]float64, n)
		for i := range buf {
			buf[i] = x(i)
		}
		lo, hi = iqrFences(buf)
	}
	s, kept := 0.0, 0
	for i := 0; i < n; i++ {
		// Samples shorter than 4 keep every value, NaN included.
		if v := x(i); n < 4 || v >= lo && v <= hi {
			s += v
			kept++
		}
	}
	if kept == 0 {
		return 0
	}
	return s / float64(kept)
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Stddev returns the population standard deviation.
func Stddev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	v := 0.0
	for _, x := range xs {
		v += (x - m) * (x - m)
	}
	return math.Sqrt(v / float64(len(xs)))
}

// ParetoPoint is one configuration in the cost/effectiveness plane of the
// paper's Figure 3.
type ParetoPoint struct {
	Label string
	// Cost is θ̄ in seconds (lower is better).
	Cost float64
	// Score is the effectiveness metric, e.g. F1(F) (higher is better).
	Score float64
}

// ParetoFrontier returns the subset of points not dominated by any other
// point (a point dominates another when it is no slower and no worse, and
// strictly better in at least one dimension), sorted by ascending cost.
func ParetoFrontier(points []ParetoPoint) []ParetoPoint {
	var out []ParetoPoint
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i == j {
				continue
			}
			if q.Cost <= p.Cost && q.Score >= p.Score &&
				(q.Cost < p.Cost || q.Score > p.Score) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cost != out[j].Cost {
			return out[i].Cost < out[j].Cost
		}
		return out[i].Score > out[j].Score
	})
	return out
}

// GuessRate returns the expected F1 of random guessing for a class with
// prevalence mu, guessing "true" with probability q (Figure 2's red line
// uses q = 0.5... the paper's guess rate reflects the class distribution).
// For class T with prevalence mu: precision = mu, recall = q.
func GuessRate(mu, q float64) float64 {
	return f1(mu, q)
}
