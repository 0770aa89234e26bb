package question

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"factcheck/internal/dataset"
	"factcheck/internal/world"
)

func facts(t *testing.T) []*dataset.Fact {
	t.Helper()
	w := world.New(world.SmallConfig())
	return dataset.Build(w, dataset.FactBench, 0.2).Facts
}

func TestGenerateDeterministic(t *testing.T) {
	fs := facts(t)
	a := Generate(fs[0], DefaultK)
	b := Generate(fs[0], DefaultK)
	if len(a) != len(b) {
		t.Fatalf("question counts differ")
	}
	for i := range a {
		if a[i].Text != b[i].Text {
			t.Fatalf("question %d differs", i)
		}
	}
}

func TestGenerateCountDistribution(t *testing.T) {
	fs := facts(t)
	minC, maxC := 1<<30, 0
	total := 0
	for _, f := range fs {
		n := len(Generate(f, DefaultK))
		total += n
		if n < minC {
			minC = n
		}
		if n > maxC {
			maxC = n
		}
	}
	if maxC != DefaultK {
		t.Errorf("max questions = %d, want %d", maxC, DefaultK)
	}
	if minC < 2 {
		t.Errorf("min questions = %d, want >= 2 (paper's floor)", minC)
	}
	avg := float64(total) / float64(len(fs))
	if avg < 9.0 || avg > 10.0 {
		t.Errorf("mean questions per fact = %.2f, want ~9.67", avg)
	}
}

func TestQuestionsMentionSubject(t *testing.T) {
	fs := facts(t)
	f := fs[0]
	mention := 0
	qs := Generate(f, DefaultK)
	for _, q := range qs {
		if strings.Contains(q.Text, f.Subject.Label) || strings.Contains(q.Text, f.Object.Label) {
			mention++
		}
	}
	if mention < len(qs)/2 {
		t.Errorf("only %d/%d questions mention the entities", mention, len(qs))
	}
}

func TestQuestionsDistinct(t *testing.T) {
	fs := facts(t)
	for _, f := range fs[:30] {
		seen := map[string]bool{}
		for _, q := range Generate(f, DefaultK) {
			if seen[q.Text] {
				t.Fatalf("fact %s has duplicate question %q", f.ID, q.Text)
			}
			seen[q.Text] = true
		}
	}
}

func TestGenerateDefaultK(t *testing.T) {
	fs := facts(t)
	if n := len(Generate(fs[1], 0)); n == 0 || n > DefaultK {
		t.Errorf("Generate with k=0 produced %d questions", n)
	}
}

func TestRelVerb(t *testing.T) {
	tests := []struct{ in, want string }{
		{"is married to", "married to"},
		{"was born in", "born in"},
		{"has the official language", "the official language"},
		{"plays for", "plays for"},
	}
	for _, tc := range tests {
		if got := relVerb(tc.in); got != tc.want {
			t.Errorf("relVerb(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	perFact := [][]Question{
		{{Text: "a", Score: 0.9}, {Text: "b", Score: 0.5}},
		{{Text: "c", Score: 0.3}},
	}
	st := Summarize(perFact)
	if st.Total != 3 {
		t.Errorf("Total = %d, want 3", st.Total)
	}
	if st.PerFactMin != 1 || st.PerFactMax != 2 {
		t.Errorf("min/max = %d/%d, want 1/2", st.PerFactMin, st.PerFactMax)
	}
	if st.PerFactAvg != 1.5 {
		t.Errorf("avg = %f, want 1.5", st.PerFactAvg)
	}
	wantMean := (0.9 + 0.5 + 0.3) / 3
	if diff := st.MeanScore - wantMean; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("mean score = %f, want %f", st.MeanScore, wantMean)
	}
	if st.MedianScore != 0.5 {
		t.Errorf("median = %f, want 0.5", st.MedianScore)
	}
	// Tiers: 0.9 high, 0.5 medium, 0.3 low.
	if st.HighTier == 0 || st.MediumTier == 0 || st.LowTier == 0 {
		t.Errorf("tiers = %f/%f/%f, want all non-zero", st.HighTier, st.MediumTier, st.LowTier)
	}
	sum := st.HighTier + st.MediumTier + st.LowTier
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("tier fractions sum to %f, want 1", sum)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	st := Summarize(nil)
	if st.Total != 0 || st.PerFactMin != 0 {
		t.Errorf("empty summary = %+v", st)
	}
}

// sortedMedian is the reference median: the middle of a fully sorted copy.
func sortedMedian(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

func TestMedianMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	samples := [][]float64{
		{0.5},
		{0.9, 0.1},
		{0.3, 0.7, 0.3},
		{0.4, 0.4, 0.4, 0.4},
		{0.8, 0.2, 0.8, 0.2, 0.5},
		{1, 0, 1, 0, 1, 0},
	}
	for _, n := range []int{7, 8, 101, 9000, 9001} {
		xs := make([]float64, n)
		for i := range xs {
			// Two decimals, as question scores round: many duplicates.
			xs[i] = float64(rng.Intn(101)) / 100
		}
		samples = append(samples, xs)
	}
	for _, xs := range samples {
		in := append([]float64(nil), xs...)
		if got, want := median(xs), sortedMedian(xs); got != want {
			t.Errorf("%d values: median %v, sorted reference %v", len(xs), got, want)
		}
		for i := range xs {
			if xs[i] != in[i] {
				t.Fatalf("%d values: median reordered its input", len(xs))
			}
		}
	}
}

func TestMedianEven(t *testing.T) {
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median = %f, want 2.5", got)
	}
}
