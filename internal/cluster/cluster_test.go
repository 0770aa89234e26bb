package cluster

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"factcheck/internal/text"
)

func TestEmbedderDeterministic(t *testing.T) {
	e1 := NewEmbedder("seed")
	e2 := NewEmbedder("seed")
	a := e1.Embed("some explanation text about geography")
	b := e2.Embed("some explanation text about geography")
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("embeddings differ at dim %d", i)
		}
	}
}

// denseProject is the retired dense projection of text.Embed, kept as the
// differential reference for the sparse one.
func denseProject(e *Embedder, s string) []float64 {
	tv := text.Embed(s)
	out := make([]float64, ReducedDim)
	var norm float64
	for i, row := range e.projection {
		var dot float64
		for j, w := range row {
			if w != 0 && tv[j] != 0 {
				dot += w * float64(tv[j])
			}
		}
		out[i] = dot
		norm += dot * dot
	}
	if norm > 0 {
		inv := 1 / math.Sqrt(norm)
		for i := range out {
			out[i] *= inv
		}
	}
	return out
}

func TestEmbedderMatchesDenseProjection(t *testing.T) {
	e := NewEmbedder("seed")
	for _, s := range []string{
		"",
		"the was of",
		"the stated place conflicts with the known location of the person",
		"Records of awards and identifiers for Entity 17 do not mention Award 3.",
		"repeated repeated repeated terms terms",
	} {
		if got, want := e.Embed(s), denseProject(e, s); !reflect.DeepEqual(got, want) {
			t.Errorf("Embed(%q) = %v, dense projection = %v", s, got, want)
		}
	}
}

func TestEmbedderNormalised(t *testing.T) {
	e := NewEmbedder("seed")
	v := e.Embed("the stated place conflicts with the known location")
	var norm float64
	for _, x := range v {
		norm += x * x
	}
	if math.Abs(norm-1) > 1e-9 {
		t.Errorf("norm^2 = %f, want 1", norm)
	}
	if len(v) != ReducedDim {
		t.Errorf("dim = %d, want %d", len(v), ReducedDim)
	}
}

func TestEmbedderSimilarTextsCloser(t *testing.T) {
	e := NewEmbedder("seed")
	a := e.Embed("the stated place conflicts with the known location of the person")
	b := e.Embed("geographic records associate the person with a different location")
	c := e.Embed("the genre classification does not include this category")
	if Euclidean(a, b) >= Euclidean(a, c) {
		t.Error("same-topic texts not closer than cross-topic texts")
	}
}

func TestEuclidean(t *testing.T) {
	a := []float64{0, 0, 0}
	b := []float64{3, 4, 0}
	if got := Euclidean(a, b); got != 5 {
		t.Errorf("Euclidean = %f, want 5", got)
	}
	if got := Euclidean(b, b); got != 0 {
		t.Errorf("self distance = %f, want 0", got)
	}
}

func TestEuclideanSymmetryProperty(t *testing.T) {
	f := func(xs, ys [4]float64) bool {
		a, b := xs[:], ys[:]
		for i := range a { // avoid inf/nan inputs
			if math.IsNaN(a[i]) || math.IsInf(a[i], 0) || math.IsNaN(b[i]) || math.IsInf(b[i], 0) {
				return true
			}
			a[i] = math.Mod(a[i], 100)
			b[i] = math.Mod(b[i], 100)
		}
		return math.Abs(Euclidean(a, b)-Euclidean(b, a)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDBSCANSeparatesClusters(t *testing.T) {
	// Two tight groups far apart plus one lone noise point.
	var pts [][]float64
	for i := 0; i < 5; i++ {
		pts = append(pts, []float64{0 + 0.01*float64(i), 0})
	}
	for i := 0; i < 5; i++ {
		pts = append(pts, []float64{10 + 0.01*float64(i), 10})
	}
	pts = append(pts, []float64{100, -100})

	labels := DBSCAN(pts, 0.5, 3)
	sizes, noise := Sizes(labels)
	if len(sizes) != 2 {
		t.Fatalf("found %d clusters, want 2 (sizes=%v)", len(sizes), sizes)
	}
	for id, n := range sizes {
		if n != 5 {
			t.Errorf("cluster %d size %d, want 5", id, n)
		}
	}
	if noise != 1 {
		t.Errorf("noise = %d, want 1", noise)
	}
	// Points in the same group share a label.
	for i := 1; i < 5; i++ {
		if labels[i] != labels[0] {
			t.Error("first group split")
		}
		if labels[5+i] != labels[5] {
			t.Error("second group split")
		}
	}
	if labels[0] == labels[5] {
		t.Error("distinct groups merged")
	}
}

func TestDBSCANAllNoise(t *testing.T) {
	pts := [][]float64{{0, 0}, {10, 10}, {20, 20}}
	labels := DBSCAN(pts, 0.5, 2)
	_, noise := Sizes(labels)
	if noise != 3 {
		t.Errorf("noise = %d, want 3", noise)
	}
}

func TestDBSCANDeterministic(t *testing.T) {
	pts := [][]float64{{0, 0}, {0.1, 0}, {0.2, 0}, {5, 5}, {5.1, 5}, {5.2, 5}}
	a := DBSCAN(pts, 0.3, 2)
	b := DBSCAN(pts, 0.3, 2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("DBSCAN not deterministic")
		}
	}
}

func TestDBSCANEmptyInput(t *testing.T) {
	if got := DBSCAN(nil, 1, 2); len(got) != 0 {
		t.Errorf("DBSCAN(nil) = %v", got)
	}
}

func TestDBSCANBorderAbsorption(t *testing.T) {
	// A chain where the middle point connects two dense regions: labels
	// must be dense, starting at 0.
	pts := [][]float64{{0}, {0.1}, {0.2}, {0.3}, {0.4}}
	labels := DBSCAN(pts, 0.15, 2)
	for _, l := range labels {
		if l != 0 {
			t.Fatalf("chain split: labels = %v", labels)
		}
	}
}

func TestTopTerms(t *testing.T) {
	texts := []string{
		"geography location country city",
		"location country geography",
		"genre classification music",
	}
	labels := []int{0, 0, 1}
	terms := TopTerms(texts, labels, 0, 2)
	if len(terms) != 2 {
		t.Fatalf("got %d terms", len(terms))
	}
	set := map[string]bool{terms[0]: true, terms[1]: true}
	if !set["geography"] || !set["location"] && !set["country"] {
		t.Errorf("top terms = %v", terms)
	}
	if got := TopTerms(texts, labels, 1, 10); len(got) != 3 {
		t.Errorf("cluster 1 terms = %v", got)
	}
}
