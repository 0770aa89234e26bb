package cluster

import (
	"fmt"
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

// referenceDBSCAN is the retired DBSCAN: one math.Sqrt distance per pair,
// and a queue that takes every neighbour of every core point, visited or
// not. It is the differential oracle for the production kernel.
func referenceDBSCAN(points [][]float64, eps float64, minPts int) []int {
	n := len(points)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = Noise
	}
	visited := make([]bool, n)
	cluster := 0
	neighbors := func(i int) []int {
		var out []int
		for j := 0; j < n; j++ {
			if j != i && Euclidean(points[i], points[j]) <= eps {
				out = append(out, j)
			}
		}
		return out
	}
	for i := 0; i < n; i++ {
		if visited[i] {
			continue
		}
		visited[i] = true
		nb := neighbors(i)
		if len(nb)+1 < minPts {
			continue
		}
		labels[i] = cluster
		queue := append([]int(nil), nb...)
		for k := 0; k < len(queue); k++ {
			j := queue[k]
			if labels[j] == Noise {
				labels[j] = cluster
			}
			if visited[j] {
				continue
			}
			visited[j] = true
			labels[j] = cluster
			nb2 := neighbors(j)
			if len(nb2)+1 >= minPts {
				queue = append(queue, nb2...)
			}
		}
		cluster++
	}
	return labels
}

// TestSquaredThresholdMatchesSqrt checks the squared-distance bound on
// every non-negative s within 64 ulps of eps², for thresholds at zero, at
// the error study's eps, and at both ends of the exponent range (where
// eps² underflows to 0 or overflows to +Inf).
func TestSquaredThresholdMatchesSqrt(t *testing.T) {
	for _, eps := range []float64{0, 0.55, 1e-300, 1e300} {
		thr := sqThreshold(eps)
		if thr < 0 || math.Sqrt(thr) > eps {
			t.Fatalf("eps %g: threshold %g is not admitted", eps, thr)
		}
		center := math.Float64bits(eps * eps)
		for d := int64(-64); d <= 64; d++ {
			bits := int64(center) + d
			if bits < 0 {
				continue
			}
			s := math.Float64frombits(uint64(bits))
			if math.IsNaN(s) {
				continue
			}
			if got, want := s <= thr, math.Sqrt(s) <= eps; got != want {
				t.Errorf("eps %g, s %g (%+d ulps of eps²): s <= threshold is %v, sqrt(s) <= eps is %v",
					eps, s, d, got, want)
			}
		}
	}
	for _, eps := range []float64{-1, math.NaN()} {
		if thr := sqThreshold(eps); 0 <= thr {
			t.Errorf("eps %g: threshold %g admits s = 0", eps, thr)
		}
	}
	if thr := sqThreshold(math.Inf(1)); !math.IsInf(thr, 1) {
		t.Errorf("eps +Inf: threshold %g, want +Inf", thr)
	}
}

// fuzzPoints decodes fuzz bytes into dim-dimensional points whose
// coordinates come from a small alphabet built around eps: duplicates are
// common, and many pairs lie exactly eps (or eps/2, 2·eps) apart along an
// axis, where rounding decides the neighbourhood test.
func fuzzPoints(data []byte, dim int, eps float64) [][]float64 {
	alphabet := [8]float64{0, eps, -eps, 2 * eps, eps / 2, 0.3, 0.1, 0.7}
	n := len(data) / dim
	if n > 70 {
		n = 70
	}
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, dim)
		for k := range p {
			p[k] = alphabet[data[i*dim+k]%8]
		}
		pts[i] = p
	}
	return pts
}

// FuzzDBSCANMatchesReference pins the production kernel's labels to the
// retired sqrt-per-pair DBSCAN on arbitrary point sets.
func FuzzDBSCANMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 3, 4, 0, 1, 5, 6, 7}, uint8(1), uint8(0), uint8(2))
	f.Add([]byte{0, 0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3}, uint8(0), uint8(1), uint8(3))
	f.Add([]byte("duplicate points and exact eps pairs, n%4 != 0"), uint8(2), uint8(2), uint8(1))
	f.Add([]byte{7, 7, 7, 7, 7, 6, 5, 4, 3, 2, 1, 0, 0, 0, 1}, uint8(3), uint8(3), uint8(4))
	// Points whose squared distance exceeds eps*eps while its square root
	// still rounds to eps: a plain d² <= eps² test drops these neighbours.
	f.Add([]byte("000701011001&%&10007"), uint8(3), uint8(0), uint8(4))
	epsilons := []float64{0.55, 0, 0.1, 0.3, 1, 1e-300}
	f.Fuzz(func(t *testing.T, data []byte, dimSel, epsSel, minSel uint8) {
		dim := 1 + int(dimSel)%4
		eps := epsilons[int(epsSel)%len(epsilons)]
		minPts := 1 + int(minSel)%5
		pts := fuzzPoints(data, dim, eps)
		got := DBSCAN(pts, eps, minPts)
		want := referenceDBSCAN(pts, eps, minPts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("dim %d eps %g minPts %d, %d points:\n got  %v\n want %v", dim, eps, minPts, len(pts), got, want)
		}
	})
}

// errorStudyPoints embeds n short explanations drawn from a few templates,
// as the error study's inputs look: dense clusters of near-duplicates.
func errorStudyPoints(n int) [][]float64 {
	emb := NewEmbedder("error-analysis")
	templates := []string{
		"the entity %d is not located in that country",
		"no evidence found for claim %d in the retrieved documents",
		"the genre of work %d differs from the stated one",
		"date mismatch: record %d was born in another year",
		"ambiguous subject %d with several candidates",
	}
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = emb.Embed(fmt.Sprintf(templates[i%len(templates)], i%37))
	}
	return pts
}

func TestDBSCANMatchesReferenceOnEmbeddings(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 103, 401} {
		pts := errorStudyPoints(n)
		for _, minPts := range []int{1, 3, 6} {
			if got, want := DBSCAN(pts, 0.55, minPts), referenceDBSCAN(pts, 0.55, minPts); !reflect.DeepEqual(got, want) {
				t.Fatalf("n %d minPts %d: labels differ from the reference", n, minPts)
			}
		}
	}
}

// TestDBSCANDenseNeighbourhoods pins the neighbour lists' worst case,
// every point a neighbour of every other: 2,000 identical points, and
// 2,000 distinct points all within eps of each other.
func TestDBSCANDenseNeighbourhoods(t *testing.T) {
	const n = 2000
	same := make([][]float64, n)
	near := make([][]float64, n)
	for i := range same {
		same[i] = []float64{0.25, -0.5, 0.75}
		// Spread along a diagonal of length 0.5 < eps.
		d := 0.5 / math.Sqrt(3) * float64(i) / n
		near[i] = []float64{0.25 + d, -0.5 + d, 0.75 + d}
	}
	for name, pts := range map[string][][]float64{"identical": same, "within eps": near} {
		for _, minPts := range []int{3, n, n + 1} {
			got, want := DBSCAN(pts, 0.55, minPts), referenceDBSCAN(pts, 0.55, minPts)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, minPts %d: labels differ from the reference", name, minPts)
			}
		}
	}
}

func TestDBSCANZeroDimension(t *testing.T) {
	pts := [][]float64{{}, {}, {}}
	if got, want := DBSCAN(pts, 0, 2), referenceDBSCAN(pts, 0, 2); !reflect.DeepEqual(got, want) {
		t.Fatalf("labels %v, want %v", got, want)
	}
}

func benchmarkDBSCAN(b *testing.B, fn func([][]float64, float64, int) []int) {
	pts := errorStudyPoints(2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(pts, 0.55, 3)
	}
}

func BenchmarkDBSCAN(b *testing.B)          { benchmarkDBSCAN(b, DBSCAN) }
func BenchmarkDBSCANReference(b *testing.B) { benchmarkDBSCAN(b, referenceDBSCAN) }
