package index

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"factcheck/internal/det"
	"factcheck/internal/text"
)

// The TopKPruned names below are those of the block-max pruned kernel
// that TopK replaced; the properties they pin — byte equality with the
// exhaustive references over every corpus shape — carry over to TopK.

// topKEqualSparse asserts that TopK's set, ranked, equals the sparse
// reference byte for byte (DeepEqual covers Row and the float64 Score
// bits).
func topKEqualSparse(t *testing.T, ix *Index, docs []text.SparseVector, rows []int32, q text.SparseVector, k int, perturb func(int) float64, cmp func(a, b int) int, label string) {
	t.Helper()
	want := sparseTopK(q, docs, rows, k, perturb, cmp)
	got := ranked(t, ix.TopK(q, k, rows, perturb, cmp, nil, nil), cmp)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: TopK != sparse\nTopK:   %v\nsparse: %v", label, got, want)
	}
}

// indexTokens builds an index over the documents' token lists and returns
// it with their sparse vectors.
func indexTokens(docs [][]string) (*Index, []text.SparseVector) {
	b := NewBuilder(len(docs))
	vecs := make([]text.SparseVector, len(docs))
	for i, d := range docs {
		vecs[i] = text.SparseEmbedTokens(d)
		b.AddVec(vecs[i])
	}
	return b.Build(), vecs
}

// TestTopKPrunedMatchesSparse sweeps queries, k values, perturbations and
// row layouts over a mixed fixture: every combination must be
// byte-identical to the exhaustive per-row reference.
func TestTopKPrunedMatchesSparse(t *testing.T) {
	var toks [][]string
	for _, d := range []string{
		"alpha beta gamma delta",
		"alpha alpha beta",
		"gamma delta epsilon zeta",
		"unrelated filler content entirely",
		"alpha beta gamma delta epsilon zeta eta theta",
		"",
		"beta beta beta gamma",
		"zeta eta theta iota",
		"alpha epsilon iota",
		"delta delta gamma",
	} {
		toks = append(toks, text.ContentTokens(d))
	}
	ix, vecs := indexTokens(toks)
	queries := []string{"alpha beta", "epsilon zeta eta", "nothing matches here", "", "delta", "alpha beta gamma delta epsilon"}
	perturbs := []func(int) float64{
		nil,
		func(r int) float64 { return 0.05 * det.Uniform("serp", "q", fmt.Sprint(r)) },
	}
	layouts := [][]int32{identityRows(len(toks)), sharedRows(len(toks)), {3, 3, 3}, {}}
	for li, rows := range layouts {
		ids := make([]string, len(rows))
		for r := range ids {
			ids[r] = fmt.Sprintf("f-d%04d", (len(rows)-r)*3%(len(rows)+1))
		}
		for _, q := range queries {
			for pi, p := range perturbs {
				for _, k := range []int{0, 1, 3, 6, len(rows), 99} {
					label := fmt.Sprintf("layout=%d q=%q perturb=%d k=%d", li, q, pi, k)
					topKEqualSparse(t, ix, vecs, rows, text.SparseEmbed(q), k, p, nil, label)
					topKEqualSparse(t, ix, vecs, rows, text.SparseEmbed(q), k, p, idCmp(ids), label+" by ID")
				}
			}
		}
	}
}

// randomCorpus draws n documents of up to maxWords words from vocab and
// rows rows over them.
func randomCorpus(next func(n int) int, vocab []string, n, maxWords, rows int) ([][]string, []int32) {
	docs := make([][]string, n)
	for i := range docs {
		for w := next(maxWords + 1); w > 0; w-- {
			docs[i] = append(docs[i], vocab[next(len(vocab))])
		}
	}
	rowDoc := make([]int32, rows)
	for r := range rowDoc {
		rowDoc[r] = int32(next(n))
	}
	return docs, rowDoc
}

// TestTopKPrunedRandomized is a seeded fuzz sweep: random corpora, random
// row layouts, random queries — TopK must stay byte-identical to the
// sparse reference.
func TestTopKPrunedRandomized(t *testing.T) {
	vocab := strings.Fields("alpha beta gamma delta epsilon zeta eta theta iota kappa lambada muon neutrino quark boson lepton hadron photon gluon tachyon")
	rng := det.Source("pruned-fuzz")
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.IntN(60)
		toks, rows := randomCorpus(rng.IntN, vocab, n, 11, 1+rng.IntN(3*n))
		ix, vecs := indexTokens(toks)
		var qtoks []string
		for w := rng.IntN(6); w > 0; w-- {
			qtoks = append(qtoks, vocab[rng.IntN(len(vocab))])
		}
		q := text.SparseEmbed(strings.Join(qtoks, " "))
		k := 1 + rng.IntN(len(rows)+3)
		perturb := func(r int) float64 { return 0.05 * det.Uniform("serp", fmt.Sprint(trial), fmt.Sprint(r)) }
		topKEqualSparse(t, ix, vecs, rows, q, k, perturb, nil, fmt.Sprintf("trial=%d n=%d rows=%d k=%d", trial, n, len(rows), k))
	}
}

// FuzzTopKMatchesReference lets the fuzzer pick the corpus shape, the row
// layout, k and the query; the invariant is that TopK's set, ranked, is
// byte-equal to the dense reference, rows tie-broken by their doc IDs.
// spread also picks the perturbation: SERP-sized jitter, none (exact
// ties), or jitter below float32 resolution, so that rows of one document
// collide in the float32 key yet differ in their float64 scores.
func FuzzTopKMatchesReference(f *testing.F) {
	f.Add(uint64(1), 3, 2, "alpha beta")
	f.Add(uint64(7), 1, 1, "gamma")
	f.Add(uint64(42), 100, 64, "")
	// The k-th key sits inside a float32-collision run that straddles the
	// cut (TestTopKFuzzSeedsStraddle checks that these still do).
	for _, s := range collisionSeeds {
		f.Add(s.seed, s.k, s.spread, s.query)
	}
	f.Fuzz(func(t *testing.T, seed uint64, k, spread int, query string) {
		if k < -1 || k > 1000 || spread < 0 || spread > 256 || len(query) > 200 {
			t.Skip()
		}
		c := newFuzzCase(seed, spread)
		want := denseTopK(text.Embed(query), c.dense, c.rows, k, c.perturb(query), c.cmp)
		got := ranked(t, c.ix.TopK(text.SparseEmbed(query), k, c.rows, c.perturb(query), c.cmp, nil, nil), c.cmp)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("TopK != dense for seed=%d k=%d spread=%d q=%q\nTopK:  %v\ndense: %v", seed, k, spread, query, got, want)
		}
	})
}

// fuzzCase is the corpus, row layout and doc IDs FuzzTopKMatchesReference
// draws from its seed and spread.
type fuzzCase struct {
	ix    *Index
	dense []text.Vector
	rows  []int32
	ids   []string
	cmp   func(a, b int) int
	// scale is the perturbation's magnitude, 0 for none.
	scale float64
}

func newFuzzCase(seed uint64, spread int) fuzzCase {
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"}
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
	next := func(n int) int { return int(rng.Uint64() % uint64(n)) }
	n := 1 + next(40)
	toks, rows := randomCorpus(next, vocab, n, 9, n+spread)
	b := NewBuilder(n)
	c := fuzzCase{dense: make([]text.Vector, n), rows: rows, ids: make([]string, len(rows))}
	for i, d := range toks {
		b.Add(d)
		c.dense[i] = text.Embed(strings.Join(d, " "))
	}
	c.ix = b.Build()
	// Sequence numbers are drawn around the four-digit boundary, where
	// ID order and numeric order part.
	for r := range c.ids {
		c.ids[r] = fmt.Sprintf("f-d%04d", 9990+next(30))
	}
	c.cmp = idCmp(c.ids)
	switch spread % 4 {
	case 0:
		c.scale = 0.05
	case 2:
		// Far below float32's resolution near the scores: a document's
		// rows share their float32 key and differ only in float64.
		c.scale = 1e-12
	}
	return c
}

// perturb returns the case's perturbation for the query, nil when the
// rows get none (exact ties, broken by ID alone).
func (c fuzzCase) perturb(query string) func(int) float64 {
	if c.scale == 0 {
		return nil
	}
	return func(r int) float64 { return c.scale * det.Uniform("serp", query, c.ids[r]) }
}

// collisionSeeds are FuzzTopKMatchesReference inputs whose k-th best row
// shares its float32 key with the (k+1)-th: the run of colliding keys
// straddles the cut, so TopK must order it exactly to pick its rows.
var collisionSeeds = []struct {
	seed      uint64
	k, spread int
	query     string
}{
	{1, 34, 37, "gamma delta eta"},
	{2, 38, 37, "alpha beta"},
	{1, 47, 62, "alpha beta"},
	{4, 80, 130, "alpha beta"},
}

// straddles reports whether the k-th and (k+1)-th of the ranked hits share
// a float32 key.
func straddles(all []Hit, k int) bool {
	return k >= 1 && k < len(all) && float32(all[k-1].Score) == float32(all[k].Score)
}

// TestTopKFuzzSeedsStraddle keeps collisionSeeds honest: each still puts
// the cut inside a colliding run, with exact ties (no perturbation) and
// with float64-distinct scores (sub-float32 jitter) both represented.
func TestTopKFuzzSeedsStraddle(t *testing.T) {
	modes := map[float64]bool{}
	for _, s := range collisionSeeds {
		c := newFuzzCase(s.seed, s.spread)
		all := denseTopK(text.Embed(s.query), c.dense, c.rows, len(c.rows), c.perturb(s.query), c.cmp)
		if !straddles(all, s.k) {
			t.Errorf("seed %+v: the cut at k=%d does not split a float32-collision run", s, s.k)
		}
		modes[c.scale] = true
	}
	if !modes[0] || !modes[1e-12] {
		t.Errorf("collision seeds cover perturbation scales %v, want 0 and 1e-12", modes)
	}
}

// TestTopKPrunedEdgeCases covers the degenerate inputs: k <= 0, k beyond
// the rows, an all-zero query vector and an empty index.
func TestTopKPrunedEdgeCases(t *testing.T) {
	b := NewBuilder(2)
	b.Add([]string{"alpha", "beta"})
	b.Add([]string{"alpha", "gamma"})
	ix := b.Build()
	vecs := []text.SparseVector{text.SparseEmbedTokens([]string{"alpha", "beta"}), text.SparseEmbedTokens([]string{"alpha", "gamma"})}
	rows := []int32{0, 1, 0, 1, 0}
	perturb := func(r int) float64 { return 0.05 * det.Uniform("edge", fmt.Sprint(r)) }
	if got := ix.TopK(text.SparseEmbed("alpha"), 0, rows, perturb, nil, nil, nil); got != nil {
		t.Errorf("k=0: got %d hits, want none", len(got))
	}
	if got := ix.TopK(text.SparseEmbed("alpha"), -3, rows, perturb, nil, nil, nil); got != nil {
		t.Errorf("k<0: got %d hits, want none", len(got))
	}
	if got := ix.TopK(text.SparseEmbed("alpha"), 99, rows, perturb, nil, nil, nil); len(got) != 5 {
		t.Errorf("k>rows: got %d hits, want 5", len(got))
	}
	// All-zero query: every row scores clamp(0)+perturb, exactly as the
	// exhaustive reference would.
	topKEqualSparse(t, ix, vecs, rows, text.SparseVector{}, 3, perturb, nil, "all-zero query")
	if got := ix.TopK(text.SparseVector{}, 2, rows, nil, nil, nil, nil); len(got) != 2 ||
		got[0] != (Hit{Row: 0}) || got[1] != (Hit{Row: 1}) {
		t.Errorf("all-zero query, nil perturb: got %v, want the first two rows at score 0", got)
	}
	empty := NewBuilder(0).Build()
	if got := empty.TopK(text.SparseEmbed("alpha"), 4, nil, perturb, nil, nil, nil); got != nil {
		t.Errorf("empty index: got %d hits, want none", len(got))
	}
}

// TestArenaReuse runs many different queries through one arena: results
// must be identical to fresh-arena calls (stale accumulators, scores or
// keys would corrupt them).
func TestArenaReuse(t *testing.T) {
	ix, _ := buildFixture(40)
	a := &Arena{}
	queries := []string{"Alexander married the duchess", "prize for chemistry", "league standings", "", "document"}
	perturb := func(r int) float64 { return 0.05 * det.Uniform("reuse", fmt.Sprint(r)) }
	for round := 0; round < 3; round++ {
		for qi, q := range queries {
			rows := identityRows(40)
			if qi%2 == 1 {
				rows = sharedRows(40)
			}
			for _, k := range []int{1, 5, 40} {
				qv := text.SparseEmbed(q)
				want := ix.TopK(qv, k, rows, perturb, nil, nil, nil)
				if got := ix.TopK(qv, k, rows, perturb, nil, nil, a); !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d q=%q k=%d: arena-reuse result diverged", round, q, k)
				}
			}
		}
	}
}
