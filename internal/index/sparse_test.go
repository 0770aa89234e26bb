package index

import (
	"fmt"
	"reflect"
	"testing"

	"factcheck/internal/det"
	"factcheck/internal/text"
)

func sparseFixture() *Index {
	b := NewBuilder(8)
	docs := []string{
		"alpha beta gamma delta",
		"alpha alpha beta",
		"gamma delta epsilon zeta",
		"unrelated filler content entirely",
		"alpha beta gamma delta epsilon zeta eta theta",
		"",
	}
	for i, d := range docs {
		b.Add(fmt.Sprintf("f-d%04d", i), text.ContentTokens(d))
	}
	return b.Build()
}

// TestTopKSparseMatchesDense pins sparse-query accumulation byte-identical
// to the dense TopK across k values, with and without perturbation.
func TestTopKSparseMatchesDense(t *testing.T) {
	ix := sparseFixture()
	queries := []string{"alpha beta", "epsilon zeta eta", "nothing matches here", ""}
	perturbs := []func(string) float64{
		nil,
		func(id string) float64 { return 0.05 * det.Uniform("serp", "q", id) },
	}
	for _, q := range queries {
		for pi, perturb := range perturbs {
			for _, k := range []int{0, 1, 3, 6, 99} {
				dense := ix.TopK(text.Embed(q), k, perturb, nil)
				sparse := ix.TopKSparse(text.SparseEmbed(q), k, perturb, nil)
				if !reflect.DeepEqual(dense, sparse) {
					t.Fatalf("q=%q perturb=%d k=%d: dense %v != sparse %v", q, pi, k, dense, sparse)
				}
			}
		}
	}
}

// TestAddVecMatchesAdd pins the vector-ingest build path against the
// term-stream path: identical postings, identical rankings.
func TestAddVecMatchesAdd(t *testing.T) {
	docs := [][]string{
		text.ContentTokens("alpha beta gamma"),
		text.ContentTokens("beta beta delta"),
		text.ContentTokens("the of"),
		text.ContentTokens("epsilon"),
	}
	a := NewBuilder(len(docs))
	v := NewBuilder(len(docs))
	for i, terms := range docs {
		id := fmt.Sprintf("f-d%04d", i)
		a.Add(id, terms)
		v.AddVec(id, text.SparseEmbedTokens(terms))
	}
	ia, iv := a.Build(), v.Build()
	if ia.Postings() != iv.Postings() || ia.Docs() != iv.Docs() {
		t.Fatalf("shape mismatch: %d/%d postings, %d/%d docs",
			ia.Postings(), iv.Postings(), ia.Docs(), iv.Docs())
	}
	// The forward store hands back each document's vector as added.
	for i, terms := range docs {
		if got, want := iv.Vec(i), text.SparseEmbedTokens(terms); !reflect.DeepEqual(got, want) {
			t.Errorf("Vec(%d) = %v, added %v", i, got, want)
		}
	}
	q := text.SparseEmbed("alpha beta delta epsilon")
	if got, want := iv.TopKSparse(q, 3, nil, nil), ia.TopKSparse(q, 3, nil, nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("rankings differ: %v vs %v", got, want)
	}
}
