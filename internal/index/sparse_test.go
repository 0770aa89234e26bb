package index

import (
	"fmt"
	"reflect"
	"testing"

	"factcheck/internal/det"
	"factcheck/internal/text"
)

var sparseDocs = []string{
	"alpha beta gamma delta",
	"alpha alpha beta",
	"gamma delta epsilon zeta",
	"unrelated filler content entirely",
	"alpha beta gamma delta epsilon zeta eta theta",
	"",
}

// TestTopKSparseMatchesDense pins the sparse reference byte-identical to
// the dense one across k values, with and without perturbation, so either
// can stand as TopK's reference.
func TestTopKSparseMatchesDense(t *testing.T) {
	var dense []text.Vector
	var sparse []text.SparseVector
	for _, d := range sparseDocs {
		dense = append(dense, text.Embed(d))
		sparse = append(sparse, text.SparseEmbed(d))
	}
	rows := sharedRows(len(sparseDocs))
	queries := []string{"alpha beta", "epsilon zeta eta", "nothing matches here", ""}
	perturbs := []func(int) float64{
		nil,
		func(r int) float64 { return 0.05 * det.Uniform("serp", "q", fmt.Sprint(r)) },
	}
	for _, q := range queries {
		for pi, perturb := range perturbs {
			for _, k := range []int{0, 1, 3, 6, 99} {
				d := denseTopK(text.Embed(q), dense, rows, k, perturb, nil)
				s := sparseTopK(text.SparseEmbed(q), sparse, rows, k, perturb, nil)
				if !reflect.DeepEqual(d, s) {
					t.Fatalf("q=%q perturb=%d k=%d: dense %v != sparse %v", q, pi, k, d, s)
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
	for _, terms := range docs {
		a.Add(terms)
		v.AddVec(text.SparseEmbedTokens(terms))
	}
	ia, iv := a.Build(), v.Build()
	if !reflect.DeepEqual(ia, iv) {
		t.Fatalf("indexes differ:\n%+v\n%+v", ia, iv)
	}
	q := text.SparseEmbed("alpha beta delta epsilon")
	rows := identityRows(len(docs))
	if got, want := iv.TopK(q, 3, rows, nil, nil, nil, nil), ia.TopK(q, 3, rows, nil, nil, nil, nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("rankings differ: %v vs %v", got, want)
	}
}
