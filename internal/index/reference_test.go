package index

import "factcheck/internal/text"

// The exhaustive top-k paths TopKPruned replaced, kept as the references
// of the golden ladder (pruned == sparse == dense) and as the baselines of
// the pruning benches.

// Add indexes one document from its term stream (content tokens of
// title + body). The document's weights are derived via
// text.SparseEmbedTokens, bit-identical to the dense vector the
// linear-scan engine embedded.
func (b *Builder) Add(docID string, terms []string) {
	b.AddVec(docID, text.SparseEmbedTokens(terms))
}

// TopK scores every pool document against the query vector and returns the
// k best under (score desc, doc ID asc). perturb, when non-nil, adds an
// extra per-document score component (the engine's deterministic SERP
// jitter) after the cosine is clamped to [0,1] — every document receives
// it, including those sharing no term with the query. a may be nil (a
// temporary arena is allocated); when non-nil the returned slice aliases
// it.
func (ix *Index) TopK(q text.Vector, k int, perturb func(docID string) float64, a *Arena) []Hit {
	n := len(ix.ids)
	if k > n {
		k = n
	}
	if k <= 0 || n == 0 {
		return nil
	}
	if a == nil {
		a = &Arena{}
	}
	// Term-at-a-time accumulation, query dimensions ascending: each
	// document's accumulator receives exactly the non-zero products of the
	// dense cosine loop, in the same order.
	acc := a.accumulator(n)
	for dim := 0; dim < text.VectorDim; dim++ {
		qw := q[dim]
		if qw == 0 {
			continue
		}
		dl, ok := ix.dims[int32(dim)]
		if !ok {
			continue
		}
		for _, p := range dl.postings {
			acc[p.Doc] += float64(qw) * float64(p.Weight)
		}
	}
	return ix.selectTopK(acc, k, perturb, a)
}

// TopKSparse is TopK over a sparse query vector: accumulation skips the
// dense 1024-dimension sweep and visits only the query's non-zero
// dimensions — already ascending in a SparseVector — so the accumulated
// scores, and therefore the selected top k, are bit-identical to TopK over
// the dense equivalent.
func (ix *Index) TopKSparse(q text.SparseVector, k int, perturb func(docID string) float64, a *Arena) []Hit {
	n := len(ix.ids)
	if k > n {
		k = n
	}
	if k <= 0 || n == 0 {
		return nil
	}
	if a == nil {
		a = &Arena{}
	}
	acc := a.accumulator(n)
	for i, dim := range q.Dims {
		dl, ok := ix.dims[dim]
		if !ok {
			continue
		}
		qw := q.Weights[i]
		for _, p := range dl.postings {
			acc[p.Doc] += float64(qw) * float64(p.Weight)
		}
	}
	return ix.selectTopK(acc, k, perturb, a)
}

// selectTopK turns the accumulated cosines into the k best hits under
// (score desc, doc ID asc), applying the clamp and the perturbation.
func (ix *Index) selectTopK(acc []float64, k int, perturb func(docID string) float64, a *Arena) []Hit {
	n := len(ix.ids)
	// Bounded min-heap of the k best seen so far; the root is the current
	// worst, ordered by (score asc, doc ID desc) so "worse than root" means
	// "not in the top k".
	h := a.heap(k)
	for i := 0; i < n; i++ {
		s := acc[i]
		// Mirror text.Cosine's clamp before the perturbation is applied.
		if s > 1 {
			s = 1
		}
		id := ix.ids[i]
		if perturb != nil {
			s += perturb(id)
		}
		h = pushHit(h, k, Hit{Doc: i, ID: id, Score: s})
	}
	return sortHits(h, a)
}
