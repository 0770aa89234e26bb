package index

import (
	"slices"
	"sort"
	"testing"

	"factcheck/internal/text"
)

// The exhaustive per-row rankings TopK is pinned against: every row scored
// from its own document's vector, the whole list sorted by (score desc,
// cmp asc) and truncated. TopK returns its top k as a set in row order, so
// tests rank its output (ranked) before comparing.

// Builder collects document vectors for Build, in document order.
type Builder struct {
	vecs []text.SparseVector
}

// NewBuilder returns a builder sized for about capHint documents.
func NewBuilder(capHint int) *Builder {
	return &Builder{vecs: make([]text.SparseVector, 0, capHint)}
}

// AddVec adds the next document from its sparse embedding.
func (b *Builder) AddVec(v text.SparseVector) { b.vecs = append(b.vecs, v) }

// Add adds the next document from its term stream (content tokens of
// title + body). Its weights are derived via text.SparseEmbedTokens,
// bit-identical to the dense vector the linear-scan engine embedded.
func (b *Builder) Add(terms []string) {
	b.AddVec(text.SparseEmbedTokens(terms))
}

// Build indexes the added documents.
func (b *Builder) Build() *Index {
	return Build(len(b.vecs), func(d int) text.SparseVector { return b.vecs[d] })
}

// ranked checks that hits is a top-k set as TopK returns it, rows strictly
// ascending, and returns a copy ordered by (score desc, cmp asc, row asc),
// the order the references rank in.
func ranked(t testing.TB, hits []Hit, cmp func(a, b int) int) []Hit {
	t.Helper()
	for i := 1; i < len(hits); i++ {
		if hits[i-1].Row >= hits[i].Row {
			t.Fatalf("TopK hits not in ascending row order at %d: %v", i, hits)
		}
	}
	out := slices.Clone(hits)
	slices.SortFunc(out, func(a, b Hit) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		}
		if cmp != nil {
			if c := cmp(a.Row, b.Row); c != 0 {
				return c
			}
		}
		return a.Row - b.Row
	})
	return out
}

// rankRows orders rows by (score desc, cmp asc) — (score desc, row asc)
// when cmp is nil — and returns the first k, nil when there are none.
func rankRows(scores []float64, k int, cmp func(a, b int) int) []Hit {
	hits := make([]Hit, len(scores))
	for r, s := range scores {
		hits[r] = Hit{Row: r, Score: s}
	}
	sort.SliceStable(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		if cmp != nil {
			return cmp(hits[i].Row, hits[j].Row) < 0
		}
		return hits[i].Row < hits[j].Row
	})
	if k > len(hits) {
		k = len(hits)
	}
	if k <= 0 {
		return nil
	}
	return hits[:k]
}

// denseTopK is the dense reference: text.Cosine of the query against each
// row's document, plus the row's perturbation.
func denseTopK(q text.Vector, docs []text.Vector, rowDoc []int32, k int, perturb func(int) float64, cmp func(a, b int) int) []Hit {
	scores := make([]float64, len(rowDoc))
	for r, d := range rowDoc {
		scores[r] = text.Cosine(q, docs[d])
		if perturb != nil {
			scores[r] += perturb(r)
		}
	}
	return rankRows(scores, k, cmp)
}

// sparseTopK is the sparse reference: each row's cosine merge-joined from
// the query and its document's sparse vector in ascending dimension
// order, clamped, plus the row's perturbation.
func sparseTopK(q text.SparseVector, docs []text.SparseVector, rowDoc []int32, k int, perturb func(int) float64, cmp func(a, b int) int) []Hit {
	scores := make([]float64, len(rowDoc))
	for r, d := range rowDoc {
		v := docs[d]
		var s float64
		for i, j := 0, 0; i < len(q.Dims) && j < len(v.Dims); {
			switch {
			case q.Dims[i] < v.Dims[j]:
				i++
			case q.Dims[i] > v.Dims[j]:
				j++
			default:
				s += float64(q.Weights[i]) * float64(v.Weights[j])
				i++
				j++
			}
		}
		scores[r] = min(s, 1)
		if perturb != nil {
			scores[r] += perturb(r)
		}
	}
	return rankRows(scores, k, cmp)
}

// identityRows maps n rows to documents 0..n-1.
func identityRows(n int) []int32 {
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	return rows
}

// idCmp orders rows by their IDs.
func idCmp(ids []string) func(a, b int) int {
	return func(a, b int) int {
		switch {
		case ids[a] < ids[b]:
			return -1
		case ids[a] > ids[b]:
			return 1
		}
		return 0
	}
}
