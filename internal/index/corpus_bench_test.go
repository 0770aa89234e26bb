package index

import (
	"fmt"
	"testing"

	"factcheck/internal/corpus"
	"factcheck/internal/dataset"
	"factcheck/internal/det"
	"factcheck/internal/text"
	"factcheck/internal/verbalize"
	"factcheck/internal/world"
)

// serpJitterScale mirrors the search engine's SERP perturbation magnitude,
// so the exhaustive benches below do the per-query work its Search does.
const serpJitterScale = 0.05

// corpusQuery is one fact-derived SERP query against that fact's index.
type corpusQuery struct {
	ix    *Index
	query string
}

// corpusQueries indexes the pools of four FactBench facts at scale× the
// paper's pool-size distribution (mean ≈155·scale docs), as the search
// engine materialises them, and pairs each with the queries the RAG
// pipeline issues for its fact: the claim sentence and its entity labels.
func corpusQueries(b *testing.B, scale int) []corpusQuery {
	b.Helper()
	w := world.New(world.SmallConfig())
	d := dataset.Build(w, dataset.FactBench, 0.2)
	gen := corpus.NewGenerator(w)
	gen.MeanDocs *= float64(scale)
	gen.StdDocs *= float64(scale)
	gen.MaxDocs *= scale
	facts := d.Facts
	if len(facts) > 4 {
		facts = facts[:4]
	}
	var qs []corpusQuery
	for _, f := range facts {
		ms := gen.Materialize(f)
		bl := NewBuilder(len(ms))
		nnz := 0
		for _, m := range ms {
			nnz += m.Vec.NNZ()
		}
		bl.Grow(nnz)
		for _, m := range ms {
			bl.AddVec(m.Doc.ID, m.Vec)
		}
		ix := bl.Build()
		sentence := verbalize.Sentence(f)
		for _, q := range []string{
			sentence,
			f.Subject.Label + " " + f.Object.Label,
			"evidence about " + sentence,
			"the record " + f.Object.Label,
		} {
			qs = append(qs, corpusQuery{ix, q})
		}
	}
	return qs
}

// BenchmarkSearchIndexed times the exhaustive posting-list ranking
// (every posting of every query dimension accumulated, bounded-heap
// selection) at growing corpus scales, doing a SERP query's work: embed
// the query, rank with the keyed SERP jitter on a reused arena, copy the
// hits out. BenchmarkSearchScan and BenchmarkSearchPruned in
// internal/search measure the scan reference and the production path over
// the same pools and queries.
func BenchmarkSearchIndexed(b *testing.B) {
	for _, scale := range []int{1, 10} {
		b.Run(fmt.Sprintf("corpus%dx", scale), func(b *testing.B) {
			qs := corpusQueries(b, scale)
			a := &Arena{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := qs[i%len(qs)]
				key := det.NewKey("serp", q.query)
				hits := q.ix.TopKSparse(text.SparseEmbed(q.query), 100, func(docID string) float64 {
					return serpJitterScale * key.Uniform(docID)
				}, a)
				sink = append([]Hit(nil), hits...)
			}
		})
	}
}

// sink keeps the benchmarked results alive.
var sink []Hit
