package index

import (
	"testing"

	"factcheck/internal/det"
	"factcheck/internal/text"
)

// benchIndex builds a 512-document synthetic pool once per benchmark.
func benchIndex(b *testing.B) (*Index, text.SparseVector) {
	b.Helper()
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota", "kappa"}
	rng := det.Source("alloc-bench")
	bl := NewBuilder(512)
	for i := 0; i < 512; i++ {
		var toks []string
		for w := 3 + rng.IntN(20); w > 0; w-- {
			toks = append(toks, vocab[rng.IntN(len(vocab))])
		}
		bl.Add(toks)
	}
	return bl.Build(), text.SparseEmbed("alpha beta gamma")
}

// BenchmarkTopKWarm proves the arena makes warm queries alloc-free: with a
// reused Arena, a reused hit buffer and a prebuilt perturbation closure,
// TopK must report 0 allocs/op.
func BenchmarkTopKWarm(b *testing.B) {
	ix, q := benchIndex(b)
	rows := sharedRows(ix.Docs())
	perturb := func(r int) float64 { return 0.05 * det.Key(r).Uniform("bench") }
	a := &Arena{}
	hits := ix.TopK(q, 8, rows, perturb, nil, nil, a) // warm the arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hits = ix.TopK(q, 8, rows, perturb, nil, hits[:0], a)
	}
}
