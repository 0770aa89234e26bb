//go:build !race

// The race detector makes sync.Pool drop pooled top-k arenas at random, so
// allocation counts are only pinned in normal builds.

package search

import (
	"runtime"
	"testing"

	"factcheck/internal/verbalize"
)

// TestPoolSearchAllocsIndependentOfN pins the by-reference top-k: into a
// reused hit buffer, a query allocates the same at n = 1 as at
// n = DefaultSERPSize — no per-result copies.
func TestPoolSearchAllocsIndependentOfN(t *testing.T) {
	e, d := fixture(t)
	f := d.Facts[0]
	pl, err := e.Pool(f.ID)
	if err != nil {
		t.Fatal(err)
	}
	q := verbalize.Sentence(f)
	dst := make([]Hit, 0, DefaultSERPSize)
	measure := func(n int) (count, bytes uint64) {
		const runs = 200
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		// Size the pooled arena for the largest n first.
		dst = pl.Search(q, DefaultSERPSize, dst[:0])
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			dst = pl.Search(q, n, dst[:0])
		}
		runtime.ReadMemStats(&after)
		return (after.Mallocs - before.Mallocs) / runs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	c1, b1 := measure(1)
	c100, b100 := measure(DefaultSERPSize)
	if c1 != c100 || b1 != b100 {
		t.Fatalf("n=1 allocates %d times / %d B per query, n=%d %d times / %d B", c1, b1, DefaultSERPSize, c100, b100)
	}
	if len(dst) != DefaultSERPSize || cap(dst) != DefaultSERPSize {
		t.Fatalf("dst grew: len %d cap %d", len(dst), cap(dst))
	}
}
