// Package index is the inverted-index retrieval substrate behind the mock
// SERP engine. Each fact's pool gets one immutable Index over its distinct
// document texts: hashed terms map to posting lists of (document, weight)
// pairs whose weights are the sub-linearly damped, L2-normalised term
// weights text.Embed produces, so a query's cosine score is recovered by
// term-at-a-time accumulation over the postings of the query's non-zero
// dimensions.
//
// Many pool rows share one indexed document (a variant: one distinct
// title and body), so the one ranking kernel, TopK, adds up each
// document's cosine once and then selects rows: each row reads its
// document's cosine and adds its own perturbation (the engine's SERP
// jitter).
//
// Determinism contract: for any query q and indexed document d, the
// accumulated score equals text.Cosine(text.Embed(q), text.Embed(d)) bit
// for bit. Accumulation visits query dimensions in ascending order — the
// same order the dense cosine loop adds products — and dimensions a
// document lacks contribute nothing, exactly as their +0.0 products add
// nothing to the dense loop's non-negative partial sums. The top k under
// the total order (score desc, row order asc) is therefore the same set,
// with the same scores bit for bit, as scoring every row densely, sorting
// and truncating. TopK returns that set in ascending row order, not
// ranked: callers that need the ranking sort the k hits themselves.
package index

import (
	"math"
	"math/bits"
	"slices"

	"factcheck/internal/text"
)

// Posting is one (document, weight) pair in a term's posting list. Doc
// is the document's position in build order; Weight is its normalised
// term weight, (1+log tf)/‖d‖, exactly as text.Embed computes it.
type Posting struct {
	Doc    int32
	Weight float32
}

// Index is an immutable inverted index over a list of documents.
type Index struct {
	// dims holds the indexed dimensions in ascending order; dimensions
	// absent from every document are absent here. Dimension dims[i]'s
	// postings are postings[off[i]:off[i+1]], document ascending.
	dims     []int32
	off      []int32
	postings []Posting
	nDocs    int
}

// Build indexes n documents, document d's sparse embedding being vec(d),
// whose dimensions must lie in [0, text.VectorDim), as every text
// embedding's do. It reads every vector twice — counting each dimension's
// postings, then filling the lists document by document — so vec must
// return the same vector both times. Every list comes out
// document-ascending and exactly sized, carved from one shared array.
func Build(n int, vec func(doc int) text.SparseVector) *Index {
	var counts [text.VectorDim]int32
	nnz := 0
	for doc := 0; doc < n; doc++ {
		v := vec(doc)
		for _, d := range v.Dims {
			counts[d]++
		}
		nnz += v.NNZ()
	}
	nDims := 0
	for _, c := range counts {
		if c > 0 {
			nDims++
		}
	}
	ix := &Index{
		dims:     make([]int32, 0, nDims),
		off:      make([]int32, 0, nDims+1),
		postings: make([]Posting, nnz),
		nDocs:    n,
	}
	// next[d] is where dimension d's next posting goes.
	var next [text.VectorDim]int32
	off := int32(0)
	for d, c := range counts {
		if c == 0 {
			continue
		}
		ix.dims = append(ix.dims, int32(d))
		ix.off = append(ix.off, off)
		next[d] = off
		off += c
	}
	ix.off = append(ix.off, off)
	for doc := 0; doc < n; doc++ {
		v := vec(doc)
		for j, d := range v.Dims {
			ix.postings[next[d]] = Posting{Doc: int32(doc), Weight: v.Weights[j]}
			next[d]++
		}
	}
	return ix
}

// Docs returns the number of indexed documents.
func (ix *Index) Docs() int { return ix.nDocs }

// Postings returns the total number of postings (non-zero term weights).
func (ix *Index) Postings() int { return len(ix.postings) }

// Hit is one row of a top-k selection.
type Hit struct {
	Row int
	// Score is the final score: the clamped cosine of the row's document
	// plus the row's perturbation.
	Score float64
}

// Stats counts the work of one TopK call.
type Stats struct {
	// PostingsTouched counts the postings accumulated: each indexed
	// document's once, however many rows share it.
	PostingsTouched int
	// DocsScored counts the rows scored.
	DocsScored int
}

// Arena holds the per-query scratch state of TopK: the per-document
// accumulators, the per-row scores and selection keys, and the bitset of
// selected rows. Reusing one arena across queries makes warm top-k calls
// allocation-free; the engine pools arenas behind a sync.Pool. An Arena
// is not safe for concurrent use.
type Arena struct {
	acc    []float64
	scores []float64
	keys   []uint64
	sel    []uint64
	// Stats describes the last TopK call on this arena.
	Stats Stats
}

// grow returns s resized to n, reallocating only when it lacks capacity.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// TopK appends to dst the k best of the rows rowDoc describes, in
// ascending row order, and returns it. Row r reads indexed document
// rowDoc[r]: its score is that document's cosine to q, clamped to [0,1],
// plus perturb(r) when perturb is non-nil — every row receives its
// perturbation, including rows whose document shares no term with the
// query. The k best are the first k under (score desc, cmp asc, row asc);
// cmp may be nil. a may be nil; when non-nil, a.Stats reports the call's
// work.
//
// Each document's cosine is accumulated once, term at a time over the
// query's dimensions in ascending order. The k best rows are then
// selected, not sorted, on packed keys: the float32-rounded score, ordered
// so that ascending keys mean descending scores, high, and the row low.
// float32 rounding is monotone, so it can only collapse near-equal scores,
// never reorder distinct ones; when the k-th key's high word is shared by
// keys on both sides of the cut, only that run is ordered by the exact
// comparison to decide which of its rows are in.
func (ix *Index) TopK(q text.SparseVector, k int, rowDoc []int32, perturb func(row int) float64, cmp func(a, b int) int, dst []Hit, a *Arena) []Hit {
	if a == nil {
		a = &Arena{}
	}
	n := len(rowDoc)
	a.Stats = Stats{}
	k = min(k, n)
	if k <= 0 {
		return dst
	}
	a.Stats.DocsScored = n
	acc := grow(a.acc, ix.nDocs)
	a.acc = acc
	clear(acc)
	for i, dim := range q.Dims {
		j, ok := slices.BinarySearch(ix.dims, dim)
		if !ok {
			continue
		}
		qw := float64(q.Weights[i])
		ps := ix.postings[ix.off[j]:ix.off[j+1]]
		a.Stats.PostingsTouched += len(ps)
		for _, p := range ps {
			acc[p.Doc] += qw * float64(p.Weight)
		}
	}
	// Mirror text.Cosine's clamp before any perturbation is applied.
	for d, s := range acc {
		if s > 1 {
			acc[d] = 1
		}
	}
	scores := grow(a.scores, n)
	keys := grow(a.keys, n)
	a.scores, a.keys = scores, keys
	for r, d := range rowDoc {
		s := acc[d]
		if perturb != nil {
			s += perturb(r)
		}
		scores[r] = s
		keys[r] = uint64(^orderBits(s))<<32 | uint64(r)
	}
	// keys[:k] become the k smallest keys. Every key whose high word is
	// below the k-th's is in the top k and every key whose high word is
	// above it is out; keys that share the k-th's high word are resolved
	// below.
	selectKey(keys, k-1)
	h := keys[k-1] >> 32
	hi := k
	for i := k; i < n; i++ {
		if keys[i]>>32 == h {
			keys[hi], keys[i] = keys[i], keys[hi]
			hi++
		}
	}
	if hi > k {
		// The run straddles the cut: gather its part in keys[:k] just
		// before it, and order the whole run exactly.
		lo := k
		for i := k - 1; i >= 0; i-- {
			if keys[i]>>32 == h {
				lo--
				keys[lo], keys[i] = keys[i], keys[lo]
			}
		}
		slices.SortFunc(keys[lo:hi], func(x, y uint64) int {
			rx, ry := int(uint32(x)), int(uint32(y))
			switch {
			case scores[rx] > scores[ry]:
				return -1
			case scores[rx] < scores[ry]:
				return 1
			}
			if cmp != nil {
				if c := cmp(rx, ry); c != 0 {
					return c
				}
			}
			return rx - ry
		})
	}
	// Emit the selected rows in row order through a bitset.
	sel := grow(a.sel, (n+63)/64)
	a.sel = sel
	clear(sel)
	for _, key := range keys[:k] {
		r := uint32(key)
		sel[r/64] |= 1 << (r % 64)
	}
	for w, word := range sel {
		for word != 0 {
			r := w*64 + bits.TrailingZeros64(word)
			dst = append(dst, Hit{Row: r, Score: scores[r]})
			word &= word - 1
		}
	}
	return dst
}

// selectKey reorders keys, which are distinct, so that keys[k] holds the
// key sorting would put there, no key before it larger and none after it
// smaller (Hoare's FIND).
func selectKey(keys []uint64, k int) {
	lo, hi := 0, len(keys)-1
	for lo < hi {
		pivot := keys[k]
		i, j := lo, hi
		for i <= j {
			for keys[i] < pivot {
				i++
			}
			for pivot < keys[j] {
				j--
			}
			if i <= j {
				keys[i], keys[j] = keys[j], keys[i]
				i++
				j--
			}
		}
		if j < k {
			lo = i
		}
		if k < i {
			hi = j
		}
	}
}

// orderBits maps s, rounded to float32, to a uint32 whose unsigned order
// is the float order, with both zeros mapped alike.
func orderBits(s float64) uint32 {
	f := float32(s)
	if f == 0 {
		return 1 << 31
	}
	b := math.Float32bits(f)
	if b>>31 != 0 {
		return ^b
	}
	return b | 1<<31
}
