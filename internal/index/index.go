// Package index is the inverted-index retrieval substrate behind the mock
// SERP engine. Each fact's document pool gets one immutable Index: hashed
// terms map to posting lists of (doc, weight) pairs whose weights are the
// sub-linearly damped, L2-normalised term weights text.Embed produces, so a
// query's cosine score is recovered by term-at-a-time accumulation over the
// postings of the query's non-zero dimensions. Top-k selection runs over a
// bounded min-heap, replacing the full O(pool · log pool) sort with
// O(pool · log k).
//
// Beyond the exhaustive paths (TopK over a dense query, TopKSparse over a
// sparse one), the index carries an impact-ordered block layout — each
// dimension's posting list cut into fixed-size blocks with per-block and
// per-dimension max weights, blocks visited in descending-max order — that
// powers TopKPruned, a max-score/WAND-style early-termination top-k which
// skips whole blocks provably unable to reach the running heap floor (see
// pruned.go for the provable-skip invariant).
//
// Determinism contract: for any query q and document d, the accumulated
// score equals text.Cosine(text.Embed(q), text.Embed(title+" "+body)) bit
// for bit. Accumulation visits query dimensions in ascending order — the
// same order the dense cosine loop adds products — and skipped dimensions
// contribute exactly +0.0, which is an identity under IEEE-754 addition for
// the non-negative partial sums involved. The selected top k under the
// total order (score desc, doc ID asc) is therefore byte-identical to
// sorting the full pool and truncating — for all three paths.
package index

import (
	"math"
	"slices"

	"factcheck/internal/text"
)

// Posting is one (document, weight) pair in a term's posting list. Doc
// indexes the pool's document table; Weight is the document's normalised
// term weight, (1+log tf)/‖d‖, exactly as text.Embed computes it.
type Posting struct {
	Doc    int32
	Weight float32
}

// DefaultBlockSize is the posting-block length the builder uses unless
// overridden: small enough that one cold block skip saves real work on the
// paper's ~155-doc pools, large enough that block metadata stays a few
// percent of posting memory at 10×/100× corpus scale.
const DefaultBlockSize = 64

// block is one fixed-size slice of a dimension's posting list. Postings
// within a block stay document-ascending; the per-dimension block *order*
// is descending by Max, so pruned traversal sees the highest upper bounds
// first and can stop at the first block that cannot beat the heap floor.
type block struct {
	// Off and N delimit the block's postings within the dimension's list.
	Off, N int32
	// Max is the largest weight in the block: Weight <= Max for every
	// posting of the block, so qw·Max bounds the block's contribution.
	Max float32
}

// dimList is one dimension's postings plus its pruning metadata.
type dimList struct {
	// postings is the full list, document ascending (the exhaustive paths
	// scan it directly).
	postings []Posting
	// blocks is the impact-ordered block layout: sorted by (Max desc,
	// Off asc), covering postings exactly.
	blocks []block
	// max is the dimension's largest weight (the first block's Max).
	max float32
}

// Index is an immutable inverted index over one document pool.
type Index struct {
	// dims maps a hashed term dimension to its posting list and block
	// metadata. Dimensions absent from every document are absent here.
	dims map[int32]*dimList
	// ids is the pool-ordered document ID table.
	ids []string
	// docOff/docDims/docWts are the forward store: document d's sparse
	// vector is docDims[docOff[d]:docOff[d+1]] (ascending dimensions) with
	// matching weights. TopKPruned scores a surviving candidate by merge-
	// joining the query against this row — the same ascending-dimension
	// product order as the dense loop, hence bit-identical scores.
	docOff  []int32
	docDims []int32
	docWts  []float32
	// nPostings is the total posting count, for stats.
	nPostings int
}

// Builder accumulates documents into an Index. Documents must be added in
// pool order; the builder is not safe for concurrent use. Adding a document
// only appends its vector to the forward store; Build inverts the store
// into posting lists in one counting pass, so the postings of a whole pool
// live in one exactly sized array instead of growing per dimension.
type Builder struct {
	ids       []string
	docOff    []int32
	docDims   []int32
	docWts    []float32
	blockSize int
}

// NewBuilder returns a builder sized for about capHint documents.
func NewBuilder(capHint int) *Builder {
	return &Builder{
		ids:       make([]string, 0, capHint),
		docOff:    append(make([]int32, 0, capHint+1), 0),
		blockSize: DefaultBlockSize,
	}
}

// Grow pre-sizes the forward store for n more postings (the summed NNZ of
// the vectors still to be added), so adding them never regrows it.
func (b *Builder) Grow(n int) {
	b.docDims = slices.Grow(b.docDims, n)
	b.docWts = slices.Grow(b.docWts, n)
}

// WithBlockSize overrides the posting-block length (tests use tiny blocks
// to force cross-block boundaries on small pools). Must be called before
// the first Add; returns the builder for chaining.
func (b *Builder) WithBlockSize(n int) *Builder {
	if n > 0 {
		b.blockSize = n
	}
	return b
}

// Add indexes one document from its term stream (content tokens of
// title + body). The document's weights are derived via
// text.SparseEmbedTokens, bit-identical to the dense vector the
// linear-scan engine embedded.
func (b *Builder) Add(docID string, terms []string) {
	b.AddVec(docID, text.SparseEmbedTokens(terms))
}

// AddVec indexes one document from its precomputed sparse embedding (the
// vector corpus.Materialized carries), skipping the embed pass entirely.
// Its dimensions must lie in [0, text.VectorDim), as every text embedding's
// do. Build fills posting lists in doc order, so the index is identical to
// the one Add builds.
func (b *Builder) AddVec(docID string, v text.SparseVector) {
	b.ids = append(b.ids, docID)
	b.docDims = append(b.docDims, v.Dims...)
	b.docWts = append(b.docWts, v.Weights...)
	b.docOff = append(b.docOff, int32(len(b.docDims)))
}

// Build finalises the index: it inverts the forward store into posting
// lists, then computes per-dimension maxima and the impact-ordered block
// layout, once, so every later query prunes against immutable metadata.
// The builder must not be reused afterwards.
func (b *Builder) Build() *Index {
	// Count each dimension's postings, carve its list out of one shared
	// array, then fill the lists document by document: every list comes out
	// document-ascending and exactly sized.
	var counts [text.VectorDim]int32
	for _, d := range b.docDims {
		counts[d]++
	}
	nDims := 0
	for _, c := range counts {
		if c > 0 {
			nDims++
		}
	}
	flat := make([]Posting, len(b.docDims))
	lists := make([]dimList, 0, nDims)
	dims := make(map[int32]*dimList, nDims)
	var byDim [text.VectorDim]*dimList
	off := int32(0)
	for d, c := range counts {
		if c == 0 {
			continue
		}
		lists = append(lists, dimList{postings: flat[off : off : off+c]})
		dl := &lists[len(lists)-1]
		byDim[d] = dl
		dims[int32(d)] = dl
		off += c
	}
	for doc := range b.ids {
		for j := b.docOff[doc]; j < b.docOff[doc+1]; j++ {
			dl := byDim[b.docDims[j]]
			dl.postings = append(dl.postings, Posting{Doc: int32(doc), Weight: b.docWts[j]})
		}
	}

	bs := int32(b.blockSize)
	for _, dl := range dims {
		n := int32(len(dl.postings))
		dl.blocks = make([]block, 0, (n+bs-1)/bs)
		for off := int32(0); off < n; off += bs {
			ln := min(bs, n-off)
			mx := float32(0)
			for _, p := range dl.postings[off : off+ln] {
				if p.Weight > mx {
					mx = p.Weight
				}
			}
			dl.blocks = append(dl.blocks, block{Off: off, N: ln, Max: mx})
		}
		// Impact order: highest block max first; offset ascending on ties
		// keeps the layout deterministic.
		slices.SortFunc(dl.blocks, func(a, c block) int {
			switch {
			case a.Max > c.Max:
				return -1
			case a.Max < c.Max:
				return 1
			case a.Off < c.Off:
				return -1
			case a.Off > c.Off:
				return 1
			}
			return 0
		})
		dl.max = dl.blocks[0].Max
	}
	ix := &Index{
		dims:      dims,
		ids:       b.ids,
		docOff:    b.docOff,
		docDims:   b.docDims,
		docWts:    b.docWts,
		nPostings: len(b.docDims),
	}
	b.ids = nil
	b.docOff = nil
	b.docDims = nil
	b.docWts = nil
	return ix
}

// Docs returns the number of indexed documents.
func (ix *Index) Docs() int { return len(ix.ids) }

// Postings returns the total number of postings (non-zero term weights).
func (ix *Index) Postings() int { return ix.nPostings }

// Blocks returns the total posting-block count across all dimensions.
func (ix *Index) Blocks() int {
	n := 0
	for _, dl := range ix.dims {
		n += len(dl.blocks)
	}
	return n
}

// ID returns the doc ID at pool position i.
func (ix *Index) ID(i int) string { return ix.ids[i] }

// Vec returns the sparse vector of the document at pool position i, as
// the forward store holds it: equal to the vector added, aliasing the
// index, and not to be modified.
func (ix *Index) Vec(i int) text.SparseVector {
	lo, hi := ix.docOff[i], ix.docOff[i+1]
	if lo == hi {
		return text.SparseVector{}
	}
	return text.SparseVector{Dims: ix.docDims[lo:hi:hi], Weights: ix.docWts[lo:hi:hi]}
}

// Hit is one scored document of a top-k selection.
type Hit struct {
	// Doc is the document's pool position (index into the ID table).
	Doc int
	// ID is the document ID.
	ID string
	// Score is the final score: accumulated cosine plus the perturbation.
	Score float64
}

// PruneStats counts the work of one TopKPruned call. The exhaustive paths
// leave it zero.
type PruneStats struct {
	// PostingsTouched counts postings read: block postings examined plus
	// forward-store entries consumed while exact-scoring candidates.
	PostingsTouched int
	// BlocksSkipped counts posting blocks proven unable to reach the heap
	// floor and never read (including blocks of whole dimensions the
	// suffix bound eliminated).
	BlocksSkipped int
	// DocsScored counts documents exact-scored (candidates plus any
	// perturbation-only sweep).
	DocsScored int
}

// Arena holds the per-query scratch state of the top-k paths: dense
// accumulators, the bounded heap, the pruned path's candidate keys and
// floor histograms. Reusing one arena across queries makes warm top-k
// calls allocation-free; the engine pools arenas behind a sync.Pool. An
// Arena is not safe for concurrent use, and the hit slice a top-k call
// returns aliases the arena — copy it out before the next call on the
// same arena.
type Arena struct {
	acc   []float64
	hits  []Hit
	keys  []uint64
	tmp   []Hit
	qdims []qdim
	sfx   []float64
	// hist buckets clamped partial accumulators during traversal — each a
	// lower bound on its document's final score — and the final clamped
	// accumulators once traversal ends. histFloor turns "k entries at or
	// above an edge" into a provable lower bound on the k-th best score.
	hist [histBuckets]int32
	// Stats describes the last TopKPruned call on this arena.
	Stats PruneStats
}

// qdim is one query dimension resolved against the index, carrying its
// max-score contribution bound.
type qdim struct {
	qw float64 // query weight, widened once
	c  float64 // qw·dimMax: the dimension's max possible contribution
	dl *dimList
}

// accumulator returns a zeroed n-sized accumulator from the arena.
func (a *Arena) accumulator(n int) []float64 {
	if cap(a.acc) < n {
		a.acc = make([]float64, n)
	}
	a.acc = a.acc[:n]
	clear(a.acc)
	return a.acc
}

// heap returns an empty k-capacity hit buffer from the arena.
func (a *Arena) heap(k int) []Hit {
	if cap(a.hits) < k {
		a.hits = make([]Hit, 0, k)
	}
	return a.hits[:0]
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

// pushHit offers a hit to the bounded min-heap, evicting the current floor
// when the hit beats it.
func pushHit(h []Hit, k int, hit Hit) []Hit {
	if len(h) < k {
		h = append(h, hit)
		siftUp(h, len(h)-1)
		return h
	}
	if worse(hit, h[0]) {
		return h
	}
	h[0] = hit
	siftDown(h, 0)
	return h
}

// worse orders hits (score asc, doc ID desc): "worse than the heap root"
// means "not in the top k".
func worse(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.ID > b.ID
}

// sortHits orders the selected hits (score desc, ID asc) — a total order,
// IDs are unique — yielding the same permutation the retired sort.Slice
// did. The hits sort through packed keys — float32-rounded score bits
// inverted in the high word (ascending uint64 order = descending score),
// the hit's position low — so the bulk of the work is a closure-free
// uint64 sort instead of a generic sort dragging 32-byte structs through a
// comparator. float32 rounding is monotone, so it can only collapse
// near-equal scores, never reorder distinct ones; runs that collide in
// float32 (scores within one ulp) are re-ordered by the exact comparator
// afterwards.
func sortHits(h []Hit, a *Arena) []Hit {
	if len(h) < 2 {
		return h
	}
	keys := a.keys[:0]
	for i, t := range h {
		keys = append(keys, uint64(^math.Float32bits(float32(t.Score)))<<32|uint64(uint32(i)))
	}
	a.keys = keys
	slices.Sort(keys)
	tmp := append(a.tmp[:0], h...)
	a.tmp = tmp
	for i, key := range keys {
		h[i] = tmp[uint32(key)]
	}
	for s := 0; s < len(h); {
		e := s + 1
		for e < len(h) && keys[e]>>32 == keys[s]>>32 {
			e++
		}
		for i := s + 1; i < e; i++ {
			for j := i; j > s && worse(h[j-1], h[j]); j-- {
				h[j-1], h[j] = h[j], h[j-1]
			}
		}
		s = e
	}
	return h
}

func siftUp(h []Hit, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !worse(h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func siftDown(h []Hit, i int) {
	for {
		least := i
		if l := 2*i + 1; l < len(h) && worse(h[l], h[least]) {
			least = l
		}
		if r := 2*i + 2; r < len(h) && worse(h[r], h[least]) {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}
