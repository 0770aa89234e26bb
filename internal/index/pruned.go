package index

import (
	"math"

	"factcheck/internal/text"
)

// boundSlack absorbs IEEE-754 summation-order effects in the pruned path's
// upper bounds. Bounds are floating-point sums of the same terms an exact
// score accumulates, but evaluated in a different association (suffix
// maxima, leak terms), so a bound is only provable after widening by more
// than the worst-case drift. With at most 1024 query dimensions, per-term
// contributions <= 1 and partial sums <= 32 (the query is L2-normalised,
// so Σqw <= √1024), the accumulated rounding error of either sum is below
// 1024·2⁻⁵³·32 ≈ 4·10⁻¹², and the two extra additions (clamp, perturbation
// bound) stay in the same regime. 10⁻⁹ exceeds that by ~100× while sitting
// far below any score gap the 53-bit SERP jitter can produce, so the slack
// never costs a skip that mattered.
const boundSlack = 1e-9

// histBuckets quantises lower bounds in [0,1] for the floor histogram. A
// bucket's lower edge under-reports its entries by at most 1/256 — floors
// are only ever weakened, never inflated, so skips stay provable.
const histBuckets = 256

// histBucket maps a lower bound in [0,1] to its histogram bucket.
func histBucket(v float64) int {
	b := int(v * histBuckets)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// histFloor returns the largest bucket edge with at least k entries at or
// above it — a sound floor: at least k counted documents have lower bounds
// >= the returned value. With fewer than k entries it returns 0, which can
// never exclude anything (every upper bound is non-negative and exclusion
// requires a strict compare after positive widening).
func histFloor(hist *[histBuckets]int32, k int) float64 {
	cum := 0
	for j := histBuckets - 1; j >= 0; j-- {
		cum += int(hist[j])
		if cum >= k {
			return float64(j) / histBuckets
		}
	}
	return 0
}

// histCountAbove estimates how many counted documents have lower bounds at
// or above v — input to the skip cost model, not to any soundness proof.
func histCountAbove(hist *[histBuckets]int32, v float64) int {
	lo := 0
	if v > 0 {
		lo = histBucket(v)
	}
	cum := 0
	for j := histBuckets - 1; j >= lo; j-- {
		cum += int(hist[j])
	}
	return cum
}

// siftDownKey restores the max-heap property of the packed candidate keys
// at root i. Larger key = higher float32 bound, ties broken toward the
// smaller doc ID (the low word stores the doc bit-flipped).
func siftDownKey(keys []uint64, i int) {
	for {
		l := 2*i + 1
		if l >= len(keys) {
			return
		}
		if r := l + 1; r < len(keys) && keys[r] > keys[l] {
			l = r
		}
		if keys[i] >= keys[l] {
			return
		}
		keys[i], keys[l] = keys[l], keys[i]
		i = l
	}
}

// TopKPruned returns exactly the exhaustive top k (every posting of every
// query dimension accumulated, the k best selected under (score desc, doc
// ID asc)) — byte-identical hits — while exact-scoring only the documents
// that can still matter: a max-score/WAND-style early-termination top-k
// over the impact-ordered block layout.
//
// perturbBound must satisfy perturb(id) <= perturbBound for every document
// ID (0 is implied when perturb is nil); the engine passes its SERP-jitter
// magnitude. a may be nil; when non-nil the returned slice aliases it and
// a.Stats reports the pruning counters.
//
// The provable-skip invariant: a document is excluded only when an upper
// bound on its final score — exact accumulation where traversed, block or
// dimension maxima where skipped, plus perturbBound, widened by boundSlack
// — is strictly below a lower bound on the k-th best final score. Both
// sides of every such comparison are conservative, so exclusion never
// touches the true top k, and since (score desc, doc ID asc) is a total
// order, the selected set and its order are exactly the exhaustive path's.
//
// Traversal runs term-at-a-time in ascending dimension order — the dense
// loop's order — so a document's accumulator replays the exact product
// sequence of the exhaustive path: when no block was skipped, the final
// accumulator IS the bit-identical cosine, and candidates are scored with
// a clamp and a perturbation, never re-reading the forward store. Skipping
// still gets its power from the impact-ordered block layout: within each
// dimension, blocks arrive max-descending, so one failed bound ends the
// dimension. The phases:
//
//  1. accumulate or skip: each posting folds into its document's
//     accumulator and moves the document between buckets of a 256-bucket
//     histogram over clamped partial sums. Accumulators only grow and the
//     perturbation only adds, so each partial sum lower-bounds its
//     document's final score and the histogram's k-deep edge is a floor at
//     least k true final scores meet — tracking the real k-th-best
//     frontier as it rises, for two bucket updates per posting where a
//     k-slot heap would pay a sift. A block whose upper bound for an
//     unseen document (qw·blockMax + the remaining-dimension suffix + the
//     leak term below + perturbBound) cannot reach the floor is skipped; a
//     whole-dimension suffix that cannot reach it ends the traversal.
//     Floor walks are cached — the floor is monotone, so a stale value
//     stays sound — and gated on the running maximum accumulator, so
//     queries whose bounds never come close pay one float compare per
//     block, not a histogram scan. Every skip widens `leak` by the skipped
//     contribution's maximum, keeping accumulated bounds sound: a document
//     absent from a traversed block has exactly +0 missing there, one
//     absent from a skipped block at most the skipped maximum.
//  2. select: after traversal the same histogram buckets the final clamped
//     accumulators, so its k-deep edge is now the true selection floor
//     (the k-th best lower bound over the whole pool); candidates provably
//     below it are dropped. Survivors pack into uint64 keys — the clamped
//     accumulator rounded UP to float32 in the high bits, the bit-flipped
//     doc ID low — and pop from a max-heap in (bound desc, doc asc) order.
//     Once k exact scores are in, a popped key whose bound
//     min(1, ub+leak)+perturbBound cannot beat the running heap floor ends
//     the phase: every remaining key packs a lower bound still.
//  3. score: with leak == 0 the accumulator is already the exact
//     dense-order sum, so scoring is clamp + perturb + heap push. Any skip
//     (leak > 0) may have left accumulators short, so scoring falls back
//     to the forward-store merge join in ascending dimension order — the
//     same exact product sequence, rebuilt from scratch.
//  4. perturbation-only sweep: documents sharing no dimension with the
//     query still score clamp(0)+perturb in the exhaustive path. The sweep
//     runs only while perturbBound alone could still beat the floor (or
//     the heap is unfilled) — and every exclusion above subtracts at least
//     perturbBound more than this one, so in exactly those runs nothing
//     was skipped or dropped, and the unaccumulated documents are exactly
//     the zero-overlap ones.
func (ix *Index) TopKPruned(q text.SparseVector, k int, perturb func(docID string) float64, perturbBound float64, a *Arena) []Hit {
	n := len(ix.ids)
	if k > n {
		k = n
	}
	if a == nil {
		a = &Arena{}
	}
	a.Stats = PruneStats{}
	if k <= 0 || n == 0 {
		return nil
	}
	if perturb == nil {
		perturbBound = 0
	}

	// Resolve query dimensions against the index, keeping the query's
	// ascending dimension order — the exact accumulation order of the
	// dense loop.
	dims := a.qdims[:0]
	for i, dim := range q.Dims {
		dl, ok := ix.dims[dim]
		if !ok {
			continue
		}
		qw := float64(q.Weights[i])
		dims = append(dims, qdim{qw: qw, c: qw * float64(dl.max), dl: dl})
	}
	a.qdims = dims
	m := len(dims)

	// sfx[i] bounds the total contribution of dimensions i..m-1.
	sfx := a.sfx[:0]
	if cap(sfx) < m+1 {
		sfx = make([]float64, 0, m+1)
	}
	sfx = sfx[:m+1]
	a.sfx = sfx
	sfx[m] = 0
	for i := m - 1; i >= 0; i-- {
		sfx[i] = dims[i].c + sfx[i+1]
	}

	h := a.heap(k)
	acc := a.accumulator(n)
	clear(a.hist[:])
	// floor caches the last histogram walk; it can only rise as postings
	// move documents into higher buckets, so a stale value stays a sound
	// lower bound. maxAcc caps what any walk could return, gating walks
	// off entirely while bounds sit above every accumulator. dirty marks
	// histogram changes since the cached walk.
	floor, maxAcc := 0.0, 0.0
	dirty := false

	// cannotBeatLB: an upper bound provably below the lower-bound floor
	// cannot be in the top k. Strict comparison after widening — a bound
	// exactly at the floor could tie the k-th score and win on doc ID.
	cannotBeatLB := func(cosBound float64) bool {
		if cosBound > 1 {
			cosBound = 1
		}
		b := cosBound + perturbBound + boundSlack
		if b < floor {
			return true
		}
		ma := maxAcc
		if ma > 1 {
			ma = 1
		}
		if b >= ma || !dirty {
			return false
		}
		floor = histFloor(&a.hist, k)
		dirty = false
		return b < floor
	}

	// leak bounds the contribution a document may have in skipped blocks
	// and suffix-broken dimensions — traversed blocks contribute exactly
	// +0 for absent documents, skipped ones at most their maximum.
	//
	// Skipping also has a price: with leak > 0 every selected document
	// must be re-scored through the forward-store merge join instead of
	// reading its finished accumulator, and the leak widens every
	// selection bound, admitting borderline candidates the exhaustive
	// accumulator would have excluded. A skip is optional — exhaustive
	// traversal is always sound — so a provable skip is only taken when it
	// pays: the histogram counts the documents the widened bounds would
	// newly admit, each costing one merge join of roughly
	// (query dims + average document dims) steps, the first skip adds the
	// k merge joins the fast path would have avoided, and the postings the
	// skip avoids must outweigh that total. The gate is scale-adaptive:
	// near-tail skips that save a handful of postings are declined at
	// small corpus scales and fire at larger ones, where whole high-volume
	// suffixes drop out.
	leak := 0.0
	mergeSteps := len(q.Dims)
	if n > 0 {
		mergeSteps += len(ix.docDims) / n
	}
	// mayPay is the gate's free pre-check: the first skip costs at least
	// the k fast-path scores it forfeits, so smaller savings can skip the
	// bound proof and the histogram pricing entirely.
	mayPay := func(saved int) bool {
		return leak > 0 || saved >= k*mergeSteps
	}
	skipWorth := func(saved int, leakAfter float64) bool {
		extra := histCountAbove(&a.hist, floor-leakAfter-perturbBound) -
			histCountAbove(&a.hist, floor-leak-perturbBound)
		cost := extra * mergeSteps
		if leak == 0 {
			cost += k * mergeSteps
		}
		return saved >= cost
	}
	for i, d := range dims {
		saved := 0
		for _, r := range dims[i:] {
			saved += len(r.dl.postings)
		}
		if mayPay(saved) && cannotBeatLB(sfx[i]+leak) && skipWorth(saved, leak+sfx[i]) {
			for _, r := range dims[i:] {
				a.Stats.BlocksSkipped += len(r.dl.blocks)
			}
			leak += sfx[i]
			break
		}
		for bi, b := range d.dl.blocks {
			if rem := len(d.dl.postings) - int(b.Off); mayPay(rem) &&
				cannotBeatLB(d.qw*float64(b.Max)+sfx[i+1]+leak) &&
				skipWorth(rem, leak+d.qw*float64(b.Max)) {
				// Impact order: every remaining block of this dimension
				// bounds even lower. The first skipped block's max covers
				// the dimension's contribution to any document inside any
				// of them.
				a.Stats.BlocksSkipped += len(d.dl.blocks) - bi
				leak += d.qw * float64(b.Max)
				break
			}
			a.Stats.PostingsTouched += int(b.N)
			for _, p := range d.dl.postings[b.Off : b.Off+b.N] {
				v := d.qw * float64(p.Weight)
				if v == 0 {
					continue
				}
				old := acc[p.Doc]
				nw := old + v
				acc[p.Doc] = nw
				c := nw
				if c > 1 {
					c = 1
				}
				bn := histBucket(c)
				if old > 0 {
					o := old
					if o > 1 {
						o = 1
					}
					if bo := histBucket(o); bo != bn {
						a.hist[bo]--
						a.hist[bn]++
						dirty = true
					}
				} else {
					a.hist[bn]++
					dirty = true
				}
				if nw > maxAcc {
					maxAcc = nw
				}
			}
		}
	}

	// scoreExact rebuilds one document's score from the forward store:
	// ascending-dimension merge join, clamp, perturb — the dense loop's
	// exact product order. Needed only when a skip may have left the
	// accumulator short.
	scoreExact := func(doc int32) {
		dd := ix.docDims[ix.docOff[doc]:ix.docOff[doc+1]]
		dw := ix.docWts[ix.docOff[doc]:ix.docOff[doc+1]]
		a.Stats.PostingsTouched += len(dd)
		var s float64
		i, j := 0, 0
		for i < len(q.Dims) && j < len(dd) {
			switch {
			case q.Dims[i] < dd[j]:
				i++
			case q.Dims[i] > dd[j]:
				j++
			default:
				s += float64(q.Weights[i]) * float64(dw[j])
				i++
				j++
			}
		}
		if s > 1 {
			s = 1
		}
		id := ix.ids[doc]
		if perturb != nil {
			s += perturb(id)
		}
		h = pushHit(h, k, Hit{Doc: int(doc), ID: id, Score: s})
	}

	// Selection floor: the histogram now buckets final clamped
	// accumulators, each a lower bound on its document's final score
	// (accumulators only under-report when blocks were skipped, and the
	// perturbation only adds), so its k-deep edge lower-bounds the k-th
	// best final score and candidates provably below it never reach the
	// key heap.
	selFloor := histFloor(&a.hist, k)

	// Pack the surviving candidates. The clamped accumulator rounds UP to
	// float32, so each key still packs an upper bound and the pop-order
	// break below stays provable.
	keys := a.keys[:0]
	for doc := int32(0); doc < int32(n); doc++ {
		ub := acc[doc]
		if ub == 0 {
			continue
		}
		if ub > 1 {
			ub = 1
		}
		if ub+leak+perturbBound+boundSlack < selFloor {
			continue
		}
		f := float32(ub)
		if float64(f) < ub {
			f = math.Nextafter32(f, float32(math.Inf(1)))
		}
		keys = append(keys, uint64(math.Float32bits(f))<<32|uint64(^uint32(doc)))
	}
	a.keys = keys
	for i := len(keys)/2 - 1; i >= 0; i-- {
		siftDownKey(keys, i)
	}

	// Draw candidates best-bound-first. After k exact scores the heap
	// floor takes over from the selection floor: it only rises, popped
	// bounds only fall, so the first provably-out key ends the phase.
	for len(keys) > 0 {
		key := keys[0]
		if len(h) == k {
			bound := float64(math.Float32frombits(uint32(key>>32))) + leak
			if bound > 1 {
				bound = 1
			}
			if bound+perturbBound+boundSlack < h[0].Score {
				break
			}
		}
		last := len(keys) - 1
		keys[0] = keys[last]
		keys = keys[:last]
		siftDownKey(keys, 0)
		doc := int32(^uint32(key))
		a.Stats.DocsScored++
		if leak > 0 {
			scoreExact(doc)
			continue
		}
		// No skips: the accumulator replayed the dense loop exactly.
		s := acc[doc]
		if s > 1 {
			s = 1
		}
		id := ix.ids[doc]
		if perturb != nil {
			s += perturb(id)
		}
		h = pushHit(h, k, Hit{Doc: int(doc), ID: id, Score: s})
	}

	// Perturbation-only sweep: exhaustive scoring gives every document at
	// least clamp(0)+perturb. Skipping the sweep is itself a prune and
	// needs the same proof: the floor must beat a zero cosine. Whenever it
	// cannot (including an unfilled heap), no exclusion above fired either
	// — every bound there includes perturbBound plus a non-negative cosine
	// bound — so the unaccumulated documents are exactly the zero-overlap
	// ones.
	if !(len(h) == k && perturbBound+boundSlack < h[0].Score) {
		for doc := int32(0); doc < int32(n); doc++ {
			if acc[doc] != 0 {
				continue
			}
			a.Stats.DocsScored++
			var s float64
			id := ix.ids[doc]
			if perturb != nil {
				s += perturb(id)
			}
			h = pushHit(h, k, Hit{Doc: int(doc), ID: id, Score: s})
		}
	}
	a.hits = h
	return sortHits(h, a)
}
