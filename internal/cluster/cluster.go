// Package cluster provides the embedding + dimensionality-reduction +
// density-clustering stack behind the qualitative error analysis (paper §7).
// The paper encodes LLM error explanations with cde-small-v1, reduces with
// UMAP and clusters with HDBSCAN; this package substitutes a hashed
// bag-of-words embedding, a seeded random projection, and a from-scratch
// density-based clusterer (DBSCAN-style with noise points), which yields the
// same artefact: groups of lexically similar explanations plus an unassigned
// remainder.
package cluster

import (
	"math"
	"sort"

	"factcheck/internal/det"
	"factcheck/internal/text"
)

// ReducedDim is the dimensionality after random projection (UMAP stand-in).
const ReducedDim = 16

// Embedder converts a text into a reduced dense vector.
type Embedder struct {
	// projection[i][j] is the weight of input dim j on output dim i.
	projection [][]float64
}

// NewEmbedder builds a deterministic random-projection embedder, seeded so
// every run produces identical coordinates.
func NewEmbedder(seed string) *Embedder {
	proj := make([][]float64, ReducedDim)
	for i := range proj {
		row := make([]float64, text.VectorDim)
		rng := det.Source("cluster-proj", seed, string(rune('a'+i)))
		for j := range row {
			// Sparse random projection (Achlioptas): +-1 with prob 1/6 each.
			u := rng.Float64()
			switch {
			case u < 1.0/6:
				row[j] = 1
			case u < 2.0/6:
				row[j] = -1
			}
		}
		proj[i] = row
	}
	return &Embedder{projection: proj}
}

// Embed returns the reduced, L2-normalised vector of s. Each projection
// row is dotted with the sparse embedding of s: its non-zero dimensions
// ascending are exactly the terms the dense product adds, in the same
// order, so the result is bit-identical to projecting text.Embed(s).
func (e *Embedder) Embed(s string) []float64 {
	tv := text.SparseEmbed(s)
	out := make([]float64, ReducedDim)
	var norm float64
	for i, row := range e.projection {
		var dot float64
		for k, j := range tv.Dims {
			if w := row[j]; w != 0 {
				dot += w * float64(tv.Weights[k])
			}
		}
		out[i] = dot
		norm += dot * dot
	}
	if norm > 0 {
		inv := 1 / math.Sqrt(norm)
		for i := range out {
			out[i] *= inv
		}
	}
	return out
}

// Euclidean returns the Euclidean distance between equal-length vectors.
func Euclidean(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Noise is the cluster label of unassigned points (HDBSCAN convention).
const Noise = -1

// DBSCAN clusters points by density: a point with at least minPts
// neighbours within eps seeds a cluster that expands through
// density-reachable points; the rest is Noise. Labels are returned
// per-point; cluster ids are dense, starting at 0, assigned in scan order
// so results are deterministic. All points must have the same dimension.
//
// The neighbourhood test is Euclidean(p, q) <= eps decided without the
// square root: the squared distance, summed exactly as Euclidean sums it,
// is compared with the largest s whose square root is within eps
// (sqThreshold), which makes every decision the same. Every unordered pair
// is tested once, before the expansion reads the neighbour lists; those
// lists take memory in proportion to the number of neighbour pairs, up to
// n(n-1) indexes when every point is within eps of every other.
func DBSCAN(points [][]float64, eps float64, minPts int) []int {
	n := len(points)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = Noise
	}
	if n == 0 {
		return labels
	}
	dim := len(points[0])
	flat := make([]float64, 0, n*dim)
	for _, p := range points {
		if len(p) != dim {
			panic("cluster: DBSCAN points of unequal dimension")
		}
		flat = append(flat, p...)
	}
	off, adj := neighbourLists(flat, n, dim, sqThreshold(eps))
	visited := make([]bool, n)
	// queued[j] == cluster+1 once j joined the current cluster's queue: a
	// second entry would find its label already set, so it is never added.
	queued := make([]int, n)
	var queue []int32
	cluster := 0
	for i := 0; i < n; i++ {
		if visited[i] {
			continue
		}
		visited[i] = true
		nb := adj[off[i]:off[i+1]]
		if len(nb)+1 < minPts {
			continue // noise (may later be absorbed as a border point)
		}
		labels[i] = cluster
		queued[i] = cluster + 1
		queue = enqueue(queue[:0], nb, queued, cluster+1)
		for k := 0; k < len(queue); k++ {
			j := queue[k]
			if labels[j] == Noise {
				labels[j] = cluster // border point
			}
			if visited[j] {
				continue
			}
			visited[j] = true
			labels[j] = cluster
			if nb := adj[off[j]:off[j+1]]; len(nb)+1 >= minPts {
				queue = enqueue(queue, nb, queued, cluster+1)
			}
		}
		cluster++
	}
	return labels
}

// enqueue appends the points of nb not yet stamped into the queue, stamping
// them.
func enqueue(queue, nb []int32, queued []int, stamp int) []int32 {
	for _, j := range nb {
		if queued[j] != stamp {
			queued[j] = stamp
			queue = append(queue, j)
		}
	}
	return queue
}

// neighbourLists returns every point's neighbours, ascending, as
// adj[off[i]:off[i+1]]: each j != i whose squared distance to point i is
// at most thr. flat holds the n points' coordinates row by row. Each pair
// i < j is summed once, from i: IEEE subtraction is antisymmetric, so the
// sum from j would be bit-identical. Four candidates are summed per step,
// each sum in Euclidean's own left-to-right order. A partial sum of
// non-negative terms never decreases under rounding, so once all four
// exceed thr halfway through, the step is decided.
func neighbourLists(flat []float64, n, dim int, thr float64) (off []int, adj []int32) {
	// upper[uoff[i]:uoff[i+1]] holds point i's neighbours j > i, ascending.
	uoff := make([]int, n+1)
	var upper []int32
	for i := 0; i < n; i++ {
		p := flat[i*dim : (i+1)*dim]
		half := len(p) / 2
		j := i + 1
		for ; j+4 <= n; j += 4 {
			q0 := flat[j*dim:][:len(p)]
			q1 := flat[(j+1)*dim:][:len(p)]
			q2 := flat[(j+2)*dim:][:len(p)]
			q3 := flat[(j+3)*dim:][:len(p)]
			var s0, s1, s2, s3 float64
			for k, x := range p[:half] {
				d0 := x - q0[k]
				s0 += d0 * d0
				d1 := x - q1[k]
				s1 += d1 * d1
				d2 := x - q2[k]
				s2 += d2 * d2
				d3 := x - q3[k]
				s3 += d3 * d3
			}
			if s0 > thr && s1 > thr && s2 > thr && s3 > thr {
				continue
			}
			for k := half; k < len(p); k++ {
				x := p[k]
				d0 := x - q0[k]
				s0 += d0 * d0
				d1 := x - q1[k]
				s1 += d1 * d1
				d2 := x - q2[k]
				s2 += d2 * d2
				d3 := x - q3[k]
				s3 += d3 * d3
			}
			for d, s := range [4]float64{s0, s1, s2, s3} {
				if s <= thr {
					upper = append(upper, int32(j+d))
				}
			}
		}
		for ; j < n; j++ {
			q := flat[j*dim:][:len(p)]
			var s float64
			for k, x := range p {
				d := x - q[k]
				s += d * d
			}
			if s <= thr {
				upper = append(upper, int32(j))
			}
		}
		uoff[i+1] = len(upper)
	}
	// Point a's list receives its neighbours i < a as the loop below
	// reaches them, then its own upper list: ascending throughout.
	off = make([]int, n+1)
	for _, j := range upper {
		off[j+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i] + uoff[i+1] - uoff[i]
	}
	adj = make([]int32, 2*len(upper))
	next := append([]int(nil), off[:n]...)
	for i := 0; i < n; i++ {
		for _, j := range upper[uoff[i]:uoff[i+1]] {
			adj[next[i]] = j
			next[i]++
			adj[next[j]] = int32(i)
			next[j]++
		}
	}
	return off, adj
}

// sqThreshold returns the largest s >= 0 with math.Sqrt(s) <= eps, or -1
// when there is none (eps negative or NaN). math.Sqrt is correctly
// rounded and so monotone, so for every s >= 0 (and NaN)
// math.Sqrt(s) <= eps exactly when s <= sqThreshold(eps). Non-negative
// float64s order like their bit patterns, so the bound is found by
// bisecting those.
func sqThreshold(eps float64) float64 {
	ok := func(bits uint64) bool { return math.Sqrt(math.Float64frombits(bits)) <= eps }
	lo, hi := uint64(0), math.Float64bits(math.Inf(1))
	switch {
	case !ok(lo):
		return -1
	case ok(hi):
		return math.Inf(1)
	}
	for hi-lo > 1 { // invariant: ok(lo) && !ok(hi)
		mid := lo + (hi-lo)/2
		if ok(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Float64frombits(lo)
}

// Sizes returns cluster id -> member count (excluding Noise), plus the
// noise count.
func Sizes(labels []int) (map[int]int, int) {
	sizes := map[int]int{}
	noise := 0
	for _, l := range labels {
		if l == Noise {
			noise++
			continue
		}
		sizes[l]++
	}
	return sizes, noise
}

// TopTerms returns the k most frequent content tokens of the texts in a
// cluster — the descriptive label assignment step of the paper's pipeline.
func TopTerms(texts []string, labels []int, cluster, k int) []string {
	freq := map[string]int{}
	for i, t := range texts {
		if labels[i] != cluster {
			continue
		}
		for _, tok := range text.ContentTokens(t) {
			freq[tok]++
		}
	}
	type tf struct {
		tok string
		n   int
	}
	all := make([]tf, 0, len(freq))
	for t, n := range freq {
		all = append(all, tf{t, n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].tok < all[j].tok
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].tok
	}
	return out
}
