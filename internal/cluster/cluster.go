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
// so results are deterministic.
func DBSCAN(points [][]float64, eps float64, minPts int) []int {
	n := len(points)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = Noise
	}
	visited := make([]bool, n)
	cluster := 0
	neighbors := func(i int) []int {
		var out []int
		for j := 0; j < n; j++ {
			if j != i && Euclidean(points[i], points[j]) <= eps {
				out = append(out, j)
			}
		}
		return out
	}
	for i := 0; i < n; i++ {
		if visited[i] {
			continue
		}
		visited[i] = true
		nb := neighbors(i)
		if len(nb)+1 < minPts {
			continue // noise (may later be absorbed as a border point)
		}
		labels[i] = cluster
		queue := append([]int(nil), nb...)
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
			nb2 := neighbors(j)
			if len(nb2)+1 >= minPts {
				queue = append(queue, nb2...)
			}
		}
		cluster++
	}
	return labels
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
