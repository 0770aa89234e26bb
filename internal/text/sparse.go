package text

import (
	"math"
	"slices"
)

// SparseVector is the sparse form of a hashed term vector: the non-zero
// dimensions of the equivalent dense Vector, ascending, with their weights.
// A typical sentence has 10–40 non-zero terms out of VectorDim = 1024, so
// sparse embedding and scoring touch two orders of magnitude less data than
// the dense path while producing bit-identical numbers (see SparseCosine).
type SparseVector struct {
	// Dims holds the non-zero hashed dimensions in strictly ascending order.
	Dims []int32
	// Weights holds the matching term weights, (1+log tf)/‖v‖, exactly as
	// Embed computes them.
	Weights []float32
}

// NNZ returns the number of non-zero dimensions.
func (v SparseVector) NNZ() int { return len(v.Dims) }

// Dense expands the sparse vector to its dense equivalent. It is the
// bridge used by equivalence tests and dense-only consumers.
func (v SparseVector) Dense() Vector {
	var d Vector
	for i, dim := range v.Dims {
		d[dim] = v.Weights[i]
	}
	return d
}

// SparseEmbed is Embed producing a SparseVector: Dense() of the result is
// bit-identical to Embed(s). It runs the ContentDims kernel into stack
// scratch, so the only allocations are the result's two slices.
func SparseEmbed(s string) SparseVector {
	var scratch [embedScratch]int32
	return SparseEmbedDims(ContentDims(s, scratch[:0]))
}

// SparseEmbedTokens is SparseEmbed over an already-tokenised term stream
// (stopwords must already be removed): the token-string reference for
// SparseEmbed.
func SparseEmbedTokens(toks []string) SparseVector {
	dims := make([]int32, len(toks))
	for i, t := range toks {
		dims[i] = int32(HashToken(t))
	}
	return SparseEmbedDims(dims)
}

// smallTFWeights caches tfWeight for the term frequencies nearly every
// term has.
var smallTFWeights = func() (w [16]float32) {
	for tf := 1; tf < len(w); tf++ {
		w[tf] = float32(1 + math.Log(float64(float32(tf))))
	}
	return w
}()

// tfWeight is the damped weight 1+log(tf) of a term seen tf times, before
// normalisation. Dense Embed counts tf by float32 increments; integer run
// lengths convert to the same float32 values exactly.
func tfWeight(tf int) float32 {
	if tf < len(smallTFWeights) {
		return smallTFWeights[tf]
	}
	return float32(1 + math.Log(float64(float32(tf))))
}

// SparseEmbedDims is the tail every sparse embedder shares: given the
// hashed dimension of each content token (ContentDims output, any order),
// it sorts dims in place, run-length counts the terms and normalises. The
// weights are computed in ascending dimension order — the order Embed's
// dense loops visit non-zero entries — so every float
// operation matches the dense path and the result is bit-identical. The
// result never aliases dims, so callers may pass reusable scratch.
func SparseEmbedDims(dims []int32) SparseVector {
	if len(dims) == 0 {
		return SparseVector{}
	}
	slices.Sort(dims)
	nnz := 1
	for i := 1; i < len(dims); i++ {
		if dims[i] != dims[i-1] {
			nnz++
		}
	}

	out := SparseVector{
		Dims:    make([]int32, 0, nnz),
		Weights: make([]float32, 0, nnz),
	}
	var norm float64
	for i := 0; i < len(dims); {
		j := i + 1
		for j < len(dims) && dims[j] == dims[i] {
			j++
		}
		w := tfWeight(j - i)
		out.Dims = append(out.Dims, dims[i])
		out.Weights = append(out.Weights, w)
		norm += float64(w) * float64(w)
		i = j
	}
	if norm > 0 {
		inv := float32(1 / math.Sqrt(norm))
		for i := range out.Weights {
			out.Weights[i] *= inv
		}
	}
	return out
}

// SparseCosine returns the cosine similarity of two sparse vectors,
// bit-identical to Cosine over their dense equivalents: the merge join
// visits shared dimensions in ascending order — the order the dense loop
// adds non-zero products — and the dimensions it skips contribute exactly
// +0.0 to the dense accumulator, an identity under IEEE-754 addition for
// the non-negative partial sums involved.
func SparseCosine(a, b SparseVector) float64 {
	var dot float64
	i, j := 0, 0
	for i < len(a.Dims) && j < len(b.Dims) {
		switch {
		case a.Dims[i] < b.Dims[j]:
			i++
		case a.Dims[i] > b.Dims[j]:
			j++
		default:
			dot += float64(a.Weights[i]) * float64(b.Weights[j])
			i++
			j++
		}
	}
	if dot > 1 {
		dot = 1
	}
	if dot < -1 {
		dot = -1
	}
	return dot
}
