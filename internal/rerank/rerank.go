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

// Scorer scores the relevance of a candidate text to a reference text.
type Scorer interface {
	// Score returns a relevance score in (0,1) of candidate w.r.t.
	// reference; higher is more relevant.
	Score(reference, candidate string) float64
	// Name identifies the scorer (model name in the paper's Table 4).
	Name() string
}

// VecScorer is a Scorer that can score precomputed sparse embeddings.
// ScoreVec must return exactly what Score(refText, candText) returns when
// ref and cand are the sparse embeddings of those texts — the vector form
// skips re-embedding, not any part of the score. Both raw texts still
// travel with the vectors because the deterministic noise component is
// keyed by the text pair, not the embeddings.
type VecScorer interface {
	Scorer
	// ScoreVec scores cand against ref from their sparse embeddings.
	ScoreVec(ref text.SparseVector, refText string, cand text.SparseVector, candText string) float64
}

// BatchScorer is a VecScorer that amortises per-reference state across a
// candidate batch (one reference is scored against up to CandidateCap
// documents per fact). The returned function must produce exactly what
// ScoreVec produces for the same reference and candidate.
type BatchScorer interface {
	VecScorer
	// ScoreBatch fixes the reference and returns the per-candidate scorer.
	ScoreBatch(ref text.SparseVector, refText string) func(cand text.SparseVector, candText string) float64
}

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

// Name implements Scorer.
func (c *CrossEncoder) Name() string { return c.name }

// Score implements Scorer: sigmoid(gain*cosine + bias + noise). It embeds
// both strings densely on every call — the reference implementation the
// sparse path is golden-tested against.
func (c *CrossEncoder) Score(reference, candidate string) float64 {
	cos := text.Similarity(reference, candidate)
	return c.calibrate(cos, reference, candidate)
}

// ScoreVec implements VecScorer over precomputed sparse embeddings. The
// sparse cosine is bit-identical to the dense one (see text.SparseCosine),
// and the noise is keyed by the same raw text pair, so ScoreVec ==
// Score(refText, candText) exactly.
func (c *CrossEncoder) ScoreVec(ref text.SparseVector, refText string, cand text.SparseVector, candText string) float64 {
	cos := text.SparseCosine(ref, cand)
	return c.calibrate(cos, refText, candText)
}

// ScoreBatch implements BatchScorer: the returned function scores
// candidates against the fixed reference, with the noise stream's
// ("rerank", model, reference) hash prefix computed once for the whole
// batch. Every value equals ScoreVec with the same reference.
func (c *CrossEncoder) ScoreBatch(ref text.SparseVector, refText string) func(cand text.SparseVector, candText string) float64 {
	key := det.NewKey("rerank", c.name, refText)
	return func(cand text.SparseVector, candText string) float64 {
		cos := text.SparseCosine(ref, cand)
		n := (key.Uniform(candText) - 0.5) * 2 * c.noise
		return text.Sigmoid(c.gain*cos + c.bias + n)
	}
}

// calibrate applies the sigmoid calibration and the text-pair-keyed noise
// shared by both scoring paths.
func (c *CrossEncoder) calibrate(cos float64, reference, candidate string) float64 {
	n := (det.Uniform("rerank", c.name, reference, candidate) - 0.5) * 2 * c.noise
	return text.Sigmoid(c.gain*cos + c.bias + n)
}

// Ranked pairs an index into the candidate slice with its score.
type Ranked struct {
	Index int
	Score float64
}

// Rank scores every candidate against the reference and returns them in
// descending score order (stable on ties by original index). When the
// scorer is vector-aware the reference is embedded exactly once instead of
// once per candidate; scores are identical either way.
func Rank(s Scorer, reference string, candidates []string) []Ranked {
	if vs, ok := s.(VecScorer); ok {
		cands := make([]Candidate, len(candidates))
		for i, c := range candidates {
			cands[i] = Candidate{Text: c, Vec: text.SparseEmbed(c)}
		}
		return RankVecs(vs, text.SparseEmbed(reference), reference, cands)
	}
	out := make([]Ranked, len(candidates))
	for i, c := range candidates {
		out[i] = Ranked{Index: i, Score: s.Score(reference, c)}
	}
	sortRanked(out)
	return out
}

// Candidate pairs a candidate text with its precomputed sparse embedding,
// the unit of the batch scoring API.
type Candidate struct {
	Text string
	Vec  text.SparseVector
}

// RankVecs is the batch form of Rank over precomputed embeddings: the
// reference vector is supplied by the caller (embedded once per fact, not
// per candidate) and every candidate carries its own precomputed vector —
// static corpus documents are embedded at materialisation, never re-embedded
// per rerank. Scores and order are identical to Rank over the same texts.
func RankVecs(s VecScorer, ref text.SparseVector, refText string, cands []Candidate) []Ranked {
	score := func(c Candidate) float64 { return s.ScoreVec(ref, refText, c.Vec, c.Text) }
	if bs, ok := s.(BatchScorer); ok {
		f := bs.ScoreBatch(ref, refText)
		score = func(c Candidate) float64 { return f(c.Vec, c.Text) }
	}
	out := make([]Ranked, len(cands))
	for i, c := range cands {
		out[i] = Ranked{Index: i, Score: score(c)}
	}
	sortRanked(out)
	return out
}

func sortRanked(out []Ranked) {
	// Stable on ties by original index, exactly like the retired
	// sort.SliceStable, without the reflection-based swapper.
	slices.SortStableFunc(out, func(a, b Ranked) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		}
		return 0
	})
}

// DenseOnly wraps a scorer so it exposes only the dense Score path, hiding
// any VecScorer fast path from Rank. It exists for the differential
// baseline: wrapping both rankers of a rag.Pipeline selects the dense
// scoring path, which benches and golden tests pin the sparse path
// byte-identical to.
func DenseOnly(s Scorer) Scorer { return denseOnly{s} }

type denseOnly struct{ s Scorer }

func (d denseOnly) Score(reference, candidate string) float64 { return d.s.Score(reference, candidate) }
func (d denseOnly) Name() string                              { return d.s.Name() }

// TopK returns the indices of the k highest-scoring candidates (all if
// k <= 0 or k exceeds the candidate count).
func TopK(s Scorer, reference string, candidates []string, k int) []Ranked {
	r := Rank(s, reference, candidates)
	if k > 0 && k < len(r) {
		r = r[:k]
	}
	return r
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
