package rerank

import (
	"math"
	"sort"
	"testing"

	"factcheck/internal/corpus"
	"factcheck/internal/dataset"
	"factcheck/internal/question"
	"factcheck/internal/search"
	"factcheck/internal/text"
	"factcheck/internal/verbalize"
	"factcheck/internal/world"
)

var scorePairs = []struct{ ref, cand string }{
	{"Marie Curie was married to Pierre Curie.", "Marie Curie and Pierre Curie: the record"},
	{"Marie Curie was married to Pierre Curie.", "Regional news roundup"},
	{"Who founded the company?", "The company was founded by its chairman in 1901."},
	{"", "non-empty candidate"},
	{"shared tokens only", "shared tokens only"},
}

// denseRank is the reference ranking: every candidate scored densely with
// Score, stably sorted by descending score.
func denseRank(c *CrossEncoder, reference string, candidates []string) []Ranked {
	out := make([]Ranked, len(candidates))
	for i, t := range candidates {
		out[i] = Ranked{Index: i, Score: c.Score(reference, t)}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out
}

// sameRanking reports whether got and want hold the same indices with
// bit-identical scores in the same order.
func sameRanking(got, want []Ranked) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Index != want[i].Index || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return false
		}
	}
	return true
}

// TestScoreBatchMatchesScore pins the batch scorer over sparse embeddings
// bit-identical to the dense Score for both calibration profiles.
func TestScoreBatchMatchesScore(t *testing.T) {
	for _, ce := range []*CrossEncoder{NewQuestionRanker(), NewDocumentRanker()} {
		for _, p := range scorePairs {
			dense := ce.Score(p.ref, p.cand)
			sparse := ce.ScoreBatch(text.SparseEmbed(p.ref), p.ref)(text.SparseEmbed(p.cand), p.cand)
			if math.Float64bits(dense) != math.Float64bits(sparse) {
				t.Errorf("%s: ScoreBatch(%q, %q) = %v, Score = %v", ce.Name(), p.ref, p.cand, sparse, dense)
			}
		}
	}
}

// TestRankFastPathMatchesDense pins Rank (the reference embedded once,
// each candidate once) against ranking by the per-call dense Score. The
// candidates repeat, past the length a sort finishes by insertion, so
// tied scores must keep their input order.
func TestRankFastPathMatchesDense(t *testing.T) {
	ce := NewQuestionRanker()
	ref := "Marie Curie was married to Pierre Curie."
	var cands []string
	for range 4 {
		cands = append(cands,
			"Who was Marie Curie married to?",
			"Was Marie Curie married to Pierre Curie?",
			"Which prize did Marie Curie win?",
			"Regional news roundup",
			"",
		)
	}
	fast := ce.Rank(text.SparseEmbed(ref), ref, cands)
	if slow := denseRank(ce, ref, cands); !sameRanking(fast, slow) {
		t.Fatalf("Rank %v != dense ranking %v", fast, slow)
	}
}

// TestRAGFixtureScoresMatchScore scores every (sentence, question) and
// every (sentence, document) pair the RAG pipeline scores on its test
// fixture (FactBench at 0.1 on the small world), as the pipeline does:
// questions through Rank, and documents through one ScoreBatch per fact
// over the pool's precomputed vectors and Full strings. Every score must
// equal the dense Score bit for bit, and the question ranking the dense
// ranking.
func TestRAGFixtureScoresMatchScore(t *testing.T) {
	w := world.New(world.SmallConfig())
	d := dataset.Build(w, dataset.FactBench, 0.1)
	e := search.NewEngine(corpus.NewGenerator(w), d)
	qr, dr := NewQuestionRanker(), NewDocumentRanker()
	if len(d.Facts) < 3 {
		t.Fatalf("fixture has %d facts, need >= 3", len(d.Facts))
	}
	pairs := 0
	for _, f := range d.Facts {
		sentence := verbalize.Sentence(f)
		sentVec := text.SparseEmbed(sentence)

		qs := question.Generate(f, question.DefaultK)
		texts := make([]string, len(qs))
		for i := range qs {
			texts[i] = qs[i].Text
		}
		if got, want := qr.Rank(sentVec, sentence, texts), denseRank(qr, sentence, texts); !sameRanking(got, want) {
			t.Fatalf("fact %s: question ranking %v, dense %v", f.ID, got, want)
		}
		pairs += len(texts)

		pool, err := e.Pool(f.ID)
		if err != nil {
			t.Fatal(err)
		}
		score := dr.ScoreBatch(sentVec, sentence)
		for r := 0; r < pool.Len(); r++ {
			full := pool.Full(r)
			got, want := score(pool.Vec(r), full), dr.Score(sentence, full)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("fact %s row %d: document score %v, dense %v", f.ID, r, got, want)
			}
			pairs++
		}
	}
	t.Logf("%d facts, %d pairs", len(d.Facts), pairs)
}

// FuzzScoreBatchMatchesScore pins both rankers' batch scorer and Rank to
// the dense Score on arbitrary reference and candidate strings.
func FuzzScoreBatchMatchesScore(f *testing.F) {
	for _, p := range scorePairs {
		f.Add(p.ref, p.cand)
	}
	f.Add("naïve café — ÜBER", "\xff\xfe camelCaseToken snake_case_token 42x")
	f.Fuzz(func(t *testing.T, ref, cand string) {
		refVec, candVec := text.SparseEmbed(ref), text.SparseEmbed(cand)
		for _, ce := range []*CrossEncoder{NewQuestionRanker(), NewDocumentRanker()} {
			want := ce.Score(ref, cand)
			if got := ce.ScoreBatch(refVec, ref)(candVec, cand); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: ScoreBatch(%q, %q) = %v, Score = %v", ce.Name(), ref, cand, got, want)
			}
			got := ce.Rank(refVec, ref, []string{cand, ref})
			if want := denseRank(ce, ref, []string{cand, ref}); !sameRanking(got, want) {
				t.Fatalf("%s: Rank = %v, dense %v", ce.Name(), got, want)
			}
		}
	})
}
