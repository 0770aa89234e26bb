package rerank

import (
	"testing"
	"testing/quick"

	"factcheck/internal/text"
)

func TestScoreRange(t *testing.T) {
	ce := NewQuestionRanker()
	f := func(a, b string) bool {
		s := ce.Score(a, b)
		return s > 0 && s < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScoreDeterministic(t *testing.T) {
	ce := NewDocumentRanker()
	a := ce.Score("the reference text", "a candidate passage")
	b := ce.Score("the reference text", "a candidate passage")
	if a != b {
		t.Fatalf("scores differ: %f vs %f", a, b)
	}
}

func TestScoreOrdering(t *testing.T) {
	ce := NewQuestionRanker()
	ref := "Marie Curie was born in Warsaw."
	restate := "Is it true that Marie Curie was born in Warsaw?"
	loose := "Tell me about Marie Curie"
	unrelated := "Annual rainfall statistics for coastal regions"
	sRestate := ce.Score(ref, restate)
	sLoose := ce.Score(ref, loose)
	sUnrelated := ce.Score(ref, unrelated)
	if !(sRestate > sLoose && sLoose > sUnrelated) {
		t.Errorf("ordering violated: restate=%.3f loose=%.3f unrelated=%.3f",
			sRestate, sLoose, sUnrelated)
	}
	if sRestate < 0.7 {
		t.Errorf("restatement score %.3f, want >= 0.7 (high tier)", sRestate)
	}
	if sUnrelated > 0.4 {
		t.Errorf("unrelated score %.3f, want < 0.4 (low tier)", sUnrelated)
	}
}

func TestRankDescending(t *testing.T) {
	ce := NewQuestionRanker()
	ref := "The company was founded by the engineer."
	cands := []string{
		"Completely different subject matter",
		"Who founded the company?",
		"The engineer founded the company.",
	}
	ranked := ce.Rank(text.SparseEmbed(ref), ref, cands)
	if len(ranked) != 3 {
		t.Fatalf("ranked %d, want 3", len(ranked))
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Score > ranked[i-1].Score {
			t.Fatalf("not descending at %d", i)
		}
	}
	if ranked[0].Index == 0 {
		t.Error("unrelated candidate ranked first")
	}
}

func TestFilterThreshold(t *testing.T) {
	ranked := []Ranked{{0, 0.9}, {1, 0.6}, {2, 0.4}, {3, 0.1}}
	kept := FilterThreshold(ranked, 0.5)
	if len(kept) != 2 {
		t.Fatalf("kept %d, want 2", len(kept))
	}
	if kept[0].Index != 0 || kept[1].Index != 1 {
		t.Errorf("wrong candidates kept: %v", kept)
	}
	if n := len(FilterThreshold(ranked, 0)); n != 4 {
		t.Errorf("tau=0 kept %d, want 4", n)
	}
	if n := len(FilterThreshold(ranked, 1)); n != 0 {
		t.Errorf("tau=1 kept %d, want 0", n)
	}
}

func TestNames(t *testing.T) {
	if NewQuestionRanker().Name() != "jina-reranker-v1-turbo-en" {
		t.Error("question ranker name mismatch")
	}
	if NewDocumentRanker().Name() != "ms-marco-MiniLM-L-6-v2" {
		t.Error("document ranker name mismatch")
	}
}

func TestRankStableOnEmptyCandidates(t *testing.T) {
	if got := NewQuestionRanker().Rank(text.SparseEmbed("ref"), "ref", nil); len(got) != 0 {
		t.Errorf("Rank(nil) = %v", got)
	}
}
