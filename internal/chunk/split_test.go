package chunk

import (
	"reflect"
	"strings"
	"testing"
)

// slidingJoin is the retired strings.Join implementation of Sliding, kept
// as the differential reference for the offset-based rewrite.
func slidingJoin(docID, t string, window int) []Chunk {
	if window <= 0 {
		window = DefaultWindow
	}
	sents := SplitSentences(t)
	if len(sents) == 0 {
		return nil
	}
	if len(sents) <= window {
		return []Chunk{{DocID: docID, Seq: 0, Text: strings.Join(sents, " ")}}
	}
	out := make([]Chunk, 0, len(sents)-window+1)
	for i := 0; i+window <= len(sents); i++ {
		out = append(out, Chunk{
			DocID: docID,
			Seq:   i,
			Text:  strings.Join(sents[i:i+window], " "),
		})
	}
	return out
}

// splitCases mirrors the synthetic corpus's body shapes: multi-space runs,
// terminator-free tails, empty and whitespace-only bodies.
var splitCases = []string{
	"",
	"   ",
	"One.",
	"One. Two. Three.",
	"A question? An exclamation! A statement.",
	"No terminator at end",
	"Marie Curie was married to Pierre Curie. Multiple records agree on this point. Archivists consider the records largely consistent. This page is part of a curated collection. Readers frequently consult this entry.",
	"Contrary to some claims, it is not the case that X plays for Y.  Double  spaced.  tail fragment",
	"S1. S2. S3. S4. S5. S6. S7. S8. S9. S10.",
}

// TestSlidingMatchesJoinReference pins the rewrite byte-identical to the
// retired per-window strings.Join across window sizes, including the
// degenerate ones.
func TestSlidingMatchesJoinReference(t *testing.T) {
	for _, tc := range splitCases {
		for _, w := range []int{-1, 0, 1, 2, 3, 5, 50} {
			got := Sliding("doc", tc, w)
			want := slidingJoin("doc", tc, w)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("Sliding(%q, w=%d) = %#v, want %#v", tc, w, got, want)
			}
		}
	}
}

// TestSplitWindowsShareBacking asserts the zero-copy property: every chunk
// of a multi-sentence document is a substring of the one Joined string.
func TestSplitWindowsShareBacking(t *testing.T) {
	sp := NewSplit("S1. S2. S3. S4. S5.")
	for _, c := range sp.Windows("d", 3) {
		if !strings.Contains(sp.Joined, c.Text) {
			t.Errorf("chunk %q not a substring of Joined %q", c.Text, sp.Joined)
		}
	}
	if sp.Sentences() != 5 {
		t.Errorf("Sentences = %d, want 5", sp.Sentences())
	}
}

var benchBody = "Entity one was born in City three. Multiple records agree on this point. " +
	"Archivists consider the records about the subject largely consistent. " +
	"This page is part of a curated collection of reference material. " +
	"Readers frequently consult this entry for background information. " +
	"The subject appears in multiple regional registries."

func BenchmarkSliding(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Sliding("d", benchBody, 3)
	}
}

func BenchmarkSlidingJoinReference(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		slidingJoin("d", benchBody, 3)
	}
}

func BenchmarkSplitWindowsWarm(b *testing.B) {
	sp := NewSplit(benchBody)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.Windows("d", 3)
	}
}
