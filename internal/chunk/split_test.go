package chunk

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"factcheck/internal/corpus"
	"factcheck/internal/dataset"
	"factcheck/internal/world"
)

// splitSentences is the retired rune-by-rune segmentation NewSplit
// replaced, kept as its oracle: each rune (invalid UTF-8 decoding to
// U+FFFD) is appended to the current sentence, which ends at '.', '!' or
// '?' and is kept when it is not empty after strings.TrimSpace.
func splitSentences(s string) []string {
	var out []string
	var cur strings.Builder
	for _, r := range s {
		cur.WriteRune(r)
		if r == '.' || r == '!' || r == '?' {
			sent := strings.TrimSpace(cur.String())
			if sent != "" {
				out = append(out, sent)
			}
			cur.Reset()
		}
	}
	if tail := strings.TrimSpace(cur.String()); tail != "" {
		out = append(out, tail)
	}
	return out
}

// slidingJoin is the retired strings.Join implementation of Sliding, kept
// as the differential reference for the offset-based rewrite.
func slidingJoin(docID, t string, window int) []Chunk {
	if window <= 0 {
		window = DefaultWindow
	}
	sents := splitSentences(t)
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

// FuzzNewSplitMatchesRunes holds NewSplit to the rune-by-rune oracle:
// Joined is the oracle's sentences joined by single spaces, and each
// sentence ends where the oracle's does.
func FuzzNewSplitMatchesRunes(f *testing.F) {
	for _, s := range splitCases {
		f.Add(s)
	}
	for _, s := range []string{
		"\xff.", "A\xff. B\xfe", "One. \xe2\x80 Two.",
		"One. Two.", " One. Two. ", "One.  Two. ", "One.\u0085Two.\u0085 Three",
		"One.\u00a0Two.", "\u2003One. \u00a0Two.\u2003", "One. \u2003 Two. \u00a0",
		"One.  Two.   Three.", "One.\tTwo.", "One. Two.\nThree.", "One.\tTwo.\nThree.\r\nFour.\v\fFive.",
		"no terminal punctuation", "  padded fragment  ",
		"...", "?!.", " . ! ? ", "Is it?Yes!No.",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want := splitSentences(s)
		sp := NewSplit(s)
		if joined := strings.Join(want, " "); sp.Joined != joined {
			t.Fatalf("NewSplit(%q).Joined = %q, want %q", s, sp.Joined, joined)
		}
		if sp.Sentences() != len(want) {
			t.Fatalf("NewSplit(%q) has %d sentences, want %d", s, sp.Sentences(), len(want))
		}
		off := 0
		for i, w := range want {
			off += len(w)
			if sp.ends[i] != off {
				t.Fatalf("NewSplit(%q): sentence %d ends at %d, want %d", s, i, sp.ends[i], off)
			}
			off++
		}
	})
}

// TestSplitOfVariantBodyCopiesNoText pins NewSplit's zero-copy path on the
// text it serves: for every generated document body of the small grid,
// Joined lies inside the body, and for every 16th body a split allocates
// at most the Split and its ends.
func TestSplitOfVariantBodyCopiesNoText(t *testing.T) {
	w := world.New(world.SmallConfig())
	g := corpus.NewGenerator(w)
	checked := 0
	for _, d := range dataset.Universe(w, 0.05) {
		for _, f := range d.Facts {
			for _, v := range g.Materialize(f).Variants {
				if v.Text == "" {
					continue
				}
				sp := NewSplit(v.Text)
				body := uintptr(unsafe.Pointer(unsafe.StringData(v.Text)))
				at := uintptr(unsafe.Pointer(unsafe.StringData(sp.Joined)))
				if at < body || at+uintptr(len(sp.Joined)) > body+uintptr(len(v.Text)) {
					t.Fatalf("%s: Joined %q is not a substring of body %q", f.ID, sp.Joined, v.Text)
				}
				if checked%16 == 0 {
					if n := testing.AllocsPerRun(10, func() { NewSplit(v.Text) }); n > 2 {
						t.Fatalf("%s: NewSplit(%q) makes %v allocations, want at most 2", f.ID, v.Text, n)
					}
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no document body checked")
	}
}
