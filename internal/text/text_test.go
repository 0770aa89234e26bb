package text

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"Hello World", []string{"hello", "world"}},
		{"isMarriedTo", []string{"is", "married", "to"}},
		{"Alexander_III_of_Russia", []string{"alexander", "iii", "of", "russia"}},
		{"birthPlace", []string{"birth", "place"}},
		{"camelCase snake_case", []string{"camel", "case", "snake", "case"}},
		{"ABCDef", []string{"abcdef"}}, // uppercase runs stay together
		{"year 1984!", []string{"year", "1984"}},
		{"", nil},
		{"...", nil},
	}
	for _, tc := range tests {
		got := Tokenize(tc.in)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestContentTokensDropsStopwords(t *testing.T) {
	got := ContentTokens("the cat was born in the city")
	want := []string{"cat", "born", "city"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ContentTokens = %v, want %v", got, want)
	}
}

func TestEmbedNormalised(t *testing.T) {
	v := Embed("the quick brown fox jumps over the lazy dog")
	var norm float64
	for _, x := range v {
		norm += float64(x) * float64(x)
	}
	if math.Abs(norm-1) > 1e-5 {
		t.Errorf("embedding norm^2 = %f, want 1", norm)
	}
}

func TestEmbedEmptyIsZero(t *testing.T) {
	v := Embed("the was in of")
	for i, x := range v {
		if x != 0 {
			t.Fatalf("stopword-only embedding has non-zero dim %d", i)
		}
	}
}

func TestCosineIdentity(t *testing.T) {
	s := "marie curie received the nobel prize"
	if got := Similarity(s, s); math.Abs(got-1) > 1e-5 {
		t.Errorf("self-similarity = %f, want 1", got)
	}
}

func TestCosineOrthogonal(t *testing.T) {
	got := Similarity("alpha beta gamma", "delta epsilon zeta")
	if got > 0.05 {
		t.Errorf("disjoint texts similarity = %f, want ~0", got)
	}
}

func TestSimilarityOrdering(t *testing.T) {
	ref := "Marie Curie was born in Warsaw."
	near := "Was Marie Curie born in Warsaw?"
	far := "The committee discussed agricultural policy."
	if Similarity(ref, near) <= Similarity(ref, far) {
		t.Error("paraphrase scored no higher than unrelated text")
	}
}

func TestCosineRangeProperty(t *testing.T) {
	f := func(a, b string) bool {
		c := Similarity(a, b)
		return c >= -1.000001 && c <= 1.000001 && !math.IsNaN(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCosineSymmetryProperty(t *testing.T) {
	f := func(a, b string) bool {
		return math.Abs(Similarity(a, b)-Similarity(b, a)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSigmoid(t *testing.T) {
	if got := Sigmoid(0); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("Sigmoid(0) = %f, want 0.5", got)
	}
	if Sigmoid(10) < 0.99 || Sigmoid(-10) > 0.01 {
		t.Error("Sigmoid saturation wrong")
	}
	// Sigmoid saturates to exactly 0/1 at float64 extremes; the closed
	// interval is the contract.
	f := func(x float64) bool {
		s := Sigmoid(x)
		return s >= 0 && s <= 1 || math.IsNaN(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCountTokens(t *testing.T) {
	if got := CountTokens(""); got != 0 {
		t.Errorf("CountTokens(\"\") = %d, want 0", got)
	}
	// 10 words * 1.3 = 13.
	s := "one two three four five six seven eight nine ten"
	if got := CountTokens(s); got != 13 {
		t.Errorf("CountTokens(10 words) = %d, want 13", got)
	}
}

func TestHashTokenInRange(t *testing.T) {
	f := func(tok string) bool {
		h := HashToken(tok)
		return h >= 0 && h < VectorDim
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestStopwordsCanonical asserts every stopword is in canonical token form:
// Tokenize must emit the word itself, unchanged. A stopword that Tokenize
// can never produce (e.g. one carrying punctuation, like the old "did."
// entry) is dead weight and a sign of a transcription error.
func TestStopwordsCanonical(t *testing.T) {
	for w := range stopwords {
		toks := Tokenize(w)
		if len(toks) != 1 || toks[0] != w {
			t.Errorf("stopword %q is not in canonical token form: Tokenize(%q) = %v", w, w, toks)
		}
	}
}

// TestEmbedTokensMatchesEmbed pins the contract the inverted index relies
// on: embedding a pre-tokenised term stream is bit-identical to embedding
// the source string.
func TestEmbedTokensMatchesEmbed(t *testing.T) {
	for _, s := range []string{
		"",
		"the cat was born in the city",
		"Alexander_III_of_Russia isMarriedTo someone",
		"repeated repeated repeated words words",
	} {
		a := Embed(s)
		b := EmbedTokens(ContentTokens(s))
		if a != b {
			t.Errorf("EmbedTokens(ContentTokens(%q)) differs from Embed", s)
		}
	}
}
