package text

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// sparseCases covers the shapes the pipeline embeds: verbalised facts,
// synthetic document bodies, queries, repeated terms, camelCase KG strings,
// stopword-only and empty strings.
var sparseCases = []string{
	"",
	"the and of in on",
	"Marie Curie was married to Pierre Curie.",
	"Alexander_III_of_Russia isMarriedTo Maria Feodorovna",
	"Contrary to some claims, it is not the case that Lionel Messi plays for Madrid.",
	"award award award winner record record",
	"Regional news roundup: archive digest and weekly miscellany, site index",
	"Who founded the company that acquired the regional registry profile?",
	"a b c d e f g h i j k l m n o p q r s t u v w x y z",
	"N01 Entity-17 was born in City_03. Multiple records agree on this point.",
}

func TestSparseEmbedMatchesDense(t *testing.T) {
	for _, s := range sparseCases {
		sv := SparseEmbed(s)
		if sv.Dense() != Embed(s) {
			t.Errorf("SparseEmbed(%q).Dense() != Embed(%q)", s, s)
		}
	}
}

func TestSparseEmbedSortedDims(t *testing.T) {
	for _, s := range sparseCases {
		sv := SparseEmbed(s)
		for i := 1; i < len(sv.Dims); i++ {
			if sv.Dims[i] <= sv.Dims[i-1] {
				t.Fatalf("SparseEmbed(%q): dims not strictly ascending at %d: %v", s, i, sv.Dims)
			}
		}
		if len(sv.Dims) != len(sv.Weights) {
			t.Fatalf("SparseEmbed(%q): %d dims vs %d weights", s, len(sv.Dims), len(sv.Weights))
		}
	}
}

// TestSparseCosineMatchesDense is the substrate's core contract: sparse
// scores must be bit-identical to the dense path, since SERP rankings,
// rerank scores and result-store fingerprints all flow from them.
func TestSparseCosineMatchesDense(t *testing.T) {
	for i, a := range sparseCases {
		for j, b := range sparseCases {
			sparse := SparseCosine(SparseEmbed(a), SparseEmbed(b))
			dense := Cosine(Embed(a), Embed(b))
			if sparse != dense {
				t.Errorf("case (%d,%d): SparseCosine = %v, Cosine = %v (diff %g)",
					i, j, sparse, dense, math.Abs(sparse-dense))
			}
		}
	}
}

func TestSparseEmbedTokensMatchesEmbedTokens(t *testing.T) {
	for _, s := range sparseCases {
		toks := ContentTokens(s)
		if SparseEmbedTokens(toks).Dense() != EmbedTokens(toks) {
			t.Errorf("SparseEmbedTokens mismatch for %q", s)
		}
	}
}

func TestSparseNNZ(t *testing.T) {
	if got := SparseEmbed("").NNZ(); got != 0 {
		t.Errorf("empty NNZ = %d", got)
	}
	if got := SparseEmbed("alpha beta alpha").NNZ(); got != 2 {
		t.Errorf("NNZ = %d, want 2", got)
	}
}

var benchPair = [2]string{
	"Marie Curie was married to Pierre Curie and won the Nobel Prize in Physics.",
	"Contrary to some claims, it is not the case that Marie Curie was born in Paris; records place her birth in Warsaw.",
}

func BenchmarkSparseEmbed(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SparseEmbed(benchPair[1])
	}
}

func BenchmarkDenseEmbed(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Embed(benchPair[1])
	}
}

func BenchmarkSparseCosine(b *testing.B) {
	va, vb := SparseEmbed(benchPair[0]), SparseEmbed(benchPair[1])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SparseCosine(va, vb)
	}
}

func BenchmarkDenseCosine(b *testing.B) {
	va, vb := Embed(benchPair[0]), Embed(benchPair[1])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Cosine(va, vb)
	}
}

// FuzzSparseMatchesDense cross-checks the sparse and dense paths over
// arbitrary inputs.
func FuzzSparseMatchesDense(f *testing.F) {
	for _, s := range sparseCases {
		f.Add(s, "reference sentence about a subject")
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		if SparseEmbed(a).Dense() != Embed(a) {
			t.Fatalf("SparseEmbed(%q) != Embed", a)
		}
		if got, want := SparseCosine(SparseEmbed(a), SparseEmbed(b)), Cosine(Embed(a), Embed(b)); got != want {
			t.Fatalf("cosine mismatch for (%q, %q): %v vs %v", a, b, got, want)
		}
	})
}

// kernelSeeds are the shapes the kernel embeds in production — corpus
// document titles and bodies, verbalised facts, KG identifiers — plus the
// inputs where its ASCII fast path hands over to the unicode tables:
// invalid UTF-8, and non-ASCII letters and digits whose case mapping or
// class differs from ASCII (İ lower-cases to ASCII i, ǅ is title case, Σ
// has a context-free lower form, ٣ is an Arabic-Indic digit).
var kernelSeeds = []string{
	"Alexander III of Russia and Maria Feodorovna: the record",
	"Alexander III of Russia - profile and notes",
	"Regional news roundup",
	"Marie Curie was married to Pierre Curie. Multiple records agree on this point. Marie Curie appears in multiple regional registries.",
	"Contrary to some claims, it is not the case that Lionel Messi plays for Real Madrid. This page is part of a curated collection of reference material.",
	"General interest material unrelated to the query. Readers frequently consult this entry for background information.",
	"isMarriedTo birthPlace award3 N01 HTTPServer",
	"\xff\xfe broken \xc3 utf8 \xe2\x82",
	"İstanbul İSTANBUL ǅemal ǅ ΣΊΣΥΦΟΣ σίσυφος ٣ abc٣def ٣٣x",
	"ＦＵＬＬwidth Ⅻ ½ ²³ ǈǋ ß ẞ",
	strings.Repeat("echo ", 15) + strings.Repeat("chamber ", 16) + strings.Repeat("reverb ", 40),
}

// FuzzSparseEmbedMatchesTokens checks the allocation-free kernel against
// the token-string path it replaced: for arbitrary bytes, SparseEmbed must
// equal SparseEmbedTokens(ContentTokens(s)), and its dense form must equal
// Embed (itself a kernel consumer) and EmbedTokens (the string reference).
func FuzzSparseEmbedMatchesTokens(f *testing.F) {
	for _, s := range append(append([]string{}, sparseCases...), kernelSeeds...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		toks := ContentTokens(s)
		got := SparseEmbed(s)
		if want := SparseEmbedTokens(toks); !reflect.DeepEqual(got, want) {
			t.Fatalf("SparseEmbed(%q) = %v, token path = %v", s, got, want)
		}
		if got.Dense() != Embed(s) {
			t.Fatalf("SparseEmbed(%q).Dense() != Embed", s)
		}
		if Embed(s) != EmbedTokens(toks) {
			t.Fatalf("Embed(%q) != EmbedTokens(ContentTokens)", s)
		}
	})
}

// TestSparseEmbedAllocs pins the kernel's allocation budget: the result's
// Dims and Weights slices, and nothing per token.
func TestSparseEmbedAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { SparseEmbed(benchPair[1]) }); n > 3 {
		t.Errorf("SparseEmbed allocates %v times per call, want at most 3", n)
	}
}

func ExampleSparseEmbed() {
	v := SparseEmbed("alpha beta alpha")
	fmt.Println(v.NNZ())
	// Output: 2
}
