package text

import (
	"hash/fnv"
	"math"
	"reflect"
	"strings"
	"testing"
	"unicode"
)

// EmbedTokens is the retired token-string form of Embed, over a
// stopword-filtered term stream, kept as the differential reference for
// the ContentDims kernel: EmbedTokens(ContentTokens(s)) must equal
// Embed(s) bit for bit.
func EmbedTokens(toks []string) Vector {
	var v Vector
	for _, t := range toks {
		v[HashToken(t)]++
	}
	v.normalise()
	return v
}

// legacyTokenize is the retired strings.Builder + strings.ToLower
// implementation, kept as the differential reference for the
// single-allocation rewrite.
func legacyTokenize(s string) []string {
	var toks []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			toks = append(toks, strings.ToLower(cur.String()))
			cur.Reset()
		}
	}
	prevLower := false
	prevDigit := false
	for _, r := range s {
		switch {
		case unicode.IsLetter(r):
			if (unicode.IsUpper(r) && prevLower) || prevDigit {
				flush()
			}
			cur.WriteRune(r)
			prevLower = unicode.IsLower(r)
			prevDigit = false
		case unicode.IsDigit(r):
			if !prevDigit && cur.Len() > 0 {
				flush()
			}
			cur.WriteRune(r)
			prevLower = false
			prevDigit = true
		default:
			flush()
			prevLower = false
			prevDigit = false
		}
	}
	flush()
	return toks
}

var tokenizeCases = []string{
	"",
	"isMarriedTo",
	"Alexander_III_of_Russia",
	"award3 Entity-17 N01",
	"Marie Curie was married to Pierre Curie.",
	"HTTPServer XMLHttpRequest iOS15Pro",
	"ümlaut Ärger ÊTRE déjà-vu",
	"mixed  \t whitespace\nand-punctuation!?",
	"٣ арабская цифра и КИРИЛЛИЦА",
	"a1b2c3",
}

func TestTokenizeMatchesLegacy(t *testing.T) {
	for _, s := range tokenizeCases {
		if got, want := Tokenize(s), legacyTokenize(s); !reflect.DeepEqual(got, want) {
			t.Errorf("Tokenize(%q) = %v, legacy = %v", s, got, want)
		}
	}
}

func FuzzTokenizeMatchesLegacy(f *testing.F) {
	for _, s := range tokenizeCases {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := Tokenize(s), legacyTokenize(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("Tokenize(%q) = %v, legacy = %v", s, got, want)
		}
	})
}

// TestCountTokensMatchesFields pins the in-place word count against the
// retired strings.Fields-based implementation.
func TestCountTokensMatchesFields(t *testing.T) {
	cases := append(append([]string{}, tokenizeCases...),
		"   leading", "trailing   ", " \t\n ", "one", "a b", "a b")
	for _, s := range cases {
		if got, want := CountTokens(s), countTokensFields(s); got != want {
			t.Errorf("CountTokens(%q) = %d, Fields reference = %d", s, got, want)
		}
	}
}

// countTokensFields is the retired strings.Fields-based CountTokens.
func countTokensFields(s string) int {
	if s == "" {
		return 0
	}
	return int(math.Ceil(float64(len(strings.Fields(s))) * 1.3))
}

// FuzzCountTokensMatchesFields checks the byte-classified word count
// against strings.Fields over arbitrary bytes: every ASCII and Unicode
// space, invalid UTF-8 included.
func FuzzCountTokensMatchesFields(f *testing.F) {
	for _, s := range tokenizeCases {
		f.Add(s)
	}
	for _, s := range []string{"a\u00a0b", "a\u0085b\u2003c", "\xff \xfe", "\v\f\r",
		"abcdefg hijklmno\t\n\v\f\r\x08\x0e  x y\x1f!~\x7f", "1234567\u00a0890 abcdefgh ijklmnop"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := CountTokens(s), countTokensFields(s); got != want {
			t.Fatalf("CountTokens(%q) = %d, Fields reference = %d", s, got, want)
		}
	})
}

// TestHashTokenMatchesFNV pins the inlined token hash against the original
// hash/fnv-based dimension mapping (the index's posting layout and every
// embedding depend on it).
func TestHashTokenMatchesFNV(t *testing.T) {
	fnvRef := func(tok string) int {
		h := fnv.New32a()
		h.Write([]byte(tok))
		return int(h.Sum32() & (VectorDim - 1))
	}
	for _, s := range tokenizeCases {
		for _, tok := range Tokenize(s) {
			if got, want := HashToken(tok), fnvRef(tok); got != want {
				t.Errorf("HashToken(%q) = %d, want %d", tok, got, want)
			}
		}
	}
}

// countBody is an evidence-shaped prompt body: what CountTokens sees on
// every simulated call.
var countBody = strings.Repeat("Marie Curie was married to Pierre Curie. Multiple records agree on this point.\n", 24)

func BenchmarkCountTokens(b *testing.B) {
	b.SetBytes(int64(len(countBody)))
	for i := 0; i < b.N; i++ {
		CountTokens(countBody)
	}
}
