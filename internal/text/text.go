// Package text provides the lexical substrate used across FactCheck:
// tokenisation, stopword filtering, hashed term vectors, and similarity
// measures. It stands in for the neural encoders the paper uses
// (jina-reranker, ms-marco-MiniLM, bge-small) with a deterministic,
// dependency-free lexical model exposing the same score contract
// (similarity in [0,1]).
package text

import (
	"math"
	"math/bits"
	"unicode"
	"unicode/utf8"
)

// stopwords is a compact English stopword list. Verification sentences are
// short, so an aggressive list would destroy signal; this list removes only
// high-frequency function words.
var stopwords = map[string]bool{
	"a": true, "an": true, "the": true, "and": true, "or": true, "of": true,
	"in": true, "on": true, "at": true, "to": true, "for": true, "by": true,
	"is": true, "was": true, "are": true, "were": true, "be": true, "been": true,
	"it": true, "its": true, "this": true, "that": true, "with": true,
	"as": true, "from": true, "has": true, "have": true, "had": true,
	"do": true, "does": true, "did": true, "not": true, "no": true,
	"he": true, "she": true, "they": true, "his": true, "her": true,
	"their": true, "who": true, "which": true, "what": true, "when": true,
	"where": true, "how": true, "why": true,
}

// stopByDim lists, per hashed dimension, the stopwords that hash to it.
// ContentDims hashes every token anyway, so it matches a token only
// against the stopwords sharing its dimension — usually none — comparing
// bytes without building a string.
var stopByDim = func() (byDim [VectorDim][]string) {
	for w := range stopwords {
		d := HashToken(w)
		byDim[d] = append(byDim[d], w)
	}
	return byDim
}()

// tokenizer is the one tokenisation state machine behind every lexical
// consumer: Tokenize turns its tokens into strings, ContentDims hashes them
// in place. It splits camelCase and snake_case identifiers (common in KG
// predicates such as isMarriedTo or Alexander_III_of_Russia) so that
// KG-encoded strings and natural language share a token space. ASCII bytes
// are classified and lower-cased by byte arithmetic; runes at or above
// utf8.RuneSelf fall back to the unicode tables, so the token stream is
// exactly the one a rune-by-rune unicode scan produces.
type tokenizer struct {
	s   string
	pos int
	// prevLower and prevDigit describe the last rune appended to a token;
	// they drive the camelCase and digit-letter boundary rules.
	prevLower, prevDigit bool
}

// next writes the next lower-cased token over buf and returns it, empty
// once s is exhausted. Passing the previous token back in as buf reuses
// its storage, so a scan allocates only if a token outgrows the buffer.
//
// A token ends at a rune that is neither letter nor digit, at a
// lower-to-upper case change ("isMarriedTo" -> is married to), and at a
// change between digits and letters ("award3" -> award 3). A boundary that
// falls on a letter or digit returns the finished token without consuming
// that rune; the next call appends it to a fresh token.
func (t *tokenizer) next(buf []byte) []byte {
	buf = buf[:0]
	for t.pos < len(t.s) {
		var r rune
		var letter, digit, upper, lower bool
		size := 1
		if c := t.s[t.pos]; c < utf8.RuneSelf {
			switch {
			case 'a' <= c && c <= 'z':
				letter, lower = true, true
			case 'A' <= c && c <= 'Z':
				letter, upper = true, true
				c += 'a' - 'A'
			case '0' <= c && c <= '9':
				digit = true
			}
			r = rune(c)
		} else {
			r, size = utf8.DecodeRuneInString(t.s[t.pos:])
			switch {
			case unicode.IsLetter(r):
				letter, upper, lower = true, unicode.IsUpper(r), unicode.IsLower(r)
				r = unicode.ToLower(r)
			case unicode.IsDigit(r):
				digit = true
			}
		}
		switch {
		case letter:
			if ((upper && t.prevLower) || t.prevDigit) && len(buf) > 0 {
				return buf
			}
			t.prevLower, t.prevDigit = lower, false
		case digit:
			if !t.prevDigit && len(buf) > 0 {
				return buf
			}
			t.prevLower, t.prevDigit = false, true
		default:
			t.pos += size
			t.prevLower, t.prevDigit = false, false
			if len(buf) > 0 {
				return buf
			}
			continue
		}
		t.pos += size
		if r < utf8.RuneSelf {
			buf = append(buf, byte(r))
		} else {
			buf = utf8.AppendRune(buf, r)
		}
		if lower {
			// ASCII lower-case letters after a lower-case letter continue
			// the token and leave the state as it is: take the run at once.
			j := t.pos
			for j < len(t.s) && 'a' <= t.s[j] && t.s[j] <= 'z' {
				j++
			}
			buf = append(buf, t.s[t.pos:j]...)
			t.pos = j
		}
	}
	return buf
}

// Tokenize splits s into lower-cased word tokens, one string per token,
// splitting camelCase, snake_case and digit-letter boundaries as well as
// non-alphanumeric runes ("isMarriedTo" -> is married to).
func Tokenize(s string) []string {
	var toks []string
	t := tokenizer{s: s}
	for tok := t.next(make([]byte, 0, 32)); len(tok) > 0; tok = t.next(tok) {
		toks = append(toks, string(tok))
	}
	return toks
}

// ContentTokens returns Tokenize(s) with stopwords removed.
func ContentTokens(s string) []string {
	toks := Tokenize(s)
	out := toks[:0]
	for _, t := range toks {
		if !stopwords[t] {
			out = append(out, t)
		}
	}
	return out
}

// ContentDims appends the hashed dimension of every content token of s to
// dims, in token order, and returns the extended slice: entry i equals
// HashToken(ContentTokens(s)[i]). It is the allocation-free kernel under
// every embedding: no token string is built — each token is hashed where it
// lies in the scratch buffer, and stopwords are matched by comparing its
// bytes with the stopwords of its dimension. Tokens never span a space, so
// ContentDims(a+" "+b, nil) equals ContentDims(b, ContentDims(a, nil)).
func ContentDims(s string, dims []int32) []int32 {
	var scratch [64]byte
	t := tokenizer{s: s}
tokens:
	for tok := t.next(scratch[:0]); len(tok) > 0; tok = t.next(tok) {
		d := hashFNV(tok)
		for _, w := range stopByDim[d] {
			if string(tok) == w {
				continue tokens
			}
		}
		dims = append(dims, int32(d))
	}
	return dims
}

// VectorDim is the dimensionality of hashed term vectors. It is a power of
// two so hashing reduces to a mask.
const VectorDim = 1024

// Vector is a dense hashed bag-of-words representation of a text.
type Vector [VectorDim]float32

// HashToken maps a token to its vector dimension via FNV-1a.
func HashToken(tok string) int { return hashFNV(tok) }

// hashFNV is FNV-1a reduced to a vector dimension, inlined so the per-token
// hash is allocation- and interface-free (it runs once per token of every
// embedded string), over token strings and kernel token bytes alike.
func hashFNV[T string | []byte](tok T) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(tok); i++ {
		h ^= uint32(tok[i])
		h *= prime32
	}
	return int(h & (VectorDim - 1))
}

// embedScratch is the stack capacity, in tokens, of the embedders' dims
// scratch: a corpus document has a few dozen content tokens, so only
// unusually long strings spill to the heap.
const embedScratch = 256

// Embed builds a hashed term-frequency vector for s, stopwords removed,
// sub-linearly damped (1+log tf) and L2-normalised. This is the stand-in for
// the paper's sentence encoders.
func Embed(s string) Vector {
	var scratch [embedScratch]int32
	var v Vector
	for _, d := range ContentDims(s, scratch[:0]) {
		v[d]++
	}
	v.normalise()
	return v
}

// normalise turns raw term counts into (1+log tf) weights scaled to unit
// L2 norm.
func (v *Vector) normalise() {
	var norm float64
	for i := range v {
		if v[i] > 0 {
			v[i] = float32(1 + math.Log(float64(v[i])))
			norm += float64(v[i]) * float64(v[i])
		}
	}
	if norm > 0 {
		inv := float32(1 / math.Sqrt(norm))
		for i := range v {
			v[i] *= inv
		}
	}
}

// Cosine returns the cosine similarity of two vectors in [-1, 1]. For Embed
// outputs (non-negative entries) the range is [0, 1].
func Cosine(a, b Vector) float64 {
	var dot float64
	for i := range a {
		dot += float64(a[i]) * float64(b[i])
	}
	if dot > 1 {
		dot = 1
	}
	if dot < -1 {
		dot = -1
	}
	return dot
}

// Similarity is the convenience form of Cosine over raw strings.
func Similarity(a, b string) float64 {
	return Cosine(Embed(a), Embed(b))
}

// Sigmoid maps x to (0,1); used to turn raw scores into the sigmoid-scaled
// relevance scores the paper's cross-encoder produces.
func Sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// Byte-lane masks for the eight-bytes-at-a-time word counter.
const (
	laneHigh = 0x8080808080808080
	laneLow7 = 0x7f7f7f7f7f7f7f7f
)

// load64 reads s[i:i+8] as a little-endian word: byte k is lane k.
func load64(s string, i int) uint64 {
	s = s[i : i+8]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// spaceLanes returns the high bit of every lane of x that holds an
// asciiSpace byte. Every lane of x must be ASCII (high bit clear), so no
// lane addition carries into its neighbour.
func spaceLanes(x uint64) uint64 {
	v := x ^ 0x2020202020202020 // ' ' lanes become zero
	blank := ^((v&laneLow7 + laneLow7) | v) & laneHigh
	ge9 := (x + 0x7777777777777777) & laneHigh  // lane >= '\t'
	ge14 := (x + 0x7272727272727272) & laneHigh // lane > '\r'
	return blank | ge9&^ge14
}

// CountTokens approximates the LLM token count of s. Real tokenisers emit
// roughly 1.3 tokens per whitespace word for English; we reproduce that
// constant so the benchmark's token accounting has realistic magnitudes.
func CountTokens(s string) int { return TokensOfWords(CountWords(s)) }

// TokensOfWords is CountTokens' rule for a text of the given number of
// words. Word counts add across texts joined at whitespace; token counts
// do not, because of the ceiling.
func TokensOfWords(words int) int { return int(math.Ceil(float64(words) * 1.3)) }

// CountWords counts the words of s: the maximal non-space runs
// strings.Fields returns, counted in place, since this runs on every
// evidence chunk of every simulated call. All-ASCII stretches are
// classified eight bytes at a time (a word starts in every non-space lane
// whose predecessor is a space); other bytes go rune by rune through
// unicode.IsSpace.
func CountWords(s string) int {
	words := 0
	inField := false
	for i := 0; i < len(s); {
		if i+8 <= len(s) {
			if x := load64(s, i); x&laneHigh == 0 {
				space := spaceLanes(x)
				prevSpace := space << 8
				if !inField {
					prevSpace |= 0x80
				}
				nonSpace := ^space & laneHigh
				words += bits.OnesCount64(nonSpace & prevSpace)
				inField = nonSpace>>63 != 0
				i += 8
				continue
			}
		}
		var space bool
		if c := s[i]; c < utf8.RuneSelf {
			space = asciiSpace[c]
			i++
		} else {
			r, size := utf8.DecodeRuneInString(s[i:])
			space = unicode.IsSpace(r)
			i += size
		}
		if space {
			inField = false
		} else if !inField {
			words++
			inField = true
		}
	}
	return words
}
