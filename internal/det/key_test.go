package det

import (
	"hash/fnv"
	"testing"
)

// refHash64 is the retired hash/fnv implementation of Hash64, kept as the
// differential reference for the inlined FNV-1a loop.
func refHash64(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0x1f})
	}
	return mix64(h.Sum64())
}

var keyCases = [][]string{
	{},
	{""},
	{"a"},
	{"serp", "who founded the company", "FB-t0001-d0042"},
	{"rerank", "jina-reranker-v1-turbo-en", "a long reference sentence", "an even longer candidate passage with many words"},
	{"shared", "knows", "FB-t0099"},
	{"", "", ""},
	{"part-with-\x1f-inside", "tail"},
}

// TestHash64MatchesFNVReference pins the inlined loop byte-identical to
// hash/fnv's sum64a — every deterministic draw in the benchmark depends on
// these exact values.
func TestHash64MatchesFNVReference(t *testing.T) {
	for _, parts := range keyCases {
		if got, want := Hash64(parts...), refHash64(parts...); got != want {
			t.Errorf("Hash64(%q) = %x, fnv reference = %x", parts, got, want)
		}
	}
}

// TestKeyUniformMatchesUniform pins the partial-hash fast path: extending a
// prefix Key must reproduce the one-shot draw for every prefix/suffix cut.
func TestKeyUniformMatchesUniform(t *testing.T) {
	for _, parts := range keyCases {
		for cut := 0; cut <= len(parts); cut++ {
			got := NewKey(parts[:cut]...).Uniform(parts[cut:]...)
			want := Uniform(parts...)
			if got != want {
				t.Errorf("NewKey(%q).Uniform(%q) = %v, Uniform(%q) = %v",
					parts[:cut], parts[cut:], got, parts, want)
			}
		}
	}
}

// TestKeyContMatchesConcatenation pins Cont: continuing a part in pieces
// draws exactly what the concatenated part draws, for Uniform and IntN.
func TestKeyContMatchesConcatenation(t *testing.T) {
	for _, tc := range []struct{ a, x, y, z string }{
		{"serp", "FB-t0001-d", "0042", ""},
		{"stance", "", "0000", "a"},
		{"filler", "YG-t0123-d", "", "e"},
		{"", "x", "y", "z"},
	} {
		k := NewKey(tc.a).Cont(tc.x)
		if got, want := k.Uniform(tc.y), Uniform(tc.a, tc.x+tc.y); got != want {
			t.Errorf("NewKey(%q).Cont(%q).Uniform(%q) = %v, want %v", tc.a, tc.x, tc.y, got, want)
		}
		if got, want := k.Cont(tc.y).Uniform(tc.z), Uniform(tc.a, tc.x+tc.y+tc.z); got != want {
			t.Errorf("Cont twice: got %v, want %v", got, want)
		}
		if got, want := k.IntN(7, tc.y, tc.z), IntN(7, tc.a, tc.x+tc.y, tc.z); got != want {
			t.Errorf("NewKey(%q).Cont(%q).IntN(7, %q, %q) = %d, want %d", tc.a, tc.x, tc.y, tc.z, got, want)
		}
	}
}

func BenchmarkUniformFull(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Uniform("serp", "who founded the regional registry and when", "FB-t0001-d0042")
	}
}

func BenchmarkUniformKeyed(b *testing.B) {
	k := NewKey("serp", "who founded the regional registry and when")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Uniform("FB-t0001-d0042")
	}
}
