package det

import (
	"hash/fnv"
	"math"
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
// these exact values — and Uniform, which draws through a Key, to the top
// 53 bits of the reference hash.
func TestHash64MatchesFNVReference(t *testing.T) {
	for _, parts := range keyCases {
		if got, want := Hash64(parts...), refHash64(parts...); got != want {
			t.Errorf("Hash64(%q) = %x, fnv reference = %x", parts, got, want)
		}
		if got, want := Uniform(parts...), float64(refHash64(parts...)>>11)/(1<<53); got != want {
			t.Errorf("Uniform(%q) = %v, fnv reference = %v", parts, got, want)
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

// TestKeyBoolJitterMatchOneShot pins Key.Bool and Key.Jitter to the
// one-shot draws, and Key.Extend to NewKey, at every prefix/suffix cut: the
// simulated model continues one (model, claim) key per request and must
// draw what it drew when it hashed every part per draw.
func TestKeyBoolJitterMatchOneShot(t *testing.T) {
	for _, parts := range keyCases {
		u := Uniform(parts...)
		for cut := 0; cut <= len(parts); cut++ {
			k := NewKey(parts[:cut]...)
			if got, want := NewKey().Extend(parts[:cut]...), k; got != want {
				t.Errorf("NewKey().Extend(%q) = %x, NewKey = %x", parts[:cut], got, want)
			}
			if got, want := k.Extend(parts[cut:]...), NewKey(parts...); got != want {
				t.Errorf("NewKey(%q).Extend(%q) = %x, NewKey(%q) = %x", parts[:cut], parts[cut:], got, parts, want)
			}
			for _, p := range []float64{0, 0.03, 0.5, u, math.Nextafter(u, 1), 1} {
				if got, want := k.Bool(p, parts[cut:]...), Bool(p, parts...); got != want {
					t.Errorf("NewKey(%q).Bool(%v, %q) = %v, Bool = %v", parts[:cut], p, parts[cut:], got, want)
				}
			}
			for _, tc := range []struct{ base, amp float64 }{{1.7, 0.18}, {0.25, 0.15}, {3e9, 0.5}, {-2, 1}} {
				if got, want := k.Jitter(tc.base, tc.amp, parts[cut:]...), Jitter(tc.base, tc.amp, parts...); got != want {
					t.Errorf("NewKey(%q).Jitter(%v, %v, %q) = %v, Jitter = %v",
						parts[:cut], tc.base, tc.amp, parts[cut:], got, want)
				}
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
