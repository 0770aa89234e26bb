// Package det provides deterministic pseudo-randomness keyed by string
// parts. Every stochastic decision in the benchmark (does a model know a
// fact, is a document empty, how long did a call take) flows through this
// package, so results are bit-reproducible across runs and machines.
package det

import (
	"math"
	"math/rand/v2"
)

// Hash64 hashes the given parts (with separators) into a 64-bit key. The
// raw FNV-1a sum is passed through a splitmix64 finaliser: FNV's high bits
// barely change across inputs sharing a long prefix (e.g. sequential
// document ids), and Uniform consumes the high bits. The FNV-1a loop is
// inlined — identical to hash/fnv's sum64a over the same bytes — because
// every stochastic decision in the benchmark funnels through here and the
// hash.Hash indirection allocated on each call.
func Hash64(parts ...string) uint64 {
	return mix64(hashParts(offset64, parts...))
}

// FNV-1a 64-bit parameters (identical to hash/fnv's sum64a).
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// hashParts folds parts (with separators) into a running FNV-1a state.
func hashParts(h uint64, parts ...string) uint64 {
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= prime64
		}
		h ^= 0x1f // part separator
		h *= prime64
	}
	return h
}

// Key is a partially applied Hash64: the raw FNV-1a state after hashing a
// fixed prefix of parts. Extending a Key with the remaining parts produces
// exactly the draw Hash64/Uniform would produce over prefix+rest — hot
// loops that pair one constant prefix with many suffixes (the SERP jitter
// hashing the query against every pool document) precompute the prefix
// once instead of re-hashing it per suffix.
type Key uint64

// NewKey captures the hash state of the given prefix parts.
func NewKey(parts ...string) Key {
	return Key(hashParts(offset64, parts...))
}

// Extend returns the key of the prefix plus parts: NewKey(a...).Extend(b...)
// == NewKey(a..., b...).
func (k Key) Extend(parts ...string) Key { return Key(hashParts(uint64(k), parts...)) }

// Uniform returns the deterministic uniform sample in [0,1) keyed by the
// prefix plus parts: NewKey(a...).Uniform(b...) == Uniform(a..., b...).
func (k Key) Uniform(parts ...string) float64 {
	h := mix64(hashParts(uint64(k), parts...))
	// Use the top 53 bits for a full-precision float64 mantissa.
	return float64(h>>11) / float64(1<<53)
}

// Bool returns true with probability p, keyed by the prefix plus parts:
// NewKey(a...).Bool(p, b...) == Bool(p, a..., b...).
func (k Key) Bool(p float64, parts ...string) bool {
	return k.Uniform(parts...) < p
}

// Jitter multiplies base by a factor in [1-amp, 1+amp] keyed by the prefix
// plus parts: NewKey(a...).Jitter(base, amp, b...) == Jitter(base, amp,
// a..., b...).
func (k Key) Jitter(base, amp float64, parts ...string) float64 {
	return base * (1 - amp + 2*amp*k.Uniform(parts...))
}

// Cont continues the key's last part with s, adding no separator, so a
// part can be hashed in pieces: NewKey(a).Cont(x).Uniform(y) ==
// Uniform(a, x+y). Draws keyed by a long shared prefix plus a short tail
// (a fact's "<fact ID>-d" and a document's sequence digits) hash the
// prefix once.
func (k Key) Cont(s string) Key {
	h := uint64(k)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return Key(h)
}

// IntN returns the deterministic integer in [0,n) keyed by the prefix plus
// parts: NewKey(a...).IntN(n, b...) == IntN(n, a..., b...). It panics if
// n <= 0.
func (k Key) IntN(n int, parts ...string) int {
	if n <= 0 {
		panic("det: IntN with non-positive n")
	}
	return int(mix64(hashParts(uint64(k), parts...)) % uint64(n))
}

// mix64 is the splitmix64 finaliser, a full-avalanche bijection.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Uniform returns a deterministic uniform sample in [0,1) keyed by parts.
func Uniform(parts ...string) float64 { return NewKey().Uniform(parts...) }

// Bool returns true with probability p, keyed by parts.
func Bool(p float64, parts ...string) bool { return NewKey().Bool(p, parts...) }

// IntN returns a deterministic integer in [0,n) keyed by parts.
// It panics if n <= 0.
func IntN(n int, parts ...string) int {
	if n <= 0 {
		panic("det: IntN with non-positive n")
	}
	return int(Hash64(parts...) % uint64(n))
}

// Source returns a rand source seeded from parts, for longer deterministic
// streams (dataset generation, corpus synthesis).
func Source(parts ...string) *rand.Rand {
	k := Hash64(parts...)
	return rand.New(rand.NewPCG(k, k^0x9e3779b97f4a7c15))
}

// Gaussian returns a deterministic sample from N(mean, stddev) keyed by
// parts, via the Box-Muller transform over two derived uniforms.
func Gaussian(mean, stddev float64, parts ...string) float64 {
	u1 := Uniform(append(parts, "g1")...)
	u2 := Uniform(append(parts, "g2")...)
	if u1 < 1e-12 {
		u1 = 1e-12
	}
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Jitter multiplies base by a deterministic factor in [1-amp, 1+amp].
func Jitter(base, amp float64, parts ...string) float64 {
	return NewKey().Jitter(base, amp, parts...)
}
