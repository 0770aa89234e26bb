package main

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"strconv"

	"factcheck/internal/core"
	"factcheck/internal/search"
	"factcheck/internal/serve"
	"factcheck/internal/world"
)

// worldConfig selects the synthetic world for a seed: seed 1 is the
// default world every CLI run uses, so its outputs can be pinned against
// the CLI; seed N > 1 appends "#N" to the world seed, so another seed
// exercises a different world of the same size.
func worldConfig(seed uint64, small bool) world.Config {
	c := world.DefaultConfig()
	if small {
		c = world.SmallConfig()
	}
	if seed > 1 {
		c.Seed += "#" + strconv.FormatUint(seed, 10)
	}
	return c
}

// universe is the request space of one benchmark instance: every
// (dataset, fact) pair in dataset order, and the methods and models a
// verify request may name. A verify key k encodes (pair, method, model)
// as (pair*len(methods)+method)*len(models)+model.
type universe struct {
	pairs   []pair
	methods []string
	models  []string
}

type pair struct{ dataset, fact string }

func newUniverse(b *core.Benchmark) universe {
	var u universe
	for _, dn := range b.Config.Datasets {
		for _, f := range b.Datasets[dn].Facts {
			u.pairs = append(u.pairs, pair{string(dn), f.ID})
		}
	}
	for _, m := range b.Config.Methods {
		u.methods = append(u.methods, string(m))
	}
	u.models = append(u.models, b.Config.Models...)
	return u
}

func (u universe) keys() int { return len(u.pairs) * len(u.methods) * len(u.models) }

func (u universe) key(p, method, model int) int32 {
	return int32((p*len(u.methods)+method)*len(u.models) + model)
}

// request decodes a verify key.
func (u universe) request(k int32) serve.VerifyRequest {
	model := int(k) % len(u.models)
	rest := int(k) / len(u.models)
	p := u.pairs[rest/len(u.methods)]
	return serve.VerifyRequest{Dataset: p.dataset, Method: u.methods[rest%len(u.methods)], Model: u.models[model], FactID: p.fact}
}

type opKind uint8

const (
	opVerify    opKind = iota // POST /v1/verify; arg is a verify key
	opConsensus               // GET /v1/consensus/{fact}; arg is a pair index
	opIngest                  // POST /v1/documents; arg is a pair index
)

// op is one planned request.
type op struct {
	kind opKind
	arg  int32
}

// Request-mix constants of the serve workloads.
const (
	zipfS = 1.1
	// consensusEvery and consensusAt place one consensus request in every
	// ten; ingestEvery places one document write in every fifty. The two
	// residues never coincide, so serve-ingest keeps serve-hot's
	// consensus share exactly.
	consensusEvery = 10
	consensusAt    = 4
	ingestEvery    = 50
)

// hotPlan draws n requests: facts zipf(1.1)-distributed over a seeded
// shuffle of the pairs, one consensus request in every ten, the rest
// verifies with method and model drawn uniformly. With writes set, every
// fiftieth request is replaced by a one-document write for a fact drawn
// from a second zipf stream over the same shuffle; the reads stay those
// of the plan without writes.
func hotPlan(u universe, seed uint64, n int, writes bool) []op {
	r := rand.New(rand.NewPCG(seed, 1))
	order := r.Perm(len(u.pairs))
	z := zipf(r, len(u.pairs))
	ops := make([]op, n)
	for i := range ops {
		p := order[z.Uint64()]
		if i%consensusEvery == consensusAt {
			ops[i] = op{opConsensus, int32(p)}
			continue
		}
		ops[i] = op{opVerify, u.key(p, r.IntN(len(u.methods)), r.IntN(len(u.models)))}
	}
	if writes {
		w := rand.New(rand.NewPCG(seed, 2))
		zw := zipf(w, len(u.pairs))
		for i := ingestEvery - 1; i < n; i += ingestEvery {
			ops[i] = op{opIngest, int32(order[zw.Uint64()])}
		}
	}
	return ops
}

// zipf draws ranks in [0, n).
func zipf(r *rand.Rand, n int) *rand.Zipf { return rand.NewZipf(r, zipfS, 1, uint64(n-1)) }

// sweepWindow is how many facts serve-sweep has in flight at once.
const sweepWindow = 64

// sweepPlan visits every verify key once. Facts enter in a seeded order,
// one per len(methods)*len(models) requests, and each spreads its keys in
// seeded order over the entries of the next sweepWindow facts. A plain
// permutation of all keys would front-load each fact's first RAG request,
// and with it the evidence retrieval, so throughput would climb through
// the run and a faster server would measure a cheaper mix; here the share
// of requests that retrieve stays the same after the first window.
func sweepPlan(u universe, seed uint64) []op {
	r := rand.New(rand.NewPCG(seed, 3))
	per := len(u.methods) * len(u.models)
	type slot struct {
		at  float64 // in fact entries
		key int32
	}
	slots := make([]slot, 0, u.keys())
	for j, p := range r.Perm(len(u.pairs)) {
		for t, x := range r.Perm(per) {
			at := float64(j) + (float64(t)+r.Float64())*sweepWindow/float64(per)
			slots = append(slots, slot{at, u.key(p, x/len(u.models), x%len(u.models))})
		}
	}
	slices.SortFunc(slots, func(a, b slot) int { return cmp.Compare(a.at, b.at) })
	ops := make([]op, len(slots))
	for i, s := range slots {
		ops[i] = op{opVerify, s.key}
	}
	return ops
}

// cellOps is one verify per (dataset, method, model) cell, on the
// dataset's first fact: against a store-backed service each one hydrates
// its whole cell into the verdict LRU.
func cellOps(u universe) []op {
	var ops []op
	prev := ""
	for p, pr := range u.pairs {
		if pr.dataset == prev {
			continue
		}
		prev = pr.dataset
		for m := range u.methods {
			for k := range u.models {
				ops = append(ops, op{opVerify, u.key(p, m, k)})
			}
		}
	}
	return ops
}

// ingestedFacts is the set of facts any write of the plan touches. Their
// verdicts change with the corpus epoch, so they enter the digest with
// their gold label only.
func ingestedFacts(u universe, ops []op) map[string]bool {
	out := map[string]bool{}
	for _, o := range ops {
		if o.kind == opIngest {
			out[u.pairs[o.arg].fact] = true
		}
	}
	return out
}

// ingestDoc is the document written at plan position i.
func ingestDoc(u universe, i int, p int32) search.IngestDoc {
	fact := u.pairs[p].fact
	return search.IngestDoc{
		FactID: fact,
		Title:  fmt.Sprintf("Benchmark live update %07d", i),
		Text:   fmt.Sprintf("Streamed evidence item %07d concerning %s, observed while the service was answering traffic.", i, fact),
	}
}
