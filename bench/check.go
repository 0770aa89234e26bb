package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"time"

	"factcheck/internal/consensus"
	"factcheck/internal/core"
	"factcheck/internal/dataset"
	"factcheck/internal/llm"
	"factcheck/internal/sched"
	"factcheck/internal/serve"
	"factcheck/internal/strategy"
)

// Canonical answer lines. A served answer is reduced to the fields that
// derive from the deterministic outcome: the verdict's source layer is
// left out, so cold, store-warm and LRU-warm answers hash alike, and a
// consensus answer keeps only its mode-independent final, tie and gold.
// Facts the run writes documents for keep only their gold label, because
// their verdicts move with the corpus epoch.

func appendVerdictLine(b []byte, v *serve.VerdictResponse) []byte {
	b = append(b, "verdict="...)
	b = append(b, v.Verdict...)
	b = append(b, " gold="...)
	b = strconv.AppendBool(b, v.Gold)
	b = append(b, " correct="...)
	b = strconv.AppendBool(b, v.Correct)
	b = append(b, " latency_ms="...)
	b = strconv.AppendFloat(b, v.LatencyMS, 'g', -1, 64)
	b = append(b, " attempts="...)
	b = strconv.AppendInt(b, int64(v.Attempts), 10)
	b = append(b, " pt="...)
	b = strconv.AppendInt(b, int64(v.PromptTokens), 10)
	b = append(b, " ct="...)
	b = strconv.AppendInt(b, int64(v.CompletionTokens), 10)
	b = append(b, " expl="...)
	return strconv.AppendQuote(b, v.Explanation)
}

func appendConsensusLine(b []byte, final, tie, gold bool) []byte {
	b = append(b, "final="...)
	b = strconv.AppendBool(b, final)
	b = append(b, " tie="...)
	b = strconv.AppendBool(b, tie)
	b = append(b, " gold="...)
	return strconv.AppendBool(b, gold)
}

func appendGoldLine(b []byte, gold bool) []byte {
	return strconv.AppendBool(append(b, "gold="...), gold)
}

func hashLine(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// outcomeResponse is the verdict the service serves for an outcome.
func outcomeResponse(out strategy.Outcome) serve.VerdictResponse {
	return serve.VerdictResponse{
		Verdict:          out.Verdict.String(),
		Gold:             out.Gold,
		Correct:          out.Correct,
		LatencyMS:        float64(out.Latency) / float64(time.Millisecond),
		Attempts:         out.Attempts,
		PromptTokens:     out.PromptTokens,
		CompletionTokens: out.CompletionTokens,
		Explanation:      out.Explanation,
	}
}

// ledger maps each answered request key to the hash of its canonical
// line: a verify key as itself, a consensus request for pair p as
// -(p+1). The first key answered two different ways is kept as the
// conflict.
type ledger struct {
	lines       map[int32]uint64
	conflicted  bool
	conflictKey int32
}

func newLedger() *ledger { return &ledger{lines: map[int32]uint64{}} }

func consensusKey(p int32) int32 { return -(p + 1) }

func (l *ledger) add(k int32, h uint64) {
	if old, ok := l.lines[k]; ok {
		if old != h && !l.conflicted {
			l.conflicted, l.conflictKey = true, k
		}
		return
	}
	l.lines[k] = h
}

func (l *ledger) merge(o *ledger) {
	if o.conflicted && !l.conflicted {
		l.conflicted, l.conflictKey = true, o.conflictKey
	}
	for k, h := range o.lines {
		l.add(k, h)
	}
}

// keyName renders a ledger key for digests and messages.
func keyName(u universe, k int32) string {
	if k < 0 {
		p := u.pairs[-k-1]
		return "consensus/" + p.dataset + "/" + p.fact
	}
	r := u.request(k)
	return r.Dataset + "/" + r.Method + "/" + r.Model + "/" + r.FactID
}

// prefixDigest digests the distinct answers to the plan's first n
// requests: FNV-64a over "key line-hash" rows in key order. Every read in
// the prefix must have been answered; writes carry no answer.
func prefixDigest(u universe, ops []op, n int, led *ledger) (string, error) {
	if n > len(ops) {
		n = len(ops)
	}
	var keys []int32
	for _, o := range ops[:n] {
		switch o.kind {
		case opVerify:
			keys = append(keys, o.arg)
		case opConsensus:
			keys = append(keys, consensusKey(o.arg))
		}
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	h := fnv.New64a()
	for _, k := range keys {
		lh, ok := led.lines[k]
		if !ok {
			return "", fmt.Errorf("missing answer for %s in the plan's first %d requests", keyName(u, k), n)
		}
		fmt.Fprintf(h, "%s %016x\n", keyName(u, k), lh)
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// checkDigest compares a computed digest with the pinned one; an empty
// want pins nothing.
func checkDigest(what, got, want string) error {
	if want != "" && got != want {
		return fmt.Errorf("%s digest %s, pinned %s", what, got, want)
	}
	return nil
}

// reference recomputes answers directly through the benchmark's public
// verification path (core.(*Benchmark).VerifyFact), bypassing HTTP and
// every serving cache.
type reference struct {
	b        *core.Benchmark
	u        universe
	goldOnly map[string]bool
	voters   []string
}

func newReference(b *core.Benchmark, u universe, goldOnly map[string]bool) *reference {
	r := &reference{b: b, u: u, goldOnly: goldOnly}
	for _, m := range b.Config.Models {
		if m != llm.GPT4oMini { // the commercial model arbitrates, it does not vote
			r.voters = append(r.voters, m)
		}
	}
	return r
}

// lineHash is the canonical line hash the service should have answered
// for a ledger key.
func (r *reference) lineHash(ctx context.Context, k int32) (uint64, error) {
	var buf []byte
	if k < 0 {
		p := r.u.pairs[-k-1]
		f, _ := r.b.FactByID(p.fact)
		if r.goldOnly[p.fact] {
			return hashLine(appendGoldLine(buf, f.Gold)), nil
		}
		votes := make([]consensus.Vote, 0, len(r.voters))
		for _, m := range r.voters {
			out, err := r.b.VerifyFact(ctx, core.Cell{Dataset: dataset.Name(p.dataset), Method: llm.MethodDKA, Model: m}, f)
			if err != nil {
				return 0, err
			}
			votes = append(votes, consensus.Vote{Model: m, Verdict: out.Verdict})
		}
		final, tie := consensus.Majority(votes)
		return hashLine(appendConsensusLine(buf, final, tie, f.Gold)), nil
	}
	req := r.u.request(k)
	f, _ := r.b.FactByID(req.FactID)
	if r.goldOnly[req.FactID] {
		return hashLine(appendGoldLine(buf, f.Gold)), nil
	}
	out, err := r.b.VerifyFact(ctx, core.Cell{Dataset: dataset.Name(req.Dataset), Method: llm.Method(req.Method), Model: req.Model}, f)
	if err != nil {
		return 0, err
	}
	v := outcomeResponse(out)
	return hashLine(appendVerdictLine(buf, &v)), nil
}

// sampleKeys picks up to n answered keys, seeded, in a fixed order.
func sampleKeys(led *ledger, seed uint64, n int) []int32 {
	keys := make([]int32, 0, len(led.lines))
	for k := range led.lines {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	r := rand.New(rand.NewPCG(seed, 4))
	r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	if len(keys) > n {
		keys = keys[:n]
	}
	return keys
}

// checkSample recomputes the sampled keys with want and fails on the first
// served answer that differs, reporting keys in sample order.
func checkSample(ctx context.Context, u universe, led *ledger, keys []int32, workers int, want func(context.Context, int32) (uint64, error)) error {
	if led.conflicted {
		return fmt.Errorf("%s was answered two different ways", keyName(u, led.conflictKey))
	}
	errs := make([]error, len(keys))
	err := sched.New(workers).Run(ctx, len(keys), func(ctx context.Context, i int) error {
		k := keys[i]
		h, err := want(ctx, k)
		if err != nil {
			return err
		}
		got, ok := led.lines[k]
		switch {
		case !ok:
			errs[i] = fmt.Errorf("no served answer for %s", keyName(u, k))
		case got != h:
			errs[i] = fmt.Errorf("served answer for %s differs from VerifyFact", keyName(u, k))
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// checkGridSample recomputes n seeded (cell, fact) outcomes of a grid
// result through VerifyFact; each must equal the grid's outcome exactly.
func checkGridSample(ctx context.Context, b *core.Benchmark, rs *core.ResultSet, seed uint64, n int) error {
	cells := make([]core.Cell, 0, len(rs.Outcomes))
	for c := range rs.Outcomes {
		cells = append(cells, c)
	}
	slices.SortFunc(cells, func(a, c core.Cell) int {
		return strings.Compare(string(a.Dataset)+"/"+string(a.Method)+"/"+a.Model, string(c.Dataset)+"/"+string(c.Method)+"/"+c.Model)
	})
	r := rand.New(rand.NewPCG(seed, 5))
	for i := 0; i < n && len(cells) > 0; i++ {
		c := cells[r.IntN(len(cells))]
		facts := b.Datasets[c.Dataset].Facts
		j := r.IntN(len(facts))
		got, err := b.VerifyFact(ctx, c, facts[j])
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(got, rs.Outcomes[c][j]) {
			return fmt.Errorf("grid outcome %s/%s/%s/%s differs from VerifyFact", c.Dataset, c.Method, c.Model, facts[j].ID)
		}
	}
	return nil
}
