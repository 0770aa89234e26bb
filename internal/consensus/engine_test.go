package consensus

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"factcheck/internal/dataset"
	"factcheck/internal/llm"
	"factcheck/internal/strategy"
)

func TestParseMode(t *testing.T) {
	for _, s := range []string{"eager", "adaptive"} {
		m, err := ParseMode(s)
		if err != nil || string(m) != s {
			t.Errorf("ParseMode(%q) = (%q, %v)", s, m, err)
		}
	}
	for _, s := range []string{"", "greedy", "serial", "eager "} {
		if _, err := ParseMode(s); err == nil {
			t.Errorf("ParseMode(%q) accepted", s)
		}
	}
}

func TestSettledBound(t *testing.T) {
	tests := []struct {
		trues, falses, total int
		verdict, settled     bool
	}{
		// 4-voter ensemble (the paper's).
		{0, 0, 4, false, false},
		{1, 0, 4, false, false},
		{2, 0, 4, false, false}, // could still end 2-2: a tie is never settled early
		{3, 0, 4, true, true},
		{2, 1, 4, false, false},
		{3, 1, 4, true, true},
		{0, 3, 4, false, true},
		{1, 3, 4, false, true},
		{2, 2, 4, false, false}, // complete tie: not a settled majority
		// Odd ensembles.
		{2, 0, 3, true, true},
		{1, 1, 3, false, false},
		{2, 1, 3, true, true},
		{0, 2, 3, false, true},
		{4, 1, 7, true, true},
		{3, 1, 7, false, false},
		// Degenerate sizes.
		{1, 0, 1, true, true},
		{0, 1, 1, false, true},
		{1, 0, 2, false, false},
		{2, 0, 2, true, true},
	}
	for _, tc := range tests {
		v, s := Settled(tc.trues, tc.falses, tc.total)
		if v != tc.verdict || s != tc.settled {
			t.Errorf("Settled(%d, %d, %d) = (%v, %v), want (%v, %v)",
				tc.trues, tc.falses, tc.total, v, s, tc.verdict, tc.settled)
		}
	}
}

// TestSettledAgreesWithMajority: whenever Settled declares a verdict from a
// partial count, every completion of the remaining votes must produce that
// same Majority verdict and no tie — exhaustively over ensembles of 1–7.
func TestSettledAgreesWithMajority(t *testing.T) {
	for total := 1; total <= 7; total++ {
		for trues := 0; trues <= total; trues++ {
			for falses := 0; trues+falses <= total; falses++ {
				v, settled := Settled(trues, falses, total)
				if !settled {
					continue
				}
				remaining := total - trues - falses
				for extraTrue := 0; extraTrue <= remaining; extraTrue++ {
					var vs []Vote
					for i := 0; i < trues+extraTrue; i++ {
						vs = append(vs, Vote{Verdict: strategy.True})
					}
					for len(vs) < total {
						vs = append(vs, Vote{Verdict: strategy.False})
					}
					mv, tie := Majority(vs)
					if tie {
						t.Fatalf("Settled(%d,%d,%d) but completion +%dT ties", trues, falses, total, extraTrue)
					}
					if mv != v {
						t.Fatalf("Settled(%d,%d,%d) verdict %v but completion +%dT majority %v",
							trues, falses, total, v, extraTrue, mv)
					}
				}
			}
		}
	}
}

func TestNewPlanCostOrder(t *testing.T) {
	// The open-source ensemble priced by llm.Cost: mistral is the
	// throughput king, llama3.1 the slowest generator.
	plan := NewPlan(llm.OpenSourceModels, llm.Cost)
	wantOrder := []string{llm.Mistral, llm.Qwen25, llm.Gemma2, llm.Llama31}
	if !reflect.DeepEqual(plan.Order, wantOrder) {
		t.Fatalf("plan order = %v, want %v", plan.Order, wantOrder)
	}
	wantTiers := [][]string{{llm.Mistral, llm.Qwen25, llm.Gemma2}, {llm.Llama31}}
	if !reflect.DeepEqual(plan.Tiers, wantTiers) {
		t.Fatalf("plan tiers = %v, want %v", plan.Tiers, wantTiers)
	}
	// The schedule depends only on the voter set, never on input order.
	shuffled := []string{llm.Llama31, llm.Gemma2, llm.Mistral, llm.Qwen25}
	if got := NewPlan(shuffled, llm.Cost); !reflect.DeepEqual(got, plan) {
		t.Fatalf("plan differs for permuted voters: %v vs %v", got, plan)
	}
}

func TestNewPlanQuorumSizes(t *testing.T) {
	for n := 0; n <= 7; n++ {
		var voters []string
		for i := 0; i < n; i++ {
			voters = append(voters, fmt.Sprintf("m%d", i))
		}
		plan := NewPlan(voters, nil)
		if len(plan.Order) != n {
			t.Fatalf("n=%d: order has %d voters", n, len(plan.Order))
		}
		if n == 0 {
			if len(plan.Tiers) != 0 {
				t.Fatalf("n=0: tiers = %v", plan.Tiers)
			}
			continue
		}
		wantQuorum := n/2 + 1
		if got := len(plan.Tiers[0]); got != wantQuorum {
			t.Fatalf("n=%d: first tier has %d voters, want quorum %d", n, got, wantQuorum)
		}
		total := 0
		for i, tier := range plan.Tiers {
			if i > 0 && len(tier) != 1 {
				t.Fatalf("n=%d: escalation tier %d has %d voters, want 1", n, i, len(tier))
			}
			total += len(tier)
		}
		if total != n {
			t.Fatalf("n=%d: tiers cover %d voters", n, total)
		}
	}
}

// planFetch builds a Fetch over fixed verdicts and latencies keyed by model.
func planFetch(f *dataset.Fact, verdicts map[string]strategy.Verdict, lats map[string]time.Duration) Fetch {
	return func(_ context.Context, model string) (strategy.Outcome, error) {
		v, ok := verdicts[model]
		if !ok {
			return strategy.Outcome{}, fmt.Errorf("no verdict scripted for %s", model)
		}
		return strategy.Outcome{FactID: f.ID, Model: model, Verdict: v, Latency: lats[model]}, nil
	}
}

// fourPlan is a synthetic 4-voter plan: a..c are the cheap quorum, d the
// escalation tier.
func fourPlan() Plan {
	costs := map[string]float64{"a": 1, "b": 2, "c": 3, "d": 4}
	return NewPlan([]string{"d", "c", "b", "a"}, func(m string) float64 { return costs[m] })
}

func synthFact() *dataset.Fact { return &dataset.Fact{ID: "f1", Gold: true} }

func TestEngineAdaptiveSkipsOnSettledQuorum(t *testing.T) {
	f := synthFact()
	eng := &Engine{Plan: fourPlan(), Mode: ModeAdaptive, AllowTie: true}
	verdicts := map[string]strategy.Verdict{"a": strategy.True, "b": strategy.True, "c": strategy.True, "d": strategy.False}
	lats := map[string]time.Duration{"a": time.Second, "b": 2 * time.Second, "c": 3 * time.Second, "d": 10 * time.Second}
	dec, st, err := eng.Decide(context.Background(), f, planFetch(f, verdicts, lats))
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Final || dec.Tie {
		t.Fatalf("decision = final %v tie %v, want true majority", dec.Final, dec.Tie)
	}
	if !reflect.DeepEqual(dec.Skipped, []string{"d"}) {
		t.Fatalf("skipped = %v, want [d]", dec.Skipped)
	}
	if st.Dispatched != 3 || st.Skipped != 1 || st.Escalations != 0 || st.ArbiterCalls != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Decided-at latency: the quorum's critical path only — the skipped
	// 10s voter is never waited on.
	if dec.LatencySeconds != 3 {
		t.Fatalf("latency = %v, want 3 (quorum critical path)", dec.LatencySeconds)
	}
	if !reflect.DeepEqual(dec.TierLatencySeconds, []float64{3}) {
		t.Fatalf("tier latencies = %v", dec.TierLatencySeconds)
	}
}

func TestEngineAdaptiveEscalatesOnDisagreement(t *testing.T) {
	f := synthFact()
	eng := &Engine{Plan: fourPlan(), Mode: ModeAdaptive, AllowTie: true}
	lats := map[string]time.Duration{"a": time.Second, "b": 2 * time.Second, "c": 3 * time.Second, "d": 10 * time.Second}

	// 2-1 quorum: unsettled, escalate to d. d votes true -> 3-1 true.
	verdicts := map[string]strategy.Verdict{"a": strategy.True, "b": strategy.False, "c": strategy.True, "d": strategy.True}
	dec, st, err := eng.Decide(context.Background(), f, planFetch(f, verdicts, lats))
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Final || dec.Tie || dec.Skipped != nil {
		t.Fatalf("decision = %+v, want escalated 3-1 true", dec)
	}
	if st.Dispatched != 4 || st.Skipped != 0 || st.Escalations != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Decided-at latency: quorum critical path + escalation tier.
	if dec.LatencySeconds != 13 {
		t.Fatalf("latency = %v, want 13", dec.LatencySeconds)
	}
	if !reflect.DeepEqual(dec.TierLatencySeconds, []float64{3, 10}) {
		t.Fatalf("tier latencies = %v", dec.TierLatencySeconds)
	}

	// 2-1 quorum, d votes false -> genuine 2-2 tie, reported (AllowTie).
	verdicts["d"] = strategy.False
	dec, st, err = eng.Decide(context.Background(), f, planFetch(f, verdicts, lats))
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Tie || dec.Final {
		t.Fatalf("decision = %+v, want reported tie", dec)
	}
	if st.ArbiterCalls != 0 {
		t.Fatalf("arbiter called with AllowTie and no arbiter: %+v", st)
	}
}

// staticArbiter breaks every tie with a fixed verdict.
type staticArbiter struct {
	verdict strategy.Verdict
	lat     float64
	calls   int
}

func (a *staticArbiter) Name() string { return "static" }
func (a *staticArbiter) Break(context.Context, *dataset.Fact) (strategy.Verdict, float64, error) {
	a.calls++
	return a.verdict, a.lat, nil
}

func TestEngineTieArbitration(t *testing.T) {
	f := synthFact()
	arb := &staticArbiter{verdict: strategy.True, lat: 5}
	eng := &Engine{Plan: fourPlan(), Mode: ModeAdaptive, Arbiter: arb}
	verdicts := map[string]strategy.Verdict{"a": strategy.True, "b": strategy.False, "c": strategy.True, "d": strategy.False}
	lats := map[string]time.Duration{"a": time.Second, "b": time.Second, "c": time.Second, "d": time.Second}
	dec, st, err := eng.Decide(context.Background(), f, planFetch(f, verdicts, lats))
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Tie || !dec.Final || !dec.ArbiterVerdict {
		t.Fatalf("decision = %+v, want arbitrated-true tie", dec)
	}
	if st.ArbiterCalls != 1 || arb.calls != 1 {
		t.Fatalf("arbiter calls = %d/%d, want 1", st.ArbiterCalls, arb.calls)
	}
	if dec.LatencySeconds != 1+1+5 {
		t.Fatalf("latency = %v, want quorum 1 + escalation 1 + arbiter 5", dec.LatencySeconds)
	}

	// Without an arbiter and without AllowTie, a tie is an error (Decide
	// parity).
	eng = &Engine{Plan: fourPlan(), Mode: ModeEager}
	if _, _, err := eng.Decide(context.Background(), f, planFetch(f, verdicts, lats)); err == nil {
		t.Fatal("tie without arbiter accepted")
	}
}

func TestEngineErrors(t *testing.T) {
	f := synthFact()
	fetch := planFetch(f, map[string]strategy.Verdict{"a": strategy.True}, nil)

	empty := &Engine{Plan: Plan{}, Mode: ModeEager}
	if _, _, err := empty.Decide(context.Background(), f, fetch); err == nil {
		t.Error("empty plan accepted")
	}
	unknown := &Engine{Plan: fourPlan(), Mode: Mode("greedy")}
	if _, _, err := unknown.Decide(context.Background(), f, fetch); err == nil {
		t.Error("unknown mode accepted")
	}
	// A fetch error surfaces with the voter attached.
	failing := &Engine{Plan: fourPlan(), Mode: ModeEager, AllowTie: true}
	_, _, err := failing.Decide(context.Background(), f, func(_ context.Context, m string) (strategy.Outcome, error) {
		if m == "b" {
			return strategy.Outcome{}, errors.New("boom")
		}
		return strategy.Outcome{FactID: f.ID, Model: m, Verdict: strategy.True}, nil
	})
	if err == nil || !strings.Contains(err.Error(), "b vote") {
		t.Errorf("fetch error = %v, want wrapped b-vote error", err)
	}
	// An outcome for the wrong fact is rejected.
	mismatched := &Engine{Plan: fourPlan(), Mode: ModeEager, AllowTie: true}
	_, _, err = mismatched.Decide(context.Background(), f, func(_ context.Context, m string) (strategy.Outcome, error) {
		return strategy.Outcome{FactID: "other", Model: m, Verdict: strategy.True}, nil
	})
	if err == nil || !strings.Contains(err.Error(), "outcome fact") {
		t.Errorf("mismatched fact error = %v", err)
	}
}

// fixtureFetch adapts one fact's precomputed outcomes to a Fetch.
func fixtureFetch(outs []strategy.Outcome) Fetch {
	return func(_ context.Context, model string) (strategy.Outcome, error) {
		for _, o := range outs {
			if o.Model == model {
				return o, nil
			}
		}
		return strategy.Outcome{}, fmt.Errorf("no outcome for %s", model)
	}
}

// TestEngineEagerMatchesDecide pins the engine's eager mode to the
// package-level Decide golden baseline over every fact of the fixture:
// identical Final, Tie, ArbiterVerdict and LatencySeconds, identical votes
// as a set (the engine reorders dispatch by cost, never content).
func TestEngineEagerMatchesDecide(t *testing.T) {
	fx := setup(t)
	per := fx.perFact()
	ctx := context.Background()
	arb := &ModelArbiter{Label: "agg-cons-up", Judge: llm.MustNew(llm.Gemma2Big), Verifier: strategy.DKA{}}
	plan := NewPlan(llm.OpenSourceModels, llm.Cost)
	eng := &Engine{Plan: plan, Mode: ModeEager, Arbiter: arb}
	for i, outs := range per {
		want, err := Decide(ctx, fx.d.Facts[i], outs, arb)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := eng.Decide(ctx, fx.d.Facts[i], fixtureFetch(outs))
		if err != nil {
			t.Fatal(err)
		}
		if got.Final != want.Final || got.Tie != want.Tie || got.ArbiterVerdict != want.ArbiterVerdict {
			t.Fatalf("fact %s: engine (final %v tie %v arb %v) != Decide (final %v tie %v arb %v)",
				fx.d.Facts[i].ID, got.Final, got.Tie, got.ArbiterVerdict, want.Final, want.Tie, want.ArbiterVerdict)
		}
		if got.LatencySeconds != want.LatencySeconds {
			t.Fatalf("fact %s: engine latency %v != Decide latency %v",
				fx.d.Facts[i].ID, got.LatencySeconds, want.LatencySeconds)
		}
		if got.Skipped != nil || st.Skipped != 0 {
			t.Fatalf("fact %s: eager mode skipped votes: %v", fx.d.Facts[i].ID, got.Skipped)
		}
		if !sameVoteSet(got.Votes, want.Votes) {
			t.Fatalf("fact %s: vote sets differ: %v vs %v", fx.d.Facts[i].ID, got.Votes, want.Votes)
		}
	}
}

// TestEngineAdaptiveMatchesEager is the differential gate at engine level:
// identical Final/Tie on every fact, skip sets deterministic across runs,
// and every unanimous fact early-stops.
func TestEngineAdaptiveMatchesEager(t *testing.T) {
	fx := setup(t)
	per := fx.perFact()
	ctx := context.Background()
	plan := NewPlan(llm.OpenSourceModels, llm.Cost)
	eager := &Engine{Plan: plan, Mode: ModeEager, AllowTie: true}
	adaptive := &Engine{Plan: plan, Mode: ModeAdaptive, AllowTie: true}

	unanimous, unanimousSkipped, skippedFacts := 0, 0, 0
	for i, outs := range per {
		f := fx.d.Facts[i]
		want, _, err := eager.Decide(ctx, f, fixtureFetch(outs))
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := adaptive.Decide(ctx, f, fixtureFetch(outs))
		if err != nil {
			t.Fatal(err)
		}
		if got.Final != want.Final || got.Tie != want.Tie {
			t.Fatalf("fact %s: adaptive (final %v tie %v) != eager (final %v tie %v)",
				f.ID, got.Final, got.Tie, want.Final, want.Tie)
		}
		if st.Dispatched+st.Skipped != len(plan.Order) {
			t.Fatalf("fact %s: dispatched %d + skipped %d != %d", f.ID, st.Dispatched, st.Skipped, len(plan.Order))
		}
		if len(got.Skipped) > 0 {
			skippedFacts++
			// Settled on tier 1 alone: the decided-at latency is tier 1's
			// critical path, which can never exceed the eager critical path
			// over the full ensemble.
			if got.LatencySeconds > want.LatencySeconds {
				t.Fatalf("fact %s: decided-at latency %v above eager critical path %v",
					f.ID, got.LatencySeconds, want.LatencySeconds)
			}
		}
		// Re-deciding must reproduce the skip set exactly.
		again, _, err := adaptive.Decide(ctx, f, fixtureFetch(outs))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again.Skipped, got.Skipped) {
			t.Fatalf("fact %s: skip set not deterministic: %v vs %v", f.ID, again.Skipped, got.Skipped)
		}
		if allAgree(want.Votes) {
			unanimous++
			if len(got.Skipped) > 0 {
				unanimousSkipped++
			}
		}
	}
	if unanimous == 0 {
		t.Fatal("fixture has no unanimous facts; differential gate is vacuous")
	}
	if unanimousSkipped*2 <= unanimous {
		t.Fatalf("early stop on %d of %d unanimous facts, want a majority", unanimousSkipped, unanimous)
	}
	if skippedFacts == 0 {
		t.Fatal("adaptive mode never skipped a vote")
	}
}

func allAgree(vs []Vote) bool {
	for _, v := range vs {
		if v.Verdict.Bool() != vs[0].Verdict.Bool() {
			return false
		}
	}
	return len(vs) > 0
}

func sameVoteSet(a, b []Vote) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(v Vote) string { return v.Model + "=" + v.Verdict.String() }
	as := make([]string, len(a))
	bs := make([]string, len(b))
	for i := range a {
		as[i], bs[i] = key(a[i]), key(b[i])
	}
	sort.Strings(as)
	sort.Strings(bs)
	return reflect.DeepEqual(as, bs)
}
