package consensus

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"factcheck/internal/llm"
	"factcheck/internal/strategy"
)

// heldLookup adapts one fact's precomputed outcomes to a Lookup.
func heldLookup(outs *[]strategy.Outcome) func(string) (strategy.Outcome, bool) {
	return func(model string) (strategy.Outcome, bool) {
		for _, o := range *outs {
			if o.Model == model {
				return o, true
			}
		}
		return strategy.Outcome{}, false
	}
}

// TestDecideResolvesLookupInline: when Lookup holds every vote, Fetch is
// never called, the decision and stats equal the Fetch-only engine's in
// every mode, and an eager decision allocates no more than one whose single
// miss is fetched inline (no goroutines, no closures).
func TestDecideResolvesLookupInline(t *testing.T) {
	fx := setup(t)
	per := fx.perFact()
	ctx := context.Background()
	plan := NewPlan(llm.OpenSourceModels, llm.Cost)
	arb := &ModelArbiter{Label: "agg-cons-up", Judge: llm.MustNew(llm.Gemma2Big), Verifier: strategy.DKA{}}
	var outs []strategy.Outcome
	noFetch := func(_ context.Context, model string) (strategy.Outcome, error) {
		t.Errorf("Fetch(%s) called for a vote Lookup holds", model)
		return strategy.Outcome{}, fmt.Errorf("unexpected fetch of %s", model)
	}
	for _, mode := range []Mode{ModeEager, ModeAdaptive} {
		fetching := &Engine{Plan: plan, Mode: mode, Arbiter: arb}
		holding := &Engine{Plan: plan, Mode: mode, Arbiter: arb, Lookup: heldLookup(&outs)}
		for i := range per {
			outs = per[i]
			f := fx.d.Facts[i]
			want, wst, err := fetching.Decide(ctx, f, fixtureFetch(outs))
			if err != nil {
				t.Fatal(err)
			}
			got, gst, err := holding.Decide(ctx, f, noFetch)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) || gst != wst {
				t.Fatalf("%s fact %s: with Lookup (%+v, %+v), Fetch only (%+v, %+v)", mode, f.ID, got, gst, want, wst)
			}
		}
	}

	f := fx.d.Facts[0]
	outs = per[0]
	held := heldLookup(&outs)
	oneMiss := &Engine{Plan: plan, Mode: ModeEager, AllowTie: true, Lookup: func(model string) (strategy.Outcome, bool) {
		if model == plan.Order[0] {
			return strategy.Outcome{}, false
		}
		return held(model)
	}}
	eager := &Engine{Plan: plan, Mode: ModeEager, AllowTie: true, Lookup: held}
	fetch := fixtureFetch(outs)
	oneMissAllocs := testing.AllocsPerRun(200, func() { oneMiss.Decide(ctx, f, fetch) })
	eagerAllocs := testing.AllocsPerRun(200, func() { eager.Decide(ctx, f, noFetch) })
	t.Logf("allocs per decision: every vote held %v, one inline miss %v", eagerAllocs, oneMissAllocs)
	if eagerAllocs > oneMissAllocs {
		t.Fatalf("eager decision with every vote held: %v allocs, with one inline miss %v", eagerAllocs, oneMissAllocs)
	}
}

// concurrentFetch returns a Fetch that answers from verdicts only once
// want calls are in flight at the same time, failing after a timeout —
// so it succeeds only when the engine fans the calls out — and counts
// its calls.
func concurrentFetch(want int, calls *atomic.Int64, verdicts map[string]strategy.Verdict) Fetch {
	var mu sync.Mutex
	arrived := 0
	all := make(chan struct{})
	return func(ctx context.Context, model string) (strategy.Outcome, error) {
		calls.Add(1)
		mu.Lock()
		if arrived++; arrived == want {
			close(all)
		}
		mu.Unlock()
		select {
		case <-all:
		case <-time.After(5 * time.Second):
			return strategy.Outcome{}, fmt.Errorf("fetch of %s waited alone: the wave's misses were not fanned out", model)
		}
		return strategy.Outcome{FactID: synthFact().ID, Model: model, Verdict: verdicts[model]}, nil
	}
}

// TestDecideFansOutMisses: votes Lookup misses still fan out when a wave
// has two or more of them, whether the whole wave misses or only part of
// it, and only the misses are fetched.
func TestDecideFansOutMisses(t *testing.T) {
	ctx := context.Background()
	verdicts := map[string]strategy.Verdict{"a": strategy.True, "b": strategy.True, "c": strategy.False, "d": strategy.False}
	held := func(models ...string) func(string) (strategy.Outcome, bool) {
		return func(model string) (strategy.Outcome, bool) {
			for _, m := range models {
				if m == model {
					return strategy.Outcome{FactID: synthFact().ID, Model: model, Verdict: verdicts[model]}, true
				}
			}
			return strategy.Outcome{}, false
		}
	}
	for _, tc := range []struct {
		name   string
		lookup func(string) (strategy.Outcome, bool)
		misses int
	}{
		{"all-miss", held(), 4},
		{"nil-lookup", nil, 4},
		{"two-miss", held("a", "d"), 2},
	} {
		var calls atomic.Int64
		eng := &Engine{Plan: fourPlan(), Mode: ModeEager, AllowTie: true, Lookup: tc.lookup}
		dec, st, err := eng.Decide(ctx, synthFact(), concurrentFetch(tc.misses, &calls, verdicts))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := int(calls.Load()); got != tc.misses {
			t.Fatalf("%s: %d fetches, want %d", tc.name, got, tc.misses)
		}
		if !dec.Tie || len(dec.Votes) != 4 || st.Dispatched != 4 {
			t.Fatalf("%s: decision %+v stats %+v, want a 2-2 tie over 4 dispatched votes", tc.name, dec, st)
		}
	}
}
