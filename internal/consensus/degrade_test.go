package consensus

import (
	"context"
	"reflect"
	"testing"

	"factcheck/internal/resilience"
	"factcheck/internal/strategy"
)

// unavailableErr marks a voter's dependency hard-down (the duck-typed
// contract resilience.IsUnavailable classifies on).
type unavailableErr struct{}

func (unavailableErr) Error() string          { return "voter down" }
func (unavailableErr) FaultUnavailable() bool { return true }

// retryableErr is transient, not unavailable: degradation must not
// swallow it.
type retryableErr struct{}

func (retryableErr) Error() string        { return "flaky voter" }
func (retryableErr) FaultTransient() bool { return true }

func TestEngineDegradeDropsUnavailableVoter(t *testing.T) {
	f := synthFact()
	verdicts := map[string]strategy.Verdict{"a": strategy.True, "c": strategy.True, "d": strategy.True}
	fetch := func(_ context.Context, model string) (strategy.Outcome, error) {
		if model == "b" {
			return strategy.Outcome{}, unavailableErr{}
		}
		return strategy.Outcome{FactID: f.ID, Verdict: verdicts[model]}, nil
	}

	eng := &Engine{Plan: fourPlan(), Mode: ModeEager, AllowTie: true, Degrade: true}
	dec, st, err := eng.Decide(context.Background(), f, fetch)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec.Unavailable, []string{"b"}) {
		t.Fatalf("unavailable = %v, want [b]", dec.Unavailable)
	}
	if len(dec.Votes) != 3 || !dec.Final || dec.Tie {
		t.Fatalf("decision = %+v, want a 3-0 survivor majority", dec)
	}
	for _, v := range dec.Votes {
		if v.Model == "b" {
			t.Fatal("the unavailable voter cast a vote")
		}
	}
	if st.Dispatched != 4 {
		t.Fatalf("stats = %+v, want all 4 dispatched", st)
	}

	// Without Degrade the same outage fails the whole decision.
	strict := &Engine{Plan: fourPlan(), Mode: ModeEager, AllowTie: true}
	if _, _, err := strict.Decide(context.Background(), f, fetch); err == nil {
		t.Fatal("non-degrading engine accepted an unavailable voter")
	}
}

// TestEngineDegradeShrinksSettledBound: an unavailable quorum voter
// shrinks the ensemble, so the survivors can settle early and still skip
// the escalation tier.
func TestEngineDegradeShrinksSettledBound(t *testing.T) {
	f := synthFact()
	verdicts := map[string]strategy.Verdict{"b": strategy.True, "c": strategy.True, "d": strategy.False}
	fetch := func(_ context.Context, model string) (strategy.Outcome, error) {
		if model == "a" {
			return strategy.Outcome{}, unavailableErr{}
		}
		return strategy.Outcome{FactID: f.ID, Verdict: verdicts[model]}, nil
	}
	eng := &Engine{Plan: fourPlan(), Mode: ModeAdaptive, AllowTie: true, Degrade: true}
	dec, st, err := eng.Decide(context.Background(), f, fetch)
	if err != nil {
		t.Fatal(err)
	}
	// Quorum {a,b,c} with a down: 2-0 over a 3-voter ensemble is settled,
	// so d is never consulted.
	if !dec.Final || dec.Tie {
		t.Fatalf("decision = %+v, want settled true", dec)
	}
	if !reflect.DeepEqual(dec.Unavailable, []string{"a"}) || !reflect.DeepEqual(dec.Skipped, []string{"d"}) {
		t.Fatalf("unavailable = %v skipped = %v, want [a] / [d]", dec.Unavailable, dec.Skipped)
	}
	if st.Dispatched != 3 || st.Skipped != 1 || st.Escalations != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestEngineDegradeAllUnavailable: with no ensemble left the decision
// errors, and the error keeps its unavailability classification so the
// serving layer maps it to 503, not 500.
func TestEngineDegradeAllUnavailable(t *testing.T) {
	f := synthFact()
	fetch := func(context.Context, string) (strategy.Outcome, error) {
		return strategy.Outcome{}, unavailableErr{}
	}
	eng := &Engine{Plan: fourPlan(), Mode: ModeEager, AllowTie: true, Degrade: true}
	_, _, err := eng.Decide(context.Background(), f, fetch)
	if err == nil {
		t.Fatal("empty surviving ensemble decided")
	}
	if !resilience.IsUnavailable(err) {
		t.Fatalf("all-down error %v lost its unavailability classification", err)
	}
}

// TestEngineDegradeTransientStillErrors: only dependency unavailability is
// survivable — a transient (retry-exhausted) voter failure errors the
// decision even with Degrade on.
func TestEngineDegradeTransientStillErrors(t *testing.T) {
	f := synthFact()
	fetch := func(_ context.Context, model string) (strategy.Outcome, error) {
		if model == "b" {
			return strategy.Outcome{}, retryableErr{}
		}
		return strategy.Outcome{FactID: f.ID, Verdict: strategy.True}, nil
	}
	eng := &Engine{Plan: fourPlan(), Mode: ModeEager, AllowTie: true, Degrade: true}
	if _, _, err := eng.Decide(context.Background(), f, fetch); err == nil {
		t.Fatal("degrading engine swallowed a transient voter failure")
	}
}
