package rules

import (
	"context"
	"fmt"
	"time"

	"factcheck/internal/dataset"
	"factcheck/internal/llm"
	"factcheck/internal/strategy"
)

// Mode selects which rule families the engine applies.
type Mode int

// Rule modes.
const (
	// Structural applies only ontology-level rules (domain, range,
	// irreflexivity). These never consult the KG's fact content, so they
	// are sound even when the KG under validation is itself suspect — the
	// setting of this benchmark. Note that FactBench-style negative
	// sampling deliberately respects domain/range constraints, so
	// structural coverage on the benchmark is near zero: exactly why
	// rule-only validation is insufficient (paper §1).
	Structural Mode = iota
	// Snapshot additionally applies fact-dependent rules (assertion,
	// symmetry, functional conflicts). Sound only when the KG content is
	// trusted — the KG-completion validation setting (KGValidator), not
	// KG accuracy estimation; on this benchmark it is circular by
	// construction and decides everything.
	Snapshot
)

// checkWithMode evaluates under the mode's rule subset.
func (e *Engine) checkWithMode(f *dataset.Fact, mode Mode) Result {
	r := e.CheckFact(f)
	if mode == Snapshot {
		return r
	}
	switch r.Rule {
	case "domain", "range", "irreflexive":
		return r
	default:
		return Result{Verdict: Unknown}
	}
}

// Augmented is a verifier that consults ontology rules before falling back
// to an inner LLM strategy: rule-decided facts cost no tokens and
// microseconds of latency; the rest behave exactly like the inner verifier.
// It implements strategy.Verifier.
type Augmented struct {
	Engine *Engine
	Inner  strategy.Verifier
	Mode   Mode
}

// ruleLatency is the simulated cost of a rule evaluation: in-memory index
// lookups, effectively free next to an LLM call.
const ruleLatency = 200 * time.Microsecond

// Method implements strategy.Verifier; the method reflects the inner
// strategy (rule augmentation is transparent to reporting).
func (a *Augmented) Method() llm.Method { return a.Inner.Method() }

// Verify implements strategy.Verifier.
func (a *Augmented) Verify(ctx context.Context, m llm.Model, f *dataset.Fact) (strategy.Outcome, error) {
	if a.Engine == nil || a.Inner == nil {
		return strategy.Outcome{}, fmt.Errorf("rules: augmented verifier not fully wired")
	}
	r := a.Engine.checkWithMode(f, a.Mode)
	if r.Verdict == Unknown {
		return a.Inner.Verify(ctx, m, f)
	}
	out := strategy.Outcome{
		FactID:      f.ID,
		Gold:        f.Gold,
		Latency:     ruleLatency,
		Attempts:    0,
		Explanation: "[rule:" + r.Rule + "] " + r.Explanation,
	}
	if r.Verdict == Entailed {
		out.Verdict = strategy.True
	} else {
		out.Verdict = strategy.False
	}
	out.Correct = out.Verdict.Bool() == f.Gold
	return out, nil
}
