// Package consensus implements the paper's multi-model consensus strategy
// (§3.3): a majority vote over the four open-source models' verdicts with a
// tie-breaking judge. Ties (2-2 splits) are resolved by one of three
// arbiters: the higher-parameter variant of the most consistent model
// (agg-cons-up), of the least consistent model (agg-cons-down), or a
// commercial model with an independent training pipeline (agg-GPT-4o mini).
package consensus

import (
	"context"
	"fmt"

	"factcheck/internal/dataset"
	"factcheck/internal/eval"
	"factcheck/internal/llm"
	"factcheck/internal/strategy"
)

// Vote is one model's binary verdict on a fact (invalid responses vote
// false, per §3.3's v_i ∈ {0,1} formulation).
type Vote struct {
	Model   string
	Verdict strategy.Verdict
}

// Majority applies the paper's threshold rule, generalised to any ensemble
// size: strictly more than half the votes true -> true, an exact even
// split -> tie, otherwise false. Over the paper's four voters this is
// exactly §3.3 (sum >= 3 -> true, sum == 2 -> tie); odd ensembles and the
// partial tiers of the adaptive engine can never tie. An empty vote set is
// no consensus at all: (false, false), not a tie.
func Majority(votes []Vote) (verdict bool, tie bool) {
	sum := 0
	for _, v := range votes {
		if v.Verdict.Bool() {
			sum++
		}
	}
	half := len(votes) / 2
	switch {
	case len(votes) == 0:
		return false, false
	case len(votes)%2 == 0 && sum == half:
		return false, true
	case sum > half:
		return true, false
	default:
		return false, false
	}
}

// Settled reports whether the majority over an ensemble of total voters is
// already mathematically decided after trueVotes and falseVotes have been
// cast: a side is settled the moment its count exceeds the dissenting
// count plus every vote still outstanding, so no assignment of the
// remaining votes can flip the verdict or force a tie. When settled,
// verdict is the final majority verdict. This is the early-stop bound of
// the adaptive engine; note a tie is never settled early — an even split
// only exists once every voter has spoken.
func Settled(trueVotes, falseVotes, total int) (verdict bool, settled bool) {
	remaining := total - trueVotes - falseVotes
	if remaining < 0 {
		remaining = 0
	}
	switch {
	case trueVotes > falseVotes+remaining:
		return true, true
	case falseVotes > trueVotes+remaining:
		return false, true
	}
	return false, false
}

// Decision is the consensus outcome for one fact.
type Decision struct {
	FactID string
	Gold   bool
	// Final is the consensus verdict after any tie-breaking.
	Final bool
	// Tie reports whether the vote split evenly and an arbiter was used.
	Tie bool
	// ArbiterVerdict is the judge's vote when Tie (false otherwise).
	ArbiterVerdict bool
	Votes          []Vote
	// Latency is the consensus response time: the paper notes consensus
	// parallelises, so it is the slowest member (plus the arbiter on ties).
	// Under the adaptive engine it is the decided-at time instead — the sum
	// of per-tier critical paths actually waited on, never charging for
	// votes that were skipped.
	LatencySeconds float64
	// Mode tags which execution strategy produced the decision (empty for
	// the package-level Decide baseline).
	Mode Mode
	// Skipped lists the voters the early-stop planner proved unnecessary,
	// in dispatch order. Nil unless votes were skipped; always nil outside
	// ModeAdaptive.
	Skipped []string
	// Unavailable lists voters dropped from the ensemble because their
	// dependency was down (Engine.Degrade), in dispatch order. The
	// decision settled over the survivors.
	Unavailable []string
	// TierLatencySeconds is the critical-path latency of each dispatched
	// tier, in dispatch order (nil for the package-level Decide baseline).
	TierLatencySeconds []float64
}

// Arbiter breaks ties.
type Arbiter interface {
	// Name identifies the arbiter configuration (e.g. "agg-cons-up").
	Name() string
	// Break returns the tie-breaking verdict for the fact.
	Break(ctx context.Context, f *dataset.Fact) (strategy.Verdict, float64, error)
}

// ModelArbiter breaks ties by querying a judge model with a verifier.
type ModelArbiter struct {
	Label    string
	Judge    llm.Model
	Verifier strategy.Verifier
}

// Name implements Arbiter.
func (a *ModelArbiter) Name() string { return a.Label }

// Break implements Arbiter.
func (a *ModelArbiter) Break(ctx context.Context, f *dataset.Fact) (strategy.Verdict, float64, error) {
	out, err := a.Verifier.Verify(ctx, a.Judge, f)
	if err != nil {
		return strategy.Invalid, 0, fmt.Errorf("arbiter %s: %w", a.Label, err)
	}
	return out.Verdict, out.Latency.Seconds(), nil
}

// Decide combines the per-model outcomes for one fact into a decision,
// consulting the arbiter only on ties. models[j] names the voter whose
// outcome is outcomes[j]; outcomes must all refer to the same fact.
func Decide(ctx context.Context, f *dataset.Fact, models []string, outcomes []strategy.Outcome, arb Arbiter) (Decision, error) {
	if len(models) != len(outcomes) {
		return Decision{}, fmt.Errorf("consensus: %d voters for %d outcomes on %s", len(models), len(outcomes), f.ID)
	}
	d := Decision{FactID: f.ID, Gold: f.Gold}
	maxLat := 0.0
	for j, o := range outcomes {
		if o.FactID != f.ID {
			return Decision{}, fmt.Errorf("consensus: outcome fact %s != %s", o.FactID, f.ID)
		}
		d.Votes = append(d.Votes, Vote{Model: models[j], Verdict: o.Verdict})
		if s := o.Latency.Seconds(); s > maxLat {
			maxLat = s
		}
	}
	verdict, tie := Majority(d.Votes)
	d.Final, d.Tie = verdict, tie
	d.LatencySeconds = maxLat
	if tie {
		if arb == nil {
			return Decision{}, fmt.Errorf("consensus: tie on %s with no arbiter", f.ID)
		}
		if err := BreakTie(ctx, &d, f, arb); err != nil {
			return Decision{}, err
		}
	}
	return d, nil
}

// BreakTie settles a tied decision with arb: Final becomes the arbiter's
// verdict and the arbiter's latency is added to LatencySeconds. Callers
// that decide a fact once and arbitrate it several ways apply it to a copy
// of the tied Decision per arbiter.
func BreakTie(ctx context.Context, d *Decision, f *dataset.Fact, arb Arbiter) error {
	v, lat, err := arb.Break(ctx, f)
	if err != nil {
		return err
	}
	d.ArbiterVerdict = v.Bool()
	d.Final = d.ArbiterVerdict
	d.LatencySeconds += lat
	return nil
}

// AlignmentReport holds per-model CA_M scores and the tie rate for one
// (dataset, method) cell of the paper's Table 6.
type AlignmentReport struct {
	TieRate float64
	// CA maps model name -> consensus alignment.
	CA map[string]float64
}

// Alignment computes CA_M for each model against the raw (pre-arbitration)
// majority: ties count as majority "false" per the v_i formulation, matching
// the proxy role CA plays in arbiter selection. cols holds one column per
// model, cols[j][i] being model models[j]'s outcome on fact i (as
// core.ResultSet.Columns returns them), every column of one length.
func Alignment(models []string, cols [][]strategy.Outcome) AlignmentReport {
	rep := AlignmentReport{CA: map[string]float64{}}
	if len(cols) == 0 || len(cols[0]) == 0 {
		return rep
	}
	n := len(cols[0])
	majorities := make([]bool, n)
	votes := make([]Vote, len(cols))
	ties := 0
	for i := range majorities {
		for j, col := range cols {
			votes[j] = Vote{Model: models[j], Verdict: col[i].Verdict}
		}
		maj, tie := Majority(votes)
		if tie {
			ties++
		}
		majorities[i] = maj
	}
	rep.TieRate = float64(ties) / float64(n)
	preds := make([]bool, n)
	for j, col := range cols {
		for i, o := range col {
			preds[i] = o.Verdict.Bool()
		}
		rep.CA[models[j]] = eval.ConsensusAlignment(preds, majorities)
	}
	return rep
}

// MostConsistent returns the model with the highest CA, and lowest when
// highest is false. Ties break lexicographically for determinism.
func (r AlignmentReport) MostConsistent(highest bool) string {
	best := ""
	var bestCA float64
	for m, ca := range r.CA {
		better := false
		switch {
		case best == "":
			better = true
		case highest && ca > bestCA:
			better = true
		case !highest && ca < bestCA:
			better = true
		case ca == bestCA && m < best:
			better = true
		}
		if better {
			best, bestCA = m, ca
		}
	}
	return best
}
