package consensus

import (
	"context"
	"reflect"
	"testing"

	"factcheck/internal/dataset"
	"factcheck/internal/eval"
	"factcheck/internal/llm"
	"factcheck/internal/strategy"
	"factcheck/internal/world"
)

func votes(vs ...strategy.Verdict) []Vote {
	out := make([]Vote, len(vs))
	for i, v := range vs {
		out[i] = Vote{Model: "m" + string(rune('0'+i)), Verdict: v}
	}
	return out
}

func TestMajorityRule(t *testing.T) {
	T, F, I := strategy.True, strategy.False, strategy.Invalid
	tests := []struct {
		vs      []Vote
		verdict bool
		tie     bool
	}{
		{votes(T, T, T, T), true, false},
		{votes(T, T, T, F), true, false},
		{votes(T, T, F, F), false, true},
		{votes(T, F, F, F), false, false},
		{votes(F, F, F, F), false, false},
		// Invalid votes count as 0 ("false") per the paper's formula.
		{votes(T, T, I, F), false, true},
		{votes(T, T, T, I), true, false},
	}
	for i, tc := range tests {
		v, tie := Majority(tc.vs)
		if v != tc.verdict || tie != tc.tie {
			t.Errorf("case %d: Majority = (%v, %v), want (%v, %v)", i, v, tie, tc.verdict, tc.tie)
		}
	}
}

// TestMajorityEnsembleSizes pins the generalised threshold rule on every
// ensemble size the adaptive engine can produce: the partial tiers (1–3
// voters), the paper's 4, and hypothetical larger panels up to 7.
func TestMajorityEnsembleSizes(t *testing.T) {
	T, F := strategy.True, strategy.False
	tests := []struct {
		name    string
		vs      []Vote
		verdict bool
		tie     bool
	}{
		{"empty", votes(), false, false},
		{"1: lone true", votes(T), true, false},
		{"1: lone false", votes(F), false, false},
		{"2: unanimous true", votes(T, T), true, false},
		{"2: split", votes(T, F), false, true},
		{"2: unanimous false", votes(F, F), false, false},
		{"3: 2-1 true", votes(T, F, T), true, false},
		{"3: 1-2 false", votes(F, T, F), false, false},
		{"4: 3-1 true", votes(T, T, F, T), true, false},
		{"4: 2-2 tie", votes(F, T, T, F), false, true},
		{"5: 3-2 true", votes(T, T, F, T, F), true, false},
		{"5: 2-3 false", votes(T, F, F, T, F), false, false},
		{"6: 3-3 tie", votes(T, T, T, F, F, F), false, true},
		{"6: 4-2 true", votes(T, T, T, F, T, F), true, false},
		{"7: 4-3 true", votes(T, F, T, F, T, F, T), true, false},
		{"7: 3-4 false", votes(F, T, F, T, F, T, F), false, false},
	}
	for _, tc := range tests {
		v, tie := Majority(tc.vs)
		if v != tc.verdict || tie != tc.tie {
			t.Errorf("%s: Majority = (%v, %v), want (%v, %v)", tc.name, v, tie, tc.verdict, tc.tie)
		}
	}
}

func TestMajorityOddPanelNoTies(t *testing.T) {
	T, F := strategy.True, strategy.False
	if _, tie := Majority(votes(T, T, F)); tie {
		t.Error("odd panel produced a tie")
	}
	if v, _ := Majority(votes(F, F, T)); v {
		t.Error("odd panel majority wrong")
	}
}

type fixture struct {
	d    *dataset.Dataset
	outs map[string][]strategy.Outcome
}

func setup(t *testing.T) *fixture {
	t.Helper()
	w := world.New(world.SmallConfig())
	d := dataset.Build(w, dataset.FactBench, 0.05)
	fx := &fixture{d: d, outs: map[string][]strategy.Outcome{}}
	ctx := context.Background()
	for _, name := range llm.OpenSourceModels {
		m := llm.MustNew(name)
		for _, f := range d.Facts {
			o, err := strategy.DKA{}.Verify(ctx, m, f)
			if err != nil {
				t.Fatal(err)
			}
			fx.outs[name] = append(fx.outs[name], o)
		}
	}
	return fx
}

func (fx *fixture) perFact() [][]strategy.Outcome {
	per := make([][]strategy.Outcome, len(fx.d.Facts))
	for i := range fx.d.Facts {
		for _, name := range llm.OpenSourceModels {
			per[i] = append(per[i], fx.outs[name][i])
		}
	}
	return per
}

// columns returns the fixture's outcomes as one column per model, in
// llm.OpenSourceModels order.
func (fx *fixture) columns() [][]strategy.Outcome {
	cols := make([][]strategy.Outcome, len(llm.OpenSourceModels))
	for j, name := range llm.OpenSourceModels {
		cols[j] = fx.outs[name]
	}
	return cols
}

// perFactAlignment is the retired Alignment over per-fact outcome rows,
// kept as the reference for the column-reading one; perFact[i][j] is
// names[j]'s outcome on fact i.
func perFactAlignment(names []string, perFact [][]strategy.Outcome) AlignmentReport {
	if len(perFact) == 0 {
		return AlignmentReport{CA: map[string]float64{}}
	}
	models := map[string][]bool{}
	var majorities []bool
	ties := 0
	for _, outs := range perFact {
		maj, tie := Majority(votesOf(names, outs))
		if tie {
			ties++
		}
		majorities = append(majorities, maj)
		for j, o := range outs {
			models[names[j]] = append(models[names[j]], o.Verdict.Bool())
		}
	}
	rep := AlignmentReport{
		TieRate: float64(ties) / float64(len(perFact)),
		CA:      map[string]float64{},
	}
	for m, preds := range models {
		rep.CA[m] = eval.ConsensusAlignment(preds, majorities)
	}
	return rep
}

// TestAlignmentMatchesPerFact pins Alignment over columns to the retired
// per-fact regrouping, for every prefix length of the fixture's facts
// (empty and single-fact included) and for a column subset.
func TestAlignmentMatchesPerFact(t *testing.T) {
	fx := setup(t)
	cols, per := fx.columns(), fx.perFact()
	for n := 0; n <= len(per); n++ {
		prefix := make([][]strategy.Outcome, len(cols))
		for j, col := range cols {
			prefix[j] = col[:n]
		}
		if got, want := Alignment(llm.OpenSourceModels, prefix), perFactAlignment(llm.OpenSourceModels, per[:n]); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d facts: Alignment %+v, per-fact %+v", n, got, want)
		}
	}
	subNames := []string{llm.OpenSourceModels[2], llm.OpenSourceModels[0]}
	sub := [][]strategy.Outcome{cols[2], cols[0]}
	subPer := make([][]strategy.Outcome, len(per))
	for i := range per {
		subPer[i] = []strategy.Outcome{cols[2][i], cols[0][i]}
	}
	if got, want := Alignment(subNames, sub), perFactAlignment(subNames, subPer); !reflect.DeepEqual(got, want) {
		t.Fatalf("two columns: Alignment %+v, per-fact %+v", got, want)
	}
}

func TestDecideNoTieNeedsNoArbiter(t *testing.T) {
	fx := setup(t)
	per := fx.perFact()
	ctx := context.Background()
	for i, outs := range per {
		_, tie := Majority(votesOf(llm.OpenSourceModels, outs))
		if tie {
			continue
		}
		dec, err := Decide(ctx, fx.d.Facts[i], llm.OpenSourceModels, outs, nil)
		if err != nil {
			t.Fatalf("Decide without arbiter on non-tie failed: %v", err)
		}
		if dec.Tie {
			t.Error("decision marked tie on clear majority")
		}
		if dec.LatencySeconds <= 0 {
			t.Error("no consensus latency")
		}
		return
	}
}

func TestDecideTieUsesArbiter(t *testing.T) {
	fx := setup(t)
	per := fx.perFact()
	ctx := context.Background()
	judge := llm.MustNew(llm.Gemma2Big)
	arb := &ModelArbiter{Label: "agg-cons-up", Judge: judge, Verifier: strategy.DKA{}}
	foundTie := false
	for i, outs := range per {
		_, tie := Majority(votesOf(llm.OpenSourceModels, outs))
		if !tie {
			continue
		}
		foundTie = true
		base, err := Decide(ctx, fx.d.Facts[i], llm.OpenSourceModels, outs, arb)
		if err != nil {
			t.Fatal(err)
		}
		if !base.Tie {
			t.Error("tie not flagged")
		}
		if base.Final != base.ArbiterVerdict {
			t.Error("tie decision does not follow the arbiter")
		}
		// Latency must include the arbiter call on top of the slowest model.
		maxLat := 0.0
		for _, o := range outs {
			if s := o.Latency.Seconds(); s > maxLat {
				maxLat = s
			}
		}
		if base.LatencySeconds <= maxLat {
			t.Error("arbiter latency not added")
		}
		break
	}
	if !foundTie {
		t.Skip("no ties in this sample")
	}
}

func TestDecideTieWithoutArbiterFails(t *testing.T) {
	fx := setup(t)
	per := fx.perFact()
	for i, outs := range per {
		if _, tie := Majority(votesOf(llm.OpenSourceModels, outs)); tie {
			if _, err := Decide(context.Background(), fx.d.Facts[i], llm.OpenSourceModels, outs, nil); err == nil {
				t.Error("tie without arbiter accepted")
			}
			return
		}
	}
	t.Skip("no ties in this sample")
}

func TestDecideRejectsMismatchedFact(t *testing.T) {
	fx := setup(t)
	per := fx.perFact()
	if _, err := Decide(context.Background(), fx.d.Facts[1], llm.OpenSourceModels, per[0], nil); err == nil {
		t.Error("mismatched outcomes accepted")
	}
}

func TestDecideRejectsVoterCountMismatch(t *testing.T) {
	fx := setup(t)
	outs := fx.perFact()[0]
	if _, err := Decide(context.Background(), fx.d.Facts[0], llm.OpenSourceModels[1:], outs, nil); err == nil {
		t.Error("three voters for four outcomes accepted")
	}
	if _, err := Decide(context.Background(), fx.d.Facts[0], llm.OpenSourceModels, outs[1:], nil); err == nil {
		t.Error("four voters for three outcomes accepted")
	}
}

// TestVoterNamesComeFromModels: an outcome does not name its model, so
// Decide's votes and Alignment's CA keys are exactly the names passed in,
// whatever models produced the outcomes.
func TestVoterNamesComeFromModels(t *testing.T) {
	fx := setup(t)
	names := []string{"w", "x", "y", "z"}
	arb := &ModelArbiter{Label: "a", Judge: llm.MustNew(llm.GPT4oMini), Verifier: strategy.DKA{}}
	for i, outs := range fx.perFact() {
		dec, err := Decide(context.Background(), fx.d.Facts[i], names, outs, arb)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := dec.Votes, votesOf(names, outs); !reflect.DeepEqual(got, want) {
			t.Fatalf("fact %d: votes %v, want %v", i, got, want)
		}
	}
	rep := Alignment(names, fx.columns())
	want := Alignment(llm.OpenSourceModels, fx.columns())
	if len(rep.CA) != len(names) || rep.TieRate != want.TieRate {
		t.Fatalf("alignment %+v, want %d keys and tie rate %v", rep, len(names), want.TieRate)
	}
	for j, m := range llm.OpenSourceModels {
		if ca, ok := rep.CA[names[j]]; !ok || ca != want.CA[m] {
			t.Errorf("CA[%s] = %v (present %v), want %s's %v", names[j], ca, ok, m, want.CA[m])
		}
	}
}

// votesOf names each of one fact's outcomes after its voter, names[j]
// casting outs[j].
func votesOf(names []string, outs []strategy.Outcome) []Vote {
	vs := make([]Vote, len(outs))
	for i, o := range outs {
		vs[i] = Vote{Model: names[i], Verdict: o.Verdict}
	}
	return vs
}

func TestAlignmentReport(t *testing.T) {
	fx := setup(t)
	rep := Alignment(llm.OpenSourceModels, fx.columns())
	if len(rep.CA) != len(llm.OpenSourceModels) {
		t.Fatalf("CA for %d models, want %d", len(rep.CA), len(llm.OpenSourceModels))
	}
	for m, ca := range rep.CA {
		if ca < 0.5 || ca > 1 {
			t.Errorf("CA[%s] = %f, implausible", m, ca)
		}
	}
	if rep.TieRate < 0 || rep.TieRate > 0.6 {
		t.Errorf("tie rate = %f, implausible", rep.TieRate)
	}
	up := rep.MostConsistent(true)
	down := rep.MostConsistent(false)
	if up == "" || down == "" {
		t.Fatal("consistency extremes empty")
	}
	if rep.CA[up] < rep.CA[down] {
		t.Errorf("most consistent %s (%.3f) below least consistent %s (%.3f)",
			up, rep.CA[up], down, rep.CA[down])
	}
}

func TestAlignmentEmpty(t *testing.T) {
	rep := Alignment(nil, nil)
	if rep.TieRate != 0 || len(rep.CA) != 0 {
		t.Errorf("empty alignment = %+v", rep)
	}
}

func TestConsensusMitigatesWorstModel(t *testing.T) {
	// The paper: consensus "mitigates the impact of weaker ones". The
	// consensus accuracy must be at least the worst individual accuracy.
	fx := setup(t)
	per := fx.perFact()
	ctx := context.Background()
	judge := llm.MustNew(llm.GPT4oMini)
	arb := &ModelArbiter{Label: "agg-gpt-4o-mini", Judge: judge, Verifier: strategy.DKA{}}

	correct := 0
	for i, outs := range per {
		dec, err := Decide(ctx, fx.d.Facts[i], llm.OpenSourceModels, outs, arb)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Final == dec.Gold {
			correct++
		}
	}
	consAcc := float64(correct) / float64(len(per))

	worst := 1.0
	for _, name := range llm.OpenSourceModels {
		c := 0
		for _, o := range fx.outs[name] {
			if o.Correct {
				c++
			}
		}
		acc := float64(c) / float64(len(fx.outs[name]))
		if acc < worst {
			worst = acc
		}
	}
	if consAcc < worst {
		t.Errorf("consensus accuracy %.3f below worst individual %.3f", consAcc, worst)
	}
}
