package core

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"factcheck/internal/consensus"
	"factcheck/internal/dataset"
	"factcheck/internal/eval"
	"factcheck/internal/llm"
	"factcheck/internal/resilience"
	"factcheck/internal/strategy"
)

// PerFact regroups a cell list of model names into per-fact outcome slices:
// result[i][j] is model j's outcome on fact i. The rows share one backing
// array (each capped at its own length). Missing and mismatched cells fail
// as in Columns. Only tests regroup; consensus reads Columns.
func (r *ResultSet) PerFact(d dataset.Name, m llm.Method, models []string) ([][]strategy.Outcome, error) {
	if len(models) == 0 {
		return nil, nil
	}
	cols, err := r.Columns(d, m, models)
	if err != nil {
		return nil, err
	}
	k := len(models)
	flat := make([]strategy.Outcome, len(cols[0])*k)
	per := make([][]strategy.Outcome, len(cols[0]))
	for i := range per {
		row := flat[i*k : (i+1)*k : (i+1)*k]
		for j, outs := range cols {
			row[j] = outs[i]
		}
		per[i] = row
	}
	return per, nil
}

// referenceConsensus is the retired per-arbiter consensus loop: every fact
// re-decided once per arbiter by an engine that holds the arbiter, with
// every vote fetched. It is the differential oracle for RunConsensusMode,
// which decides each fact once and arbitrates only the ties.
func referenceConsensus(ctx context.Context, b *Benchmark, rs *ResultSet, dn dataset.Name, method llm.Method, mode consensus.Mode) (*ConsensusCell, error) {
	models := openModels(b.Config.Models)
	perFact, err := rs.PerFact(dn, method, models)
	if err != nil {
		return nil, err
	}
	cols, err := rs.Columns(dn, method, models)
	if err != nil {
		return nil, err
	}
	cell := &ConsensusCell{
		Alignment: consensus.Alignment(models, cols),
		Results:   map[string]eval.Confusion{},
	}
	up, down, commercial, err := b.Arbiters(cell.Alignment, method)
	if err != nil {
		return nil, err
	}
	plan := consensus.NewPlan(models, llm.Cost)
	d := b.Datasets[dn]
	var lats []float64
	for _, arb := range []consensus.Arbiter{up, down, commercial} {
		eng := &consensus.Engine{Plan: plan, Mode: mode, Arbiter: arb}
		var conf eval.Confusion
		for i, outs := range perFact {
			outs := outs
			fetch := func(_ context.Context, model string) (strategy.Outcome, error) {
				if j := slices.Index(models, model); j >= 0 {
					return outs[j], nil
				}
				return strategy.Outcome{}, fmt.Errorf("no %s outcome for fact %s", model, d.Facts[i].ID)
			}
			dec, _, err := eng.Decide(ctx, d.Facts[i], fetch)
			if err != nil {
				return nil, err
			}
			conf.Add(dec.Gold, dec.Final, true)
			if arb.Name() == ArbiterLabels[0] {
				lats = append(lats, dec.LatencySeconds)
			}
		}
		cell.Results[arb.Name()] = conf
	}
	if len(lats) > 0 {
		cell.Latency = eval.Mean(eval.IQRFilter(lats))
	}
	return cell, nil
}

// referenceReport runs referenceConsensus over the grid's pairs, one after
// another.
func referenceReport(ctx context.Context, b *Benchmark, rs *ResultSet, mode consensus.Mode) (*ConsensusReport, error) {
	rep := &ConsensusReport{Cells: map[Cell]*ConsensusCell{}}
	for _, dn := range b.Config.Datasets {
		for _, method := range b.Config.Methods {
			cell, err := referenceConsensus(ctx, b, rs, dn, method, mode)
			if err != nil {
				return nil, err
			}
			rep.Cells[Cell{Dataset: dn, Method: method}] = cell
		}
	}
	return rep, nil
}

// TestConsensusReportMatchesReference pins the decide-once, pooled
// consensus report to the per-arbiter reference loop, under eager and
// adaptive execution, at parallelism 1 and 8, with and without a
// transient-fault plan absorbed by the resilience layer; and it requires
// the report and Table 9 to be identical at both parallelisms.
func TestConsensusReportMatchesReference(t *testing.T) {
	ctx := context.Background()
	plans := []struct {
		name  string
		fault string
	}{{"fault-free", ""}, {"transient", "err=0.05"}}
	for _, plan := range plans {
		var firstReps map[consensus.Mode]*ConsensusReport
		var firstTable9 string
		for _, par := range []int{1, 8} {
			cfg := TestConfig()
			cfg.Parallelism = par
			if plan.fault != "" {
				if err := cfg.Faults.Parse(plan.fault); err != nil {
					t.Fatal(err)
				}
				cfg.Resilience = &resilience.Config{Retries: 6, RetryBase: time.Microsecond, RetryMax: 20 * time.Microsecond, Seed: "consensus"}
			}
			b := NewBenchmark(cfg)
			rs, err := b.Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			reps := map[consensus.Mode]*ConsensusReport{}
			for _, mode := range []consensus.Mode{consensus.ModeEager, consensus.ModeAdaptive} {
				got, err := b.RunAllConsensusMode(ctx, rs, mode)
				if err != nil {
					t.Fatalf("%s par %d %s: %v", plan.name, par, mode, err)
				}
				want, err := referenceReport(ctx, b, rs, mode)
				if err != nil {
					t.Fatalf("%s par %d %s reference: %v", plan.name, par, mode, err)
				}
				for c, w := range want.Cells {
					if g := got.Cells[c]; !reflect.DeepEqual(g, w) {
						t.Fatalf("%s par %d %s: %s/%s cell\n got  %+v\n want %+v", plan.name, par, mode, c.Dataset, c.Method, g, w)
					}
				}
				if len(got.Cells) != len(want.Cells) {
					t.Fatalf("%s par %d %s: %d cells, reference %d", plan.name, par, mode, len(got.Cells), len(want.Cells))
				}
				reps[mode] = got
			}
			if plan.fault != "" {
				if st := b.Resilience.Stats(); st.Retries == 0 || st.Exhausted != 0 {
					t.Fatalf("%s par %d: resilience stats %+v, want faults absorbed by retries", plan.name, par, st)
				}
			}
			table9 := b.Table9(rs, llm.MethodDKA)
			if firstReps == nil {
				firstReps, firstTable9 = reps, table9
				continue
			}
			if !reflect.DeepEqual(reps, firstReps) {
				t.Fatalf("%s: consensus reports differ between parallelism 1 and %d", plan.name, par)
			}
			if table9 != firstTable9 {
				t.Fatalf("%s: Table 9 differs between parallelism 1 and %d:\n%s\nvs\n%s", plan.name, par, firstTable9, table9)
			}
		}
	}
}

// TestMergedMetricsMatchesConcatenation: walking the cells in place must
// give exactly the metrics of their concatenation.
func TestMergedMetricsMatchesConcatenation(t *testing.T) {
	_, rs := benchFixture(t)
	var cells [][]strategy.Outcome
	var all []strategy.Outcome
	for _, dn := range dataset.AllNames {
		c := rs.Get(dn, llm.MethodRAG, llm.Qwen25)
		cells = append(cells, c)
		all = append(all, c...)
	}
	if len(all) == 0 {
		t.Fatal("fixture has no outcomes")
	}
	if got, want := MergedMetrics(cells...), Metrics(all); got != want {
		t.Fatalf("MergedMetrics = %+v, Metrics of the concatenation = %+v", got, want)
	}
	if got := MergedMetrics(); got != (CellMetrics{}) {
		t.Fatalf("MergedMetrics() = %+v, want zero", got)
	}
}
