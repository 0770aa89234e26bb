package core

import (
	"context"
	"fmt"
	"strings"

	"factcheck/internal/consensus"
	"factcheck/internal/dataset"
	"factcheck/internal/eval"
	"factcheck/internal/llm"
	"factcheck/internal/sched"
	"factcheck/internal/strategy"
)

// ConsensusCell holds consensus results for one (dataset, method) cell.
type ConsensusCell struct {
	Alignment consensus.AlignmentReport
	// Results maps arbiter label -> metrics of the arbitrated consensus.
	Results map[string]eval.Confusion
	// Latency is the IQR-filtered mean of the consensus response time.
	Latency float64
}

// F1 returns (F1True, F1False) of the named arbiter configuration.
func (c *ConsensusCell) F1(arbiter string) (float64, float64) {
	conf := c.Results[arbiter]
	return conf.F1True(), conf.F1False()
}

// ArbiterLabels lists the paper's three consensus configurations in table
// order.
var ArbiterLabels = []string{"agg-cons-up", "agg-cons-down", "agg-gpt-4o-mini"}

// RunConsensus computes the consensus analysis for a (dataset, method) cell
// from the open-source models' outcomes in rs, invoking arbiters on ties.
// It runs the engine in eager (run-everything) mode — the golden baseline;
// RunConsensusMode selects other execution strategies.
func (b *Benchmark) RunConsensus(ctx context.Context, rs *ResultSet, dn dataset.Name, method llm.Method) (*ConsensusCell, error) {
	return b.RunConsensusMode(ctx, rs, dn, method, consensus.ModeEager)
}

// RunConsensusMode is RunConsensus under an explicit engine mode. Every
// mode yields identical verdicts (and therefore identical Alignment,
// Results and tables); adaptive changes only which votes are consulted and
// the honesty of the Latency column (decided-at time instead of
// slowest-of-all when the early-stop bound skipped voters).
//
// Each fact is decided once, its votes resolved inline from rs through
// Engine.Lookup; the three arbiters then break only the ties, arbiter by
// arbiter and in fact order, each on its own copy of the tied decision.
func (b *Benchmark) RunConsensusMode(ctx context.Context, rs *ResultSet, dn dataset.Name, method llm.Method, mode consensus.Mode) (*ConsensusCell, error) {
	models := openModels(b.Config.Models)
	cols, err := rs.Columns(dn, method, models)
	if err != nil {
		return nil, fmt.Errorf("core: %s/%s consensus: %w", dn, method, err)
	}
	cell := &ConsensusCell{
		Alignment: consensus.Alignment(models, cols),
		Results:   map[string]eval.Confusion{},
	}
	up, down, commercial, err := b.Arbiters(cell.Alignment, method)
	if err != nil {
		return nil, err
	}
	facts := b.Datasets[dn].Facts
	// col maps a voter to its column; fact is the fact under decision, i
	// its row in every column.
	col := make(map[string]int, len(models))
	for j, m := range models {
		col[m] = j
	}
	var (
		fact *dataset.Fact
		i    int
	)
	fetch := func(_ context.Context, model string) (strategy.Outcome, error) {
		return strategy.Outcome{}, fmt.Errorf("core: no %s outcome for fact %s", model, fact.ID)
	}
	eng := &consensus.Engine{
		Plan:     consensus.NewPlan(models, llm.Cost),
		Mode:     mode,
		AllowTie: true,
		Lookup: func(model string) (strategy.Outcome, bool) {
			j, ok := col[model]
			if !ok {
				return strategy.Outcome{}, false
			}
			return cols[j][i], true
		},
	}
	var n int
	if len(cols) > 0 {
		n = len(cols[0])
	}
	decs := make([]consensus.Decision, n)
	for i = range decs {
		fact = facts[i]
		if decs[i], _, err = eng.Decide(ctx, fact, fetch); err != nil {
			return nil, err
		}
	}
	lats := make([]float64, 0, len(decs))
	for _, arb := range []consensus.Arbiter{up, down, commercial} {
		var conf eval.Confusion
		for i := range decs {
			dec := decs[i]
			if dec.Tie {
				if err := consensus.BreakTie(ctx, &dec, facts[i], arb); err != nil {
					return nil, err
				}
			}
			conf.Add(dec.Gold, dec.Final, true)
			if arb.Name() == ArbiterLabels[0] {
				lats = append(lats, dec.LatencySeconds)
			}
		}
		cell.Results[arb.Name()] = conf
	}
	if len(lats) > 0 {
		filtered := eval.IQRFilter(lats)
		cell.Latency = eval.Mean(filtered)
	}
	return cell, nil
}

// ConsensusReport aggregates consensus cells over the whole grid.
type ConsensusReport struct {
	Cells map[Cell]*ConsensusCell // Model field is empty in keys
}

// RunAllConsensus computes consensus for every (dataset, method) pair in
// eager mode (the golden baseline).
func (b *Benchmark) RunAllConsensus(ctx context.Context, rs *ResultSet) (*ConsensusReport, error) {
	return b.RunAllConsensusMode(ctx, rs, consensus.ModeEager)
}

// RunAllConsensusMode computes consensus for every (dataset, method) pair
// under an explicit engine mode. The pairs are independent and run on a
// pool of Config.Parallelism workers; the report is identical at any
// parallelism.
func (b *Benchmark) RunAllConsensusMode(ctx context.Context, rs *ResultSet, mode consensus.Mode) (*ConsensusReport, error) {
	var pairs []Cell
	for _, dn := range b.Config.Datasets {
		for _, method := range b.Config.Methods {
			pairs = append(pairs, Cell{Dataset: dn, Method: method})
		}
	}
	cells := make([]*ConsensusCell, len(pairs))
	err := sched.New(b.Config.Parallelism).Run(ctx, len(pairs), func(ctx context.Context, i int) error {
		var err error
		cells[i], err = b.RunConsensusMode(ctx, rs, pairs[i].Dataset, pairs[i].Method, mode)
		return err
	})
	if err != nil {
		return nil, err
	}
	rep := &ConsensusReport{Cells: make(map[Cell]*ConsensusCell, len(pairs))}
	for i, c := range pairs {
		rep.Cells[c] = cells[i]
	}
	return rep, nil
}

// Table6 renders the model-alignment analysis (paper Table 6): tie rates
// and per-model CA_M for each dataset and method.
func (b *Benchmark) Table6(rep *ConsensusReport) string {
	models := openModels(b.Config.Models)
	var sb strings.Builder
	sb.WriteString("Table 6: Model alignment analysis (CA_M and tie rates).\n")
	fmt.Fprintf(&sb, "%-11s%-8s%7s", "Dataset", "Method", "Ties")
	for _, m := range models {
		fmt.Fprintf(&sb, "%12s", shortModel(m))
	}
	sb.WriteString("\n")
	for _, dn := range b.Config.Datasets {
		for _, method := range b.Config.Methods {
			cell := rep.Cells[Cell{Dataset: dn, Method: method}]
			if cell == nil {
				continue
			}
			fmt.Fprintf(&sb, "%-11s%-8s%6.0f%%", dn, method, 100*cell.Alignment.TieRate)
			for _, m := range models {
				fmt.Fprintf(&sb, "%12.3f", cell.Alignment.CA[m])
			}
			sb.WriteString("\n")
		}
	}
	return sb.String()
}

// Table7 renders the multi-model consensus evaluation (paper Table 7).
func (b *Benchmark) Table7(rep *ConsensusReport) string {
	var sb strings.Builder
	sb.WriteString("Table 7: Performance evaluation of multi-model consensus.\n")
	fmt.Fprintf(&sb, "%-11s%-8s", "Dataset", "Method")
	for _, a := range ArbiterLabels {
		fmt.Fprintf(&sb, "%18s", a)
	}
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "%-19s", "")
	for range ArbiterLabels {
		fmt.Fprintf(&sb, "%9s%9s", "F1(T)", "F1(F)")
	}
	sb.WriteString("\n")
	for _, dn := range b.Config.Datasets {
		sums := make([]struct{ t, f float64 }, len(ArbiterLabels))
		for _, method := range b.Config.Methods {
			cell := rep.Cells[Cell{Dataset: dn, Method: method}]
			if cell == nil {
				continue
			}
			fmt.Fprintf(&sb, "%-11s%-8s", dn, method)
			for i, a := range ArbiterLabels {
				t, f := cell.F1(a)
				fmt.Fprintf(&sb, "%9.2f%9.2f", t, f)
				sums[i].t += t
				sums[i].f += f
			}
			sb.WriteString("\n")
		}
		fmt.Fprintf(&sb, "%-11s%-8s", dn, "Mean")
		nm := float64(len(b.Config.Methods))
		for i := range ArbiterLabels {
			fmt.Fprintf(&sb, "%9.2f%9.2f", sums[i].t/nm, sums[i].f/nm)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
