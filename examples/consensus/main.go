// Multi-model consensus example: four open-source models vote on each fact,
// ties go to a higher-parameter judge (paper §3.3). The example prints the
// vote table for a few facts, then compares the three arbiter
// configurations over a small dataset slice.
//
// Run with: go run ./examples/consensus
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"factcheck/internal/consensus"
	"factcheck/internal/core"
	"factcheck/internal/dataset"
	"factcheck/internal/eval"
	"factcheck/internal/llm"
	"factcheck/internal/strategy"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run prints the walkthrough to w.
func run(w io.Writer) error {
	b := core.NewBenchmark(core.Config{Scale: 0.05, Small: true})
	ctx := context.Background()
	facts := b.Datasets[dataset.DBpedia].Facts
	if len(facts) > 120 {
		facts = facts[:120]
	}

	// Collect each model's column of outcomes under GIV-F.
	verifier := strategy.GIV{FewShot: true}
	cols := make([][]strategy.Outcome, len(llm.OpenSourceModels))
	for j, name := range llm.OpenSourceModels {
		m, err := b.Model(name)
		if err != nil {
			return err
		}
		for _, f := range facts {
			out, err := verifier.Verify(ctx, m, f)
			if err != nil {
				return err
			}
			cols[j] = append(cols[j], out)
		}
	}
	// votes returns fact i's outcomes, one per model.
	votes := func(i int) []strategy.Outcome {
		outs := make([]strategy.Outcome, len(cols))
		for j, col := range cols {
			outs[j] = col[i]
		}
		return outs
	}

	// Consistency analysis selects the tie-breaking judges.
	rep := consensus.Alignment(llm.OpenSourceModels, cols)
	fmt.Fprintf(w, "tie rate: %.0f%%   consensus alignment (CA_M):\n", 100*rep.TieRate)
	for _, name := range llm.OpenSourceModels {
		fmt.Fprintf(w, "  %-12s %.3f\n", name, rep.CA[name])
	}
	up := rep.MostConsistent(true)
	down := rep.MostConsistent(false)
	fmt.Fprintf(w, "most consistent: %s (upgraded to %s for agg-cons-up)\n", up, llm.Upgrade[up])
	fmt.Fprintf(w, "least consistent: %s (upgraded to %s for agg-cons-down)\n\n", down, llm.Upgrade[down])

	// Show the first few vote tables.
	fmt.Fprintln(w, "== Vote tables ==")
	judge, _ := b.Model(llm.Upgrade[up])
	arb := &consensus.ModelArbiter{Label: "agg-cons-up", Judge: judge, Verifier: verifier}
	for i := 0; i < 5; i++ {
		dec, err := consensus.Decide(ctx, facts[i], llm.OpenSourceModels, votes(i), arb)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s gold=%-5v -> final=%-5v tie=%-5v votes:", facts[i].ID, dec.Gold, dec.Final, dec.Tie)
		for _, v := range dec.Votes {
			fmt.Fprintf(w, " %s=%s", v.Model, v.Verdict)
		}
		fmt.Fprintln(w)
	}

	// Compare the three arbiter configurations.
	fmt.Fprintln(w, "\n== Arbiter comparison ==")
	upArb, downArb, gptArb, err := b.Arbiters(rep, verifier.Method())
	if err != nil {
		return err
	}
	for _, arb := range []consensus.Arbiter{upArb, downArb, gptArb} {
		var conf eval.Confusion
		for i, f := range facts {
			dec, err := consensus.Decide(ctx, f, llm.OpenSourceModels, votes(i), arb)
			if err != nil {
				return err
			}
			conf.Add(dec.Gold, dec.Final, true)
		}
		fmt.Fprintf(w, "%-16s F1(T)=%.2f F1(F)=%.2f accuracy=%.2f\n",
			arb.Name(), conf.F1True(), conf.F1False(), conf.Accuracy())
	}
	return nil
}
