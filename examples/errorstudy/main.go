// Error-analysis walkthrough (paper §7): collect wrong predictions, cluster
// the models' explanations into the E1–E6 taxonomy, compute uniqueness
// ratios, build the UpSet prediction-overlap view, and stratify DBpedia
// error rates by topic and by fact popularity.
//
// Run with: go run ./examples/errorstudy
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"factcheck/internal/analysis"
	"factcheck/internal/core"
	"factcheck/internal/dataset"
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
	b := core.NewBenchmark(core.Config{
		Scale: 0.1, Small: true,
		Models:  llm.OpenSourceModels,
		Methods: []llm.Method{llm.MethodDKA},
	})
	ctx := context.Background()
	rs, err := b.Run(ctx)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "== Error clustering (DKA, DBpedia) ==")
	perModel := map[string]analysis.ClusterResult{}
	for _, m := range llm.OpenSourceModels {
		var records []analysis.ErrorRecord
		for _, o := range rs.Get(dataset.DBpedia, llm.MethodDKA, m) {
			if o.Correct || o.Verdict == strategy.Invalid {
				continue
			}
			records = append(records, analysis.ErrorRecord{
				Model: m, FactID: o.FactID, Explanation: o.Explanation,
			})
		}
		res := analysis.ClusterErrors(records)
		perModel[m] = res
		fmt.Fprintf(w, "%-12s total=%4d  ", m, res.Total)
		for _, cat := range analysis.Categories {
			fmt.Fprintf(w, "%s=%-4d ", cat, res.Counts[cat])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "overall unique-error ratio: %.2f\n", analysis.OverallUniqueRatio(perModel))
	fmt.Fprintln(w, "(E4 geographic errors dominate, matching the paper's Table 9)")

	fmt.Fprintln(w, "\n== UpSet: which model subsets get facts right ==")
	cols, err := rs.Columns(dataset.DBpedia, llm.MethodDKA, llm.OpenSourceModels)
	if err != nil {
		return err
	}
	for _, row := range analysis.UpSet(llm.OpenSourceModels, cols) {
		fmt.Fprintf(w, "  %-52s %5d\n", row.Label(len(llm.OpenSourceModels)), row.Count)
	}

	fmt.Fprintln(w, "\n== DBpedia error rate by topic (all open models pooled) ==")
	var outs []strategy.Outcome
	for _, m := range llm.OpenSourceModels {
		outs = append(outs, rs.Get(dataset.DBpedia, llm.MethodDKA, m)...)
	}
	topicOf, popularityOf := map[string]string{}, map[string]float64{}
	for _, f := range b.Datasets[dataset.DBpedia].Facts {
		topicOf[f.ID], popularityOf[f.ID] = f.Topic, f.Popularity
	}
	for _, s := range analysis.StratifyByTopic(outs, func(id string) string { return topicOf[id] }) {
		fmt.Fprintf(w, "  %-16s n=%5d error-rate=%.3f\n", s.Name, s.Total, s.ErrorRate)
	}

	fmt.Fprintln(w, "\n== Error rate by fact popularity (head vs tail) ==")
	for _, s := range analysis.StratifyByPopularity(outs, func(id string) float64 { return popularityOf[id] }, 4) {
		fmt.Fprintf(w, "  %-8s n=%5d error-rate=%.3f\n", s.Name, s.Total, s.ErrorRate)
	}
	fmt.Fprintln(w, "(tail facts err more: the head-to-tail knowledge effect)")
	return nil
}
