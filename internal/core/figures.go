package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"factcheck/internal/analysis"
	"factcheck/internal/dataset"
	"factcheck/internal/eval"
	"factcheck/internal/llm"
	"factcheck/internal/sched"
	"factcheck/internal/strategy"
)

// Series is one bar of Figure 2: a (model, method) or aggregation strategy
// with its cross-dataset micro-averaged class F1 scores.
type Series struct {
	Label   string
	F1True  float64
	F1False float64
}

// Figure2 computes the ranked cross-dataset F1 series (paper Figure 2),
// including the consensus aggregations and the random-guess baselines.
type Figure2 struct {
	// ByTrue and ByFalse are the same series ranked by each score.
	ByTrue  []Series
	ByFalse []Series
	// GuessTrue/GuessFalse are the random-guessing baselines implied by the
	// overall class distribution.
	GuessTrue  float64
	GuessFalse float64
}

// ComputeFigure2 aggregates per-(model, method) outcomes over all datasets
// and appends consensus series from rep (which may be nil to skip them).
func (b *Benchmark) ComputeFigure2(rs *ResultSet, rep *ConsensusReport) Figure2 {
	var series []Series
	for _, m := range b.Config.Models {
		for _, method := range b.Config.Methods {
			var cells [][]strategy.Outcome
			for _, dn := range b.Config.Datasets {
				cells = append(cells, rs.Get(dn, method, m))
			}
			cm := MergedMetrics(cells...)
			series = append(series, Series{
				Label:   fmt.Sprintf("%s (%s)", shortModel(m), method),
				F1True:  cm.F1True,
				F1False: cm.F1False,
			})
		}
	}
	if rep != nil {
		for _, a := range ArbiterLabels {
			for _, method := range b.Config.Methods {
				var conf eval.Confusion
				for _, dn := range b.Config.Datasets {
					cell := rep.Cells[Cell{Dataset: dn, Method: method}]
					if cell == nil {
						continue
					}
					c := cell.Results[a]
					conf.TP += c.TP
					conf.FP += c.FP
					conf.TN += c.TN
					conf.FN += c.FN
					conf.InvalidTrue += c.InvalidTrue
					conf.InvalidFalse += c.InvalidFalse
				}
				series = append(series, Series{
					Label:   fmt.Sprintf("%s (%s)", a, method),
					F1True:  conf.F1True(),
					F1False: conf.F1False(),
				})
			}
		}
	}

	// Random-guessing baseline from the pooled class distribution, guessing
	// "true" with probability 0.5.
	goldTrue, total := 0, 0
	for _, dn := range b.Config.Datasets {
		for _, f := range b.Datasets[dn].Facts {
			total++
			if f.Gold {
				goldTrue++
			}
		}
	}
	mu := 0.0
	if total > 0 {
		mu = float64(goldTrue) / float64(total)
	}
	fig := Figure2{
		GuessTrue:  eval.GuessRate(mu, 0.5),
		GuessFalse: eval.GuessRate(1-mu, 0.5),
	}
	fig.ByTrue = append([]Series(nil), series...)
	sort.SliceStable(fig.ByTrue, func(i, j int) bool { return fig.ByTrue[i].F1True > fig.ByTrue[j].F1True })
	fig.ByFalse = append([]Series(nil), series...)
	sort.SliceStable(fig.ByFalse, func(i, j int) bool { return fig.ByFalse[i].F1False > fig.ByFalse[j].F1False })
	return fig
}

// String renders both ranked charts as text.
func (f Figure2) String() string {
	var sb strings.Builder
	sb.WriteString("Figure 2: cross-dataset F1 ranking.\n")
	fmt.Fprintf(&sb, "F1(T) ranking (guess rate %.2f):\n", f.GuessTrue)
	for i, s := range f.ByTrue {
		fmt.Fprintf(&sb, "  %2d. %-32s %.2f\n", i+1, s.Label, s.F1True)
	}
	fmt.Fprintf(&sb, "F1(F) ranking (guess rate %.2f):\n", f.GuessFalse)
	for i, s := range f.ByFalse {
		fmt.Fprintf(&sb, "  %2d. %-32s %.2f\n", i+1, s.Label, s.F1False)
	}
	return sb.String()
}

// Figure3 is the cost/effectiveness trade-off analysis (paper Figure 3).
type Figure3 struct {
	// PointsTrue/PointsFalse plot theta-bar vs F1(T)/F1(F) per model+method.
	PointsTrue  []eval.ParetoPoint
	PointsFalse []eval.ParetoPoint
	// FrontierTrue/FrontierFalse are the Pareto-efficient subsets.
	FrontierTrue  []eval.ParetoPoint
	FrontierFalse []eval.ParetoPoint
}

// ComputeFigure3 builds the Pareto analysis over the open-source models,
// pooling outcomes across datasets.
func (b *Benchmark) ComputeFigure3(rs *ResultSet) Figure3 {
	var fig Figure3
	for _, m := range openModels(b.Config.Models) {
		for _, method := range b.Config.Methods {
			var cells [][]strategy.Outcome
			for _, dn := range b.Config.Datasets {
				cells = append(cells, rs.Get(dn, method, m))
			}
			cm := MergedMetrics(cells...)
			label := fmt.Sprintf("%s (%s)", shortModel(m), method)
			fig.PointsTrue = append(fig.PointsTrue, eval.ParetoPoint{Label: label, Cost: cm.ThetaMean, Score: cm.F1True})
			fig.PointsFalse = append(fig.PointsFalse, eval.ParetoPoint{Label: label, Cost: cm.ThetaMean, Score: cm.F1False})
		}
	}
	fig.FrontierTrue = eval.ParetoFrontier(fig.PointsTrue)
	fig.FrontierFalse = eval.ParetoFrontier(fig.PointsFalse)
	return fig
}

// String renders the Pareto analysis as text.
func (f Figure3) String() string {
	var sb strings.Builder
	sb.WriteString("Figure 3: cost (theta-bar, s) vs effectiveness trade-off.\n")
	render := func(name string, pts, frontier []eval.ParetoPoint) {
		onFrontier := map[string]bool{}
		for _, p := range frontier {
			onFrontier[p.Label] = true
		}
		fmt.Fprintf(&sb, "%s:\n", name)
		sorted := append([]eval.ParetoPoint(nil), pts...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Cost < sorted[j].Cost })
		for _, p := range sorted {
			mark := " "
			if onFrontier[p.Label] {
				mark = "*"
			}
			fmt.Fprintf(&sb, "  %s %-32s cost=%.2fs score=%.2f\n", mark, p.Label, p.Cost, p.Score)
		}
	}
	render("F1(T) plane (* = Pareto frontier)", f.PointsTrue, f.FrontierTrue)
	render("F1(F) plane (* = Pareto frontier)", f.PointsFalse, f.FrontierFalse)
	return sb.String()
}

// Figure4 computes the UpSet intersection analysis of correct predictions
// (paper Figure 4) for each method, pooled over datasets. A result set
// missing any required cell yields an error (wrapping *MissingCellError)
// instead of a silently empty figure.
func (b *Benchmark) Figure4(rs *ResultSet) (string, error) {
	models := openModels(b.Config.Models)
	var sb strings.Builder
	sb.WriteString("Figure 4: intersections of correct predictions across models.\n")
	for _, method := range b.Config.Methods {
		var perFact [][]strategy.Outcome
		for _, dn := range b.Config.Datasets {
			pf, err := rs.PerFact(dn, method, models)
			if err != nil {
				return "", fmt.Errorf("core: figure 4: %w", err)
			}
			perFact = append(perFact, pf...)
		}
		rows := analysis.UpSet(perFact)
		fmt.Fprintf(&sb, "%s:\n", method)
		for _, r := range rows {
			fmt.Fprintf(&sb, "  %-56s %6d\n", r.Label(len(models)), r.Count)
		}
	}
	return sb.String(), nil
}

// Table9 runs the error-clustering study (paper Table 9): per dataset and
// model, bucket incorrect predictions of the method into E1–E6 and report
// the per-dataset unique ratio. The (dataset, model) error sets cluster
// independently on a pool of Config.Parallelism workers and render in
// order.
func (b *Benchmark) Table9(rs *ResultSet, method llm.Method) string {
	models := openModels(b.Config.Models)
	results := make([]analysis.ClusterResult, len(b.Config.Datasets)*len(models))
	// The tasks never fail and the context is never cancelled.
	_ = sched.New(b.Config.Parallelism).Run(context.Background(), len(results), func(_ context.Context, i int) error {
		dn, m := b.Config.Datasets[i/len(models)], models[i%len(models)]
		var records []analysis.ErrorRecord
		for _, o := range rs.Get(dn, method, m) {
			if o.Correct || o.Verdict == strategy.Invalid {
				continue
			}
			records = append(records, analysis.ErrorRecord{
				Model: m, FactID: o.FactID, Explanation: o.Explanation,
			})
		}
		results[i] = analysis.ClusterErrors(records)
		return nil
	})
	var sb strings.Builder
	sb.WriteString("Table 9: Dataset-wise error clustering based on LLM-generated reasoning.\n")
	fmt.Fprintf(&sb, "%-11s%-12s%6s%6s%6s%6s%6s%6s%8s\n", "Dataset", "Model", "E1", "E2", "E3", "E4", "E5", "E6", "Total")
	for di, dn := range b.Config.Datasets {
		perModel := map[string]analysis.ClusterResult{}
		for mi, m := range models {
			res := results[di*len(models)+mi]
			perModel[m] = res
			fmt.Fprintf(&sb, "%-11s%-12s", dn, shortModel(m))
			for _, cat := range analysis.Categories {
				fmt.Fprintf(&sb, "%6d", res.Counts[cat])
			}
			fmt.Fprintf(&sb, "%8d\n", res.Total)
		}
		fmt.Fprintf(&sb, "%-11s%-12s", dn, "Uniq.Ratio")
		ratios := analysis.UniqueRatio(perModel)
		for _, cat := range analysis.Categories {
			if r, ok := ratios[cat]; ok {
				fmt.Fprintf(&sb, "%6.2f", r)
			} else {
				fmt.Fprintf(&sb, "%6s", "-")
			}
		}
		fmt.Fprintf(&sb, "%8.2f\n", analysis.OverallUniqueRatio(perModel))
	}
	return sb.String()
}

// TopicStrata runs the DBpedia topic-stratification study (paper §7).
func (b *Benchmark) TopicStrata(rs *ResultSet, dn dataset.Name, method llm.Method) []analysis.Stratum {
	d := b.Datasets[dn]
	topicOf := map[string]string{}
	for _, f := range d.Facts {
		topicOf[f.ID] = f.Topic
	}
	var outs []strategy.Outcome
	for _, m := range openModels(b.Config.Models) {
		outs = append(outs, rs.Get(dn, method, m)...)
	}
	return analysis.StratifyByTopic(outs, func(id string) string { return topicOf[id] })
}
