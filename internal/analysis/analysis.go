// Package analysis implements the paper's qualitative studies: the
// semi-automated error-clustering pipeline that buckets model mistakes into
// categories E1–E6 (Table 9), the UpSet prediction-overlap analysis
// (Figure 4), and the DBpedia popularity/topic stratification (§7).
package analysis

import (
	"sort"
	"strings"

	"factcheck/internal/cluster"
	"factcheck/internal/strategy"
)

// ErrorCategory labels one of the paper's six error buckets.
type ErrorCategory string

// The error taxonomy of paper §7.
const (
	E1Unlabeled    ErrorCategory = "E1" // context missing asserted details
	E2Relationship ErrorCategory = "E2" // relationship errors
	E3Role         ErrorCategory = "E3" // role attribution errors
	E4Geographic   ErrorCategory = "E4" // geographic/nationality errors
	E5Genre        ErrorCategory = "E5" // genre/classification errors
	E6Identifier   ErrorCategory = "E6" // identifier/biographical errors
)

// Categories lists the buckets in table order.
var Categories = []ErrorCategory{E1Unlabeled, E2Relationship, E3Role, E4Geographic, E5Genre, E6Identifier}

// categoryAnchors holds a prototype explanation per category. The pipeline
// embeds error explanations, clusters them density-based, then labels each
// cluster by its nearest anchor — mirroring the paper's "assign descriptive
// labels to each cluster" step without manual inspection.
var categoryAnchors = map[ErrorCategory]string{
	E1Unlabeled:    "the supplied context does not mention the asserted details no relevant information could be recalled",
	E2Relationship: "the marital or personal relationship link between the individuals is not supported contradicts",
	E3Role:         "the role team employer position linking appears misattributed associated with a different team employer",
	E4Geographic:   "the stated place conflicts with the known location nationality country city geography geographic records",
	E5Genre:        "the genre classification categorised under a different genre does not include",
	E6Identifier:   "the biographical identifier award attributed is inaccurate records of awards and identifiers do not mention",
}

// ErrorRecord is one incorrect prediction with its explanation.
type ErrorRecord struct {
	Model       string
	FactID      string
	Explanation string
}

// ClusterResult summarises one model+dataset error clustering run.
type ClusterResult struct {
	// Counts maps category -> number of errors assigned.
	Counts map[ErrorCategory]int
	// Total is the number of clustered errors.
	Total int
	// Assignments maps fact ID -> category, for the uniqueness analysis.
	Assignments map[string]ErrorCategory
}

// ClusterErrors runs the error-analysis pipeline over the records of one
// model: embed explanations, density-cluster, label clusters by nearest
// category anchor; noise points fall back to direct anchor matching.
func ClusterErrors(records []ErrorRecord) ClusterResult {
	res := ClusterResult{
		Counts:      map[ErrorCategory]int{},
		Assignments: map[string]ErrorCategory{},
	}
	if len(records) == 0 {
		return res
	}
	emb := cluster.NewEmbedder("error-analysis")
	points := make([][]float64, len(records))
	for i, r := range records {
		points[i] = emb.Embed(r.Explanation)
	}
	labels := cluster.DBSCAN(points, 0.55, 3)

	// Label each cluster by the nearest anchor to its centroid.
	anchorVecs := map[ErrorCategory][]float64{}
	for c, a := range categoryAnchors {
		anchorVecs[c] = emb.Embed(a)
	}
	clusterLabel := map[int]ErrorCategory{}
	sizes, _ := cluster.Sizes(labels)
	for cid := range sizes {
		centroid := make([]float64, cluster.ReducedDim)
		n := 0
		for i, l := range labels {
			if l != cid {
				continue
			}
			for d := range centroid {
				centroid[d] += points[i][d]
			}
			n++
		}
		for d := range centroid {
			centroid[d] /= float64(n)
		}
		clusterLabel[cid] = nearestAnchor(centroid, anchorVecs)
	}
	for i, r := range records {
		var cat ErrorCategory
		if labels[i] == cluster.Noise {
			cat = nearestAnchor(points[i], anchorVecs)
		} else {
			cat = clusterLabel[labels[i]]
		}
		res.Counts[cat]++
		res.Total++
		res.Assignments[r.FactID] = cat
	}
	return res
}

func nearestAnchor(p []float64, anchors map[ErrorCategory][]float64) ErrorCategory {
	best := E1Unlabeled
	bestD := -1.0
	// Iterate in fixed category order for determinism.
	for _, c := range Categories {
		d := cluster.Euclidean(p, anchors[c])
		if bestD < 0 || d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// UniqueRatio computes the paper's per-category "Unique. Ratio": of the
// facts any model got wrong in a category, the fraction mis-predicted by
// exactly one model. perModel maps model -> its cluster result.
func UniqueRatio(perModel map[string]ClusterResult) map[ErrorCategory]float64 {
	count := map[ErrorCategory]map[string]int{} // category -> factID -> #models
	for _, res := range perModel {
		for factID, cat := range res.Assignments {
			if count[cat] == nil {
				count[cat] = map[string]int{}
			}
			count[cat][factID]++
		}
	}
	out := map[ErrorCategory]float64{}
	for cat, facts := range count {
		unique := 0
		for _, n := range facts {
			if n == 1 {
				unique++
			}
		}
		if len(facts) > 0 {
			out[cat] = float64(unique) / float64(len(facts))
		}
	}
	return out
}

// OverallUniqueRatio aggregates UniqueRatio across all categories.
func OverallUniqueRatio(perModel map[string]ClusterResult) float64 {
	count := map[string]int{}
	for _, res := range perModel {
		for factID := range res.Assignments {
			count[factID]++
		}
	}
	if len(count) == 0 {
		return 0
	}
	unique := 0
	for _, n := range count {
		if n == 1 {
			unique++
		}
	}
	return float64(unique) / float64(len(count))
}

// UpSetRow is one intersection bar of the paper's Figure 4: the exact set
// of models that (alone) predicted a fact correctly, and how many facts
// fall in that combination.
type UpSetRow struct {
	// Members is the sorted model subset.
	Members []string
	Count   int
}

// MaxUpSetModels is the most models UpSet counts: a fact's set of correct
// models is one bit each in a uint64.
const MaxUpSetModels = 64

// UpSet computes exact-intersection counts of correct predictions. Each
// block holds one outcome column per model, index-aligned with models
// (block[j][i] is models[j]'s outcome on fact i), so a caller pools
// datasets by passing one block each. It panics on more than
// MaxUpSetModels models.
func UpSet(models []string, blocks ...[][]strategy.Outcome) []UpSetRow {
	if len(models) > MaxUpSetModels {
		panic("analysis: UpSet given more than MaxUpSetModels models")
	}
	counts := map[uint64]int{}
	for _, cols := range blocks {
		if len(cols) == 0 {
			continue
		}
		for i := range cols[0] {
			var set uint64
			for j, col := range cols {
				if col[i].Correct {
					set |= 1 << j
				}
			}
			counts[set]++
		}
	}
	rows := make([]UpSetRow, 0, len(counts))
	for set, n := range counts {
		var members []string
		for j, m := range models {
			if set&(1<<j) != 0 {
				members = append(members, m)
			}
		}
		sort.Strings(members)
		rows = append(rows, UpSetRow{Members: members, Count: n})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Count != rows[j].Count {
			return rows[i].Count > rows[j].Count
		}
		return strings.Join(rows[i].Members, "+") < strings.Join(rows[j].Members, "+")
	})
	return rows
}

// Label renders an UpSet row's member set ("all", "none", or joined names).
func (r UpSetRow) Label(totalModels int) string {
	switch len(r.Members) {
	case 0:
		return "none"
	case totalModels:
		return "all"
	default:
		return strings.Join(r.Members, "+")
	}
}

// Stratum is one popularity/topic partition of the stratified error study.
type Stratum struct {
	Name      string
	Total     int
	Errors    int
	ErrorRate float64
}

// StratifyByTopic partitions outcomes by fact topic and reports per-topic
// error rates (paper: Education/News lower, Architecture/Transportation
// higher).
func StratifyByTopic(outs []strategy.Outcome, topicOf func(factID string) string) []Stratum {
	agg := map[string]*Stratum{}
	for _, o := range outs {
		t := topicOf(o.FactID)
		s := agg[t]
		if s == nil {
			s = &Stratum{Name: t}
			agg[t] = s
		}
		s.Total++
		if !o.Correct {
			s.Errors++
		}
	}
	out := make([]Stratum, 0, len(agg))
	for _, s := range agg {
		if s.Total > 0 {
			s.ErrorRate = float64(s.Errors) / float64(s.Total)
		}
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// StratifyByPopularity partitions outcomes into quantile bands of their
// facts' popularity.
func StratifyByPopularity(outs []strategy.Outcome, popularityOf func(factID string) float64, bands int) []Stratum {
	if bands <= 0 {
		bands = 4
	}
	pops := make([]float64, len(outs))
	for i, o := range outs {
		pops[i] = popularityOf(o.FactID)
	}
	sorted := append([]float64(nil), pops...)
	sort.Float64s(sorted)
	cut := func(q float64) float64 {
		idx := int(q * float64(len(sorted)-1))
		return sorted[idx]
	}
	strata := make([]Stratum, bands)
	for b := 0; b < bands; b++ {
		strata[b].Name = bandName(b, bands)
	}
	for i, o := range outs {
		b := 0
		for q := 1; q < bands; q++ {
			if pops[i] > cut(float64(q)/float64(bands)) {
				b = q
			}
		}
		strata[b].Total++
		if !o.Correct {
			strata[b].Errors++
		}
	}
	for b := range strata {
		if strata[b].Total > 0 {
			strata[b].ErrorRate = float64(strata[b].Errors) / float64(strata[b].Total)
		}
	}
	return strata
}

func bandName(b, bands int) string {
	switch {
	case b == 0:
		return "tail"
	case b == bands-1:
		return "head"
	default:
		return "mid-" + string(rune('0'+b))
	}
}
