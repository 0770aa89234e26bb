package analysis

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"factcheck/internal/strategy"
)

func geoRecord(model, id string) ErrorRecord {
	return ErrorRecord{Model: model, FactID: id,
		Explanation: "The stated place conflicts with the known location or nationality of Person " + id + "."}
}

func genreRecord(model, id string) ErrorRecord {
	return ErrorRecord{Model: model, FactID: id,
		Explanation: "The genre classification of Work " + id + " does not include the asserted category."}
}

func relRecord(model, id string) ErrorRecord {
	return ErrorRecord{Model: model, FactID: id,
		Explanation: "The marital or personal relationship between A and B is not supported for " + id + "."}
}

func TestClusterErrorsCategorises(t *testing.T) {
	var recs []ErrorRecord
	for i := 0; i < 8; i++ {
		recs = append(recs, geoRecord("m", "geo"+itoa(i)))
	}
	for i := 0; i < 6; i++ {
		recs = append(recs, genreRecord("m", "gen"+itoa(i)))
	}
	for i := 0; i < 5; i++ {
		recs = append(recs, relRecord("m", "rel"+itoa(i)))
	}
	res := ClusterErrors(recs)
	if res.Total != len(recs) {
		t.Fatalf("Total = %d, want %d", res.Total, len(recs))
	}
	if res.Counts[E4Geographic] < 6 {
		t.Errorf("E4 = %d, want >= 6 (geo errors dominate)", res.Counts[E4Geographic])
	}
	if res.Counts[E5Genre] < 4 {
		t.Errorf("E5 = %d, want >= 4", res.Counts[E5Genre])
	}
	if res.Counts[E2Relationship] < 3 {
		t.Errorf("E2 = %d, want >= 3", res.Counts[E2Relationship])
	}
	for id, cat := range res.Assignments {
		switch {
		case id[:3] == "geo" && cat != E4Geographic:
			t.Errorf("fact %s assigned %s, want E4", id, cat)
		case id[:3] == "gen" && cat != E5Genre:
			t.Errorf("fact %s assigned %s, want E5", id, cat)
		}
	}
}

func TestClusterErrorsEmpty(t *testing.T) {
	res := ClusterErrors(nil)
	if res.Total != 0 || len(res.Counts) != 0 {
		t.Errorf("empty clustering = %+v", res)
	}
}

func TestUniqueRatio(t *testing.T) {
	// fact shared by both models + one unique fact each, all geo.
	perModel := map[string]ClusterResult{
		"a": {Assignments: map[string]ErrorCategory{"f1": E4Geographic, "f2": E4Geographic}},
		"b": {Assignments: map[string]ErrorCategory{"f1": E4Geographic, "f3": E4Geographic}},
	}
	ratios := UniqueRatio(perModel)
	if got := ratios[E4Geographic]; got != 2.0/3 {
		t.Errorf("unique ratio = %f, want 2/3", got)
	}
	if got := OverallUniqueRatio(perModel); got != 2.0/3 {
		t.Errorf("overall unique ratio = %f, want 2/3", got)
	}
}

func TestOverallUniqueRatioEmpty(t *testing.T) {
	if got := OverallUniqueRatio(nil); got != 0 {
		t.Errorf("empty unique ratio = %f", got)
	}
}

func outcome(fact string, correct bool) strategy.Outcome {
	v := strategy.False
	if correct {
		v = strategy.True
	}
	return strategy.Outcome{FactID: fact, Verdict: v, Gold: true, Correct: correct}
}

func TestUpSet(t *testing.T) {
	cols := [][]strategy.Outcome{
		// f1 both, f2 a only, f3 none, f4 both.
		{outcome("f1", true), outcome("f2", true), outcome("f3", false), outcome("f4", true)},
		{outcome("f1", true), outcome("f2", false), outcome("f3", false), outcome("f4", true)},
	}
	rows := UpSet([]string{"a", "b"}, cols)
	if len(rows) != 3 {
		t.Fatalf("got %d rows: %+v", len(rows), rows)
	}
	if rows[0].Count != 2 || len(rows[0].Members) != 2 {
		t.Errorf("top row = %+v, want both-models with count 2", rows[0])
	}
	if rows[0].Label(2) != "all" {
		t.Errorf("label = %q, want all", rows[0].Label(2))
	}
	foundNone := false
	for _, r := range rows {
		if len(r.Members) == 0 {
			foundNone = true
			if r.Label(2) != "none" || r.Count != 1 {
				t.Errorf("none row = %+v", r)
			}
		}
	}
	if !foundNone {
		t.Error("missing none row")
	}
}

// referenceUpSet is the retired UpSet: per fact, it sorts and joins the
// correct models' names and counts the joined key, perFact[i][j] being
// models[j]'s outcome on fact i. It is the oracle for the bitmask count.
func referenceUpSet(models []string, perFact [][]strategy.Outcome) []UpSetRow {
	counts := map[string]int{}
	for _, outs := range perFact {
		var members []string
		for j, o := range outs {
			if o.Correct {
				members = append(members, models[j])
			}
		}
		sort.Strings(members)
		counts[strings.Join(members, "+")]++
	}
	rows := make([]UpSetRow, 0, len(counts))
	for key, n := range counts {
		var members []string
		if key != "" {
			members = strings.Split(key, "+")
		}
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

// TestUpSetMatchesReference pools random blocks (datasets) of outcome
// columns for models listed out of name order and compares the rows and
// their labels with the reference's over the same facts.
func TestUpSetMatchesReference(t *testing.T) {
	models := []string{"qwen2.5:7b", "gemma2:9b", "mistral:7b", "llama3.1:8b", "gpt-4o-mini"}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(len(models))
		var blocks [][][]strategy.Outcome
		var perFact [][]strategy.Outcome
		for b := rng.Intn(4); b > 0; b-- {
			n := rng.Intn(300)
			// A per-block bias makes some model sets far more common.
			p := rng.Float64()
			cols := make([][]strategy.Outcome, k)
			for j := range cols {
				cols[j] = make([]strategy.Outcome, n)
			}
			for i := 0; i < n; i++ {
				outs := make([]strategy.Outcome, k)
				for j := range outs {
					o := outcome(fmt.Sprint("f", i), rng.Float64() < p)
					cols[j][i], outs[j] = o, o
				}
				perFact = append(perFact, outs)
			}
			blocks = append(blocks, cols)
		}
		got, want := UpSet(models[:k], blocks...), referenceUpSet(models[:k], perFact)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d rows, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i].Count != want[i].Count || !reflect.DeepEqual(got[i].Members, want[i].Members) ||
				got[i].Label(k) != want[i].Label(k) {
				t.Fatalf("trial %d row %d: %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestStratifyByTopic(t *testing.T) {
	outs := []strategy.Outcome{
		outcome("f1", true), outcome("f2", false),
		outcome("f3", true), outcome("f4", true),
	}
	topics := map[string]string{"f1": "Education", "f2": "Transportation", "f3": "Education", "f4": "Transportation"}
	strata := StratifyByTopic(outs, func(id string) string { return topics[id] })
	if len(strata) != 2 {
		t.Fatalf("got %d strata", len(strata))
	}
	byName := map[string]Stratum{}
	for _, s := range strata {
		byName[s.Name] = s
	}
	if byName["Education"].ErrorRate != 0 {
		t.Errorf("Education error rate = %f, want 0", byName["Education"].ErrorRate)
	}
	if byName["Transportation"].ErrorRate != 0.5 {
		t.Errorf("Transportation error rate = %f, want 0.5", byName["Transportation"].ErrorRate)
	}
}

func TestStratifyByPopularity(t *testing.T) {
	var outs []strategy.Outcome
	popularity := map[string]float64{}
	for i := 0; i < 40; i++ {
		o := outcome("f"+itoa(i), i%4 != 0)
		popularity[o.FactID] = float64(i) / 40
		outs = append(outs, o)
	}
	strata := StratifyByPopularity(outs, func(id string) float64 { return popularity[id] }, 4)
	if len(strata) != 4 {
		t.Fatalf("got %d bands", len(strata))
	}
	total := 0
	for _, s := range strata {
		total += s.Total
	}
	if total != len(outs) {
		t.Errorf("band totals sum to %d, want %d", total, len(outs))
	}
	if strata[0].Name != "tail" || strata[3].Name != "head" {
		t.Errorf("band names = %s..%s", strata[0].Name, strata[3].Name)
	}
}

func TestStratifyByPopularityDefaultBands(t *testing.T) {
	outs := []strategy.Outcome{outcome("f1", true)}
	if got := StratifyByPopularity(outs, func(string) float64 { return 0.5 }, 0); len(got) != 4 {
		t.Errorf("default bands = %d, want 4", len(got))
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}
