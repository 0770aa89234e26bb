package main

import (
	"fmt"
	"slices"
	"testing"

	"factcheck/internal/world"
)

// testUniverse is 3 datasets of 40 facts, 4 methods and 5 models.
func testUniverse() universe {
	var u universe
	for _, d := range []string{"A", "B", "C"} {
		for i := 0; i < 40; i++ {
			u.pairs = append(u.pairs, pair{d, fmt.Sprintf("%s-%03d", d, i)})
		}
	}
	u.methods = []string{"DKA", "GIV-Z", "GIV-F", "RAG"}
	u.models = []string{"m1", "m2", "m3", "m4", "m5"}
	return u
}

func TestPlansAreAFunctionOfTheSeed(t *testing.T) {
	u := testUniverse()
	if !slices.Equal(hotPlan(u, 7, 5000, true), hotPlan(u, 7, 5000, true)) {
		t.Error("hot plan differs between two builds with seed 7")
	}
	if slices.Equal(hotPlan(u, 7, 5000, false), hotPlan(u, 8, 5000, false)) {
		t.Error("seeds 7 and 8 drew the same hot plan")
	}
	if !slices.Equal(sweepPlan(u, 7), sweepPlan(u, 7)) {
		t.Error("sweep plan differs between two builds with seed 7")
	}
}

func TestSweepVisitsEveryKeyOnce(t *testing.T) {
	u := testUniverse()
	ops := sweepPlan(u, 3)
	if len(ops) != u.keys() {
		t.Fatalf("%d requests for %d keys", len(ops), u.keys())
	}
	seen := map[int32]bool{}
	for _, o := range ops {
		if o.kind != opVerify {
			t.Fatalf("sweep request of kind %d", o.kind)
		}
		if seen[o.arg] {
			t.Fatalf("key %d requested twice", o.arg)
		}
		seen[o.arg] = true
	}
}

// TestSweepRetrievesAtAConstantRate: away from the sweep's first and last
// window, each quarter of the plan holds the same share of the requests
// that are a fact's first RAG request, the ones that retrieve evidence.
func TestSweepRetrievesAtAConstantRate(t *testing.T) {
	u := testUniverse()
	u.pairs = nil
	for i := 0; i < 3000; i++ {
		u.pairs = append(u.pairs, pair{"A", fmt.Sprintf("A-%04d", i)})
	}
	ops := sweepPlan(u, 5)
	edge := sweepWindow * len(u.methods) * len(u.models)
	mid := ops[edge : len(ops)-edge]
	seen := map[string]bool{}
	for _, o := range ops[:edge] {
		if r := u.request(o.arg); r.Method == "RAG" {
			seen[r.FactID] = true
		}
	}
	quarters := make([]int, 4)
	for i, o := range mid {
		if r := u.request(o.arg); r.Method == "RAG" && !seen[r.FactID] {
			seen[r.FactID] = true
			quarters[i*4/len(mid)]++
		}
	}
	mean := float64(quarters[0]+quarters[1]+quarters[2]+quarters[3]) / 4
	for q, n := range quarters {
		if d := float64(n)/mean - 1; d > 0.15 || d < -0.15 {
			t.Errorf("quarter %d holds %d first RAG requests, mean %.0f: %v", q, n, mean, quarters)
		}
	}
}

func TestHotPlanIsTenPercentConsensus(t *testing.T) {
	u := testUniverse()
	ops := hotPlan(u, 1, 10_000, false)
	n := 0
	for _, o := range ops {
		switch o.kind {
		case opConsensus:
			n++
		case opIngest:
			t.Fatal("a write in the plan without writes")
		}
	}
	if n != 1000 {
		t.Errorf("%d consensus requests of 10000, want 1000", n)
	}
}

func TestIngestPlanWritesEveryFiftieth(t *testing.T) {
	u := testUniverse()
	reads := hotPlan(u, 1, 10_000, false)
	ops := hotPlan(u, 1, 10_000, true)
	writes, consensus := 0, 0
	for i, o := range ops {
		if (i+1)%50 == 0 {
			if o.kind != opIngest {
				t.Fatalf("position %d is kind %d, want a write", i, o.kind)
			}
			writes++
			continue
		}
		if o != reads[i] {
			t.Fatalf("read at position %d differs from the plan without writes", i)
		}
		if o.kind == opConsensus {
			consensus++
		}
	}
	if writes != 200 || consensus != 1000 {
		t.Errorf("%d writes and %d consensus requests of 10000, want 200 and 1000", writes, consensus)
	}
	if len(ingestedFacts(u, ops)) == 0 {
		t.Error("no ingested facts")
	}
}

func TestVerifyKeysRoundTrip(t *testing.T) {
	u := testUniverse()
	k := u.key(41, 3, 2)
	r := u.request(k)
	if r.Dataset != "B" || r.FactID != "B-001" || r.Method != "RAG" || r.Model != "m3" {
		t.Errorf("key %d decodes to %+v", k, r)
	}
}

func TestSeedOneIsTheDefaultWorld(t *testing.T) {
	if worldConfig(1, false) != world.DefaultConfig() {
		t.Error("seed 1 does not select the default world")
	}
	if worldConfig(1, true) != world.SmallConfig() {
		t.Error("seed 1 does not select the default small world")
	}
	if got := worldConfig(3, false).Seed; got != world.DefaultConfig().Seed+"#3" {
		t.Errorf("seed 3 world seed %q", got)
	}
}
