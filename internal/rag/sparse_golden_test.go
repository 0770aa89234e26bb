package rag

import (
	"reflect"
	"testing"

	"factcheck/internal/corpus"
	"factcheck/internal/dataset"
	"factcheck/internal/rerank"
	"factcheck/internal/search"
	"factcheck/internal/world"
)

// goldenPipelines builds two pipelines over the same engine: the sparse
// production path and the dense reference path, whose rankers are wrapped
// in rerank.DenseOnly so every rerank call re-embeds both strings and
// retrieval falls back to plain Fetch and chunk.Sliding.
func goldenPipelines(e *search.Engine) (sparse, dense *Pipeline) {
	sparse = New(e)
	dense = New(e)
	dense.QuestionRanker = rerank.DenseOnly(dense.QuestionRanker)
	dense.DocRanker = rerank.DenseOnly(dense.DocRanker)
	return sparse, dense
}

// goldenEngine builds the engine the golden pipelines share.
func goldenEngine() (*search.Engine, *dataset.Dataset) {
	w := world.New(world.SmallConfig())
	d := dataset.Build(w, dataset.FactBench, 0.1)
	return search.NewEngine(corpus.NewGenerator(w), d), d
}

// TestSparseRetrieveMatchesDenseGolden is the pipeline-level golden test:
// for every fact of the fixture dataset, the sparse path's Evidence —
// question scores, query selection, document ranks, chunk texts, simulated
// latency — must equal the dense path's bit for bit. Result-store
// fingerprints, PR 3/4 snapshots and served verdicts all hang off this.
func TestSparseRetrieveMatchesDenseGolden(t *testing.T) {
	e, d := goldenEngine()
	sparse, dense := goldenPipelines(e)
	if len(d.Facts) < 3 {
		t.Fatalf("fixture has %d facts, need >= 3", len(d.Facts))
	}
	for _, f := range d.Facts {
		sev, err := sparse.Retrieve(f)
		if err != nil {
			t.Fatal(err)
		}
		dev, err := dense.Retrieve(f)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sev, dev) {
			t.Fatalf("fact %s: sparse evidence differs from dense reference:\nsparse: %+v\ndense:  %+v", f.ID, sev, dev)
		}
	}
}

// TestSparseRetrieveMatchesDenseAcrossConfigs sweeps the config axes that
// steer the rewired stages (window size, candidate cap, selected docs,
// question threshold) and pins sparse == dense under each, on fresh
// pipelines per configuration so no evidence is cached across them.
func TestSparseRetrieveMatchesDenseAcrossConfigs(t *testing.T) {
	e, d := goldenEngine()
	mutate := []func(*Config){
		func(c *Config) { c.Window = 1 },
		func(c *Config) { c.Window = 5 },
		func(c *Config) { c.CandidateCap = 7 },
		func(c *Config) { c.SelectedDocs = 2 },
		func(c *Config) { c.Tau = 0.1; c.SelectedQuestions = 5 },
		func(c *Config) { c.FilterSKG = false },
	}
	f := d.Facts[1]
	for i, m := range mutate {
		sparse, dense := goldenPipelines(e)
		m(&sparse.Config)
		m(&dense.Config)
		sev, err := sparse.Retrieve(f)
		if err != nil {
			t.Fatal(err)
		}
		dev, err := dense.Retrieve(f)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sev, dev) {
			t.Fatalf("config mutation %d: sparse evidence differs from dense", i)
		}
	}
}
