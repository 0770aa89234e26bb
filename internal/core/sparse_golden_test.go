package core

import (
	"context"
	"reflect"
	"testing"

	"factcheck/internal/llm"
	"factcheck/internal/rerank"
)

// TestGridSparseScoringMatchesDense is the end-to-end golden test for the
// sparse scoring substrate: a whole small grid — every method, one model,
// all datasets — run on the sparse production path must produce outcomes
// (verdicts, reasons, token counts, latencies) deeply equal to the dense
// scoring path, selected by wrapping both rankers in rerank.DenseOnly.
// This is the grid-level guarantee behind the CLI's byte-identical stdout
// and the serving layer's unchanged verdicts.
func TestGridSparseScoringMatchesDense(t *testing.T) {
	cfg := Config{Scale: 0.05, Small: true, Models: []string{llm.Gemma2}}
	ctx := context.Background()

	sparse := NewBenchmark(cfg)
	rsSparse, err := sparse.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	dense := NewBenchmark(cfg)
	dense.Pipeline.QuestionRanker = rerank.DenseOnly(dense.Pipeline.QuestionRanker)
	dense.Pipeline.DocRanker = rerank.DenseOnly(dense.Pipeline.DocRanker)
	rsDense, err := dense.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	if len(rsSparse.Outcomes) == 0 {
		t.Fatal("sparse run produced no cells")
	}
	for cell, douts := range rsDense.Outcomes {
		souts := rsSparse.Outcomes[cell]
		if len(souts) < 3 {
			t.Fatalf("cell %v: only %d outcomes, need >= 3 facts", cell, len(souts))
		}
		if !reflect.DeepEqual(souts, douts) {
			for i := range douts {
				if !reflect.DeepEqual(souts[i], douts[i]) {
					t.Fatalf("cell %v outcome %d diverged:\nsparse: %+v\ndense:  %+v",
						cell, i, souts[i], douts[i])
				}
			}
			t.Fatalf("cell %v diverged", cell)
		}
	}
}
