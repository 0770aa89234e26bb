package main

import (
	"context"
	"strings"
	"testing"

	"factcheck/internal/core"
	"factcheck/internal/dataset"
	"factcheck/internal/llm"
	"factcheck/internal/serve"
	"factcheck/internal/strategy"
)

// servedRun fakes a serve run over testUniverse: every key of the plan's
// first n positions answered with the line answer(k).
func servedRun(u universe, ops []op, n int, answer func(int32) uint64) *ledger {
	led := newLedger()
	for _, o := range ops[:n] {
		switch o.kind {
		case opVerify:
			led.add(o.arg, answer(o.arg))
		case opConsensus:
			led.add(consensusKey(o.arg), answer(consensusKey(o.arg)))
		}
	}
	return led
}

func truth(k int32) uint64 {
	v := serve.VerdictResponse{Verdict: "true", Gold: k%2 == 0, Attempts: 1, Explanation: "stated"}
	if k < 0 {
		return hashLine(appendConsensusLine(nil, true, false, true))
	}
	return hashLine(appendVerdictLine(nil, &v))
}

func wantTruth(_ context.Context, k int32) (uint64, error) { return truth(k), nil }

func TestCheckerAcceptsFaithfulRun(t *testing.T) {
	u := testUniverse()
	ops := hotPlan(u, 1, 2000, false)
	led := servedRun(u, ops, len(ops), truth)
	digest, err := prefixDigest(u, ops, 500, led)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkDigest("answer", digest, digest); err != nil {
		t.Fatal(err)
	}
	if err := checkSample(context.Background(), u, led, sampleKeys(led, 1, 100), 2, wantTruth); err != nil {
		t.Fatal(err)
	}
}

func TestCheckerRejectsFlippedVerdict(t *testing.T) {
	u := testUniverse()
	ops := sweepPlan(u, 1)
	flipped := ops[0].arg
	led := servedRun(u, ops, len(ops), func(k int32) uint64 {
		if k == flipped {
			v := serve.VerdictResponse{Verdict: "false", Gold: k%2 == 0, Attempts: 1, Explanation: "stated"}
			return hashLine(appendVerdictLine(nil, &v))
		}
		return truth(k)
	})
	err := checkSample(context.Background(), u, led, []int32{ops[1].arg, flipped}, 2, wantTruth)
	if err == nil || !strings.Contains(err.Error(), "differs from VerifyFact") {
		t.Fatalf("flipped verdict: err = %v", err)
	}
}

func TestCheckerRejectsMissingKey(t *testing.T) {
	u := testUniverse()
	ops := hotPlan(u, 1, 2000, false)
	led := servedRun(u, ops, len(ops), truth)
	delete(led.lines, ops[17].arg)
	if _, err := prefixDigest(u, ops, 500, led); err == nil || !strings.Contains(err.Error(), "missing answer") {
		t.Fatalf("missing key: err = %v", err)
	}
}

func TestCheckerRejectsDigestMismatch(t *testing.T) {
	u := testUniverse()
	ops := hotPlan(u, 1, 2000, false)
	good, err := prefixDigest(u, ops, 500, servedRun(u, ops, len(ops), truth))
	if err != nil {
		t.Fatal(err)
	}
	other := servedRun(u, ops, len(ops), func(k int32) uint64 { return truth(k) + 1 })
	bad, err := prefixDigest(u, ops, 500, other)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkDigest("answer", bad, good); err == nil {
		t.Fatal("digest mismatch accepted")
	}
}

func TestCheckerRejectsInconsistentAnswers(t *testing.T) {
	u := testUniverse()
	ops := sweepPlan(u, 1)
	a := servedRun(u, ops, 10, truth)
	b := servedRun(u, ops, 10, func(k int32) uint64 { return truth(k) + 1 })
	a.merge(b)
	if err := checkSample(context.Background(), u, a, nil, 1, wantTruth); err == nil || !strings.Contains(err.Error(), "two different ways") {
		t.Fatalf("inconsistent answers: err = %v", err)
	}
}

func TestGridCheckRejectsFlippedOutcome(t *testing.T) {
	b := core.NewBenchmark(core.TestConfig())
	ctx := context.Background()
	cell := core.Cell{Dataset: dataset.FactBench, Method: llm.MethodDKA, Model: b.Config.Models[0]}
	outs, err := b.RunCell(ctx, cell.Dataset, cell.Method, cell.Model)
	if err != nil {
		t.Fatal(err)
	}
	rs := &core.ResultSet{Outcomes: map[core.Cell][]strategy.Outcome{cell: outs}}
	if err := checkGridSample(ctx, b, rs, 1, 5); err != nil {
		t.Fatalf("faithful grid rejected: %v", err)
	}
	for i := range outs {
		if outs[i].Verdict == strategy.True {
			outs[i].Verdict = strategy.False
		} else {
			outs[i].Verdict = strategy.True
		}
	}
	if err := checkGridSample(ctx, b, rs, 1, 5); err == nil {
		t.Fatal("flipped grid outcomes accepted")
	}
}
