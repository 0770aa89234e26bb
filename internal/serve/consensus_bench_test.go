package serve

import (
	"context"
	"fmt"
	"testing"

	"factcheck/internal/consensus"
	"factcheck/internal/core"
	"factcheck/internal/dataset"
	"factcheck/internal/llm"
)

// serialConsensus is the retired one-vote-at-a-time consensus loop, kept
// as the reference the engine's modes are tested and benchmarked against:
// each vote, in plan order, is probed in the verdict LRU and, on a miss,
// fetched through the rest of the verdict stack before the next vote is
// looked at; the majority of the votes decides, and the answer is shaped
// as Service.Consensus shapes it, with the sum of the voter latencies.
func serialConsensus(ctx context.Context, s *Service, factID string) (*ConsensusResponse, error) {
	f, ok := s.bench.FactByID(factID)
	if !ok {
		return nil, fmt.Errorf("unknown fact %s", factID)
	}
	idx := s.bench.FactIndex(f.Dataset)[factID]
	view := s.bench.Engine.EpochView()
	epoch := view.FactEpoch(f.ID)
	votes := make([]consensus.Vote, 0, len(s.plan.Order))
	lat := 0.0
	for _, model := range s.plan.Order {
		cell := core.Cell{Dataset: f.Dataset, Method: llm.MethodDKA, Model: model}
		key := verdictKey{cell: cell, factID: f.ID, epoch: epoch}
		out, ok := s.probe(ctx, key)
		if !ok {
			var err error
			if out, _, err = s.miss(ctx, key, view, cell, f, idx); err != nil {
				return nil, err
			}
		}
		votes = append(votes, consensus.Vote{Model: model, Verdict: out.Verdict})
		lat += out.Latency.Seconds()
	}
	resp := &ConsensusResponse{
		FactID:    factID,
		Dataset:   string(f.Dataset),
		Method:    string(llm.MethodDKA),
		Gold:      f.Gold,
		Mode:      "serial",
		LatencyMS: lat * 1000,
	}
	resp.Final, resp.Tie = consensus.Majority(votes)
	for _, v := range votes {
		resp.Votes = append(resp.Votes, VoteItem{Model: v.Model, Verdict: v.Verdict.String()})
	}
	return resp, nil
}

// benchmarkConsensus times one full consensus decision per iteration under
// one execution strategy and temperature. Config.Pace makes every simulated
// voter call really occupy (a scaled-down copy of) its simulated latency,
// so the structural difference between the strategies is wall-clock
// measurable even though all three produce identical verdicts:
//
//	serial    pays the SUM of the four voter latencies (the retired loop)
//	eager     pays the slowest voter (concurrent fan-out)
//	adaptive  pays only the cheap quorum tier on unanimous facts,
//	          escalating to the full ensemble only on disagreement
//
// cold rotates through every fact once and rebuilds the service when the
// instance is exhausted, so each timed decision pays full verification for
// each dispatched vote; lru-warm primes every vote of a small working set
// with an eager pass first, so each timed decision is pure engine + cache
// cost (the steady state for a zipf-hot fact).
func benchmarkConsensus(b *testing.B, decide func(ctx context.Context, s *Service, factID string) error, warm bool) {
	cfg := core.Config{Scale: 0.05, Small: true, Pace: 0.02}
	ctx := context.Background()
	scfg := Config{Rate: 1e12, Burst: 1e12, QueueDepth: 64, Workers: 8}
	newSvc := func() (*Service, []*dataset.Fact) {
		bench := core.NewBenchmark(cfg)
		return New(bench, core.NewMemoryStore(), scfg), bench.Datasets[dataset.FactBench].Facts
	}
	svc, facts := newSvc()
	if warm {
		if len(facts) > 16 {
			facts = facts[:16]
		}
		// An eager pass fetches the full ensemble for every fact, so all
		// four votes of the working set are LRU hits in the timed loop.
		for _, f := range facts {
			if _, err := svc.Consensus(ctx, f.ID, consensus.ModeEager); err != nil {
				b.Fatal(err)
			}
		}
	}
	j := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !warm && j == len(facts) {
			// Every fact has been decided once; a fresh service restores
			// genuinely cold voter caches.
			b.StopTimer()
			svc.Drain()
			svc, facts = newSvc()
			j = 0
			b.StartTimer()
		}
		f := facts[j%len(facts)]
		j++
		if err := decide(ctx, svc, f.ID); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	svc.Drain()
}

// consensusBench enumerates one strategy's temperatures.
func consensusBench(b *testing.B, decide func(ctx context.Context, s *Service, factID string) error) {
	b.Run("cold", func(b *testing.B) { benchmarkConsensus(b, decide, false) })
	b.Run("lru-warm", func(b *testing.B) { benchmarkConsensus(b, decide, true) })
}

// engineDecide decides through the service's consensus engine in mode.
func engineDecide(mode consensus.Mode) func(ctx context.Context, s *Service, factID string) error {
	return func(ctx context.Context, s *Service, factID string) error {
		_, err := s.Consensus(ctx, factID, mode)
		return err
	}
}

// BenchmarkConsensusSerial times the retired one-vote-at-a-time loop: the
// latency baseline for the consensus engine.
func BenchmarkConsensusSerial(b *testing.B) {
	consensusBench(b, func(ctx context.Context, s *Service, factID string) error {
		_, err := serialConsensus(ctx, s, factID)
		return err
	})
}

// BenchmarkConsensusEager times the concurrent full-ensemble fan-out; the
// gap versus BenchmarkConsensusSerial is the critical-path win.
func BenchmarkConsensusEager(b *testing.B) { consensusBench(b, engineDecide(consensus.ModeEager)) }

// BenchmarkConsensusAdaptive times the production path: cost-ordered tiers
// with early-stop majority voting. The gap versus BenchmarkConsensusEager is
// the early-stop win (most facts are unanimous, so the expensive tier is
// usually skipped); verdicts stay identical across all three
// (TestConsensusModesAgree).
func BenchmarkConsensusAdaptive(b *testing.B) {
	consensusBench(b, engineDecide(consensus.ModeAdaptive))
}
