// Package factcheck is the public facade of the FactCheck benchmark — a Go
// reproduction of "Benchmarking Large Language Models for Knowledge Graph
// Validation" (Shami, Marchesin, Silvello; EDBT 2026).
//
// The benchmark evaluates (simulated) LLMs on knowledge-graph fact
// validation along the paper's three axes:
//
//   - internal knowledge: DKA, GIV-Z and GIV-F prompting strategies;
//   - external evidence: a four-phase RAG pipeline over a synthetic
//     web corpus served by a mock search API;
//   - multi-model consensus: majority voting with tie-breaking arbiters.
//
// Quick start:
//
//	b := factcheck.New(factcheck.Config{Scale: 0.1})
//	rs, err := b.Run(context.Background())
//	if err != nil { ... }
//	fmt.Println(b.Table5(rs))
//
// Run streams the whole (dataset × method × model × fact) grid through a
// bounded worker pool (internal/sched): Config.Parallelism sets the worker
// count (default GOMAXPROCS), results are byte-identical at any
// parallelism, and WithProgress streams per-cell completion events:
//
//	rs, err := b.Run(ctx, factcheck.WithProgress(func(p factcheck.Progress) {
//		log.Printf("%d/%d cells done", p.DoneCells, p.TotalCells)
//	}))
//
// The heavy lifting lives in internal packages (world generation, datasets,
// corpus, search, RAG, simulated models, scheduler, metrics, analysis);
// this package re-exports the orchestration surface a downstream user
// needs.
package factcheck

import (
	"factcheck/internal/core"
	"factcheck/internal/dataset"
	"factcheck/internal/llm"
	"factcheck/internal/strategy"
)

// Config parameterises a benchmark run. The zero value (filled by New)
// reproduces the paper's full-scale setup.
type Config = core.Config

// Benchmark is a fully wired FactCheck instance: world, datasets, corpus,
// search engine, RAG pipeline and model registry.
type Benchmark = core.Benchmark

// ResultSet holds the outcomes of a verification grid run.
type ResultSet = core.ResultSet

// RunOption customises a single Run invocation.
type RunOption = core.RunOption

// Cell identifies one (dataset, method, model) evaluation cell.
type Cell = core.Cell

// Progress reports the completion of one grid cell during Run.
type Progress = core.Progress

// WithProgress streams per-cell completion events to fn while the worker
// pool drains the verification grid.
func WithProgress(fn func(Progress)) RunOption { return core.WithProgress(fn) }

// Outcome records one model's verification of one fact under one method,
// which the Cell holding it names.
type Outcome = strategy.Outcome

// Store is a content-addressed result store: a durable cache of completed
// grid cells keyed by a fingerprint of everything that determines outcomes
// (world config, scale, RAG config, dataset, method, model). Attach one to
// Run with WithStore to make runs resumable and incremental.
type Store = core.Store

// OpenStore opens (creating if needed) a disk-backed result store; an
// empty dir returns a memory-only store.
func OpenStore(dir string) (*Store, error) { return core.OpenStore(dir) }

// NewMemoryStore returns a process-lifetime, memory-only result store.
func NewMemoryStore() *Store { return core.NewMemoryStore() }

// WithStore attaches a result store to a Run: stored cells are served
// without any verifier calls, only missing cells are scheduled, and newly
// computed cells are persisted as they complete. Interrupted runs resume
// where they died; config deltas recompute only the affected grid slice;
// results are byte-identical to a cold run either way.
func WithStore(s *Store) RunOption { return core.WithStore(s) }

// ResultSink receives completed grid cells as Run streams them.
type ResultSink = core.ResultSink

// WithSink streams completed cells to sink as the grid drains (cells
// satisfied by an attached store are delivered first, in grid order).
func WithSink(sink ResultSink) RunOption { return core.WithSink(sink) }

// MissingCellError reports a grid cell absent from a ResultSet.
type MissingCellError = core.MissingCellError

// ConsensusReport holds the multi-model consensus analysis.
type ConsensusReport = core.ConsensusReport

// Method names a verification strategy.
type Method = llm.Method

// The benchmark's verification strategies.
const (
	MethodDKA  = llm.MethodDKA
	MethodGIVZ = llm.MethodGIVZ
	MethodGIVF = llm.MethodGIVF
	MethodRAG  = llm.MethodRAG
)

// DatasetName identifies one of the three benchmark datasets.
type DatasetName = dataset.Name

// The benchmark datasets.
const (
	FactBench = dataset.FactBench
	YAGO      = dataset.YAGO
	DBpedia   = dataset.DBpedia
)

// Model names of the paper's evaluation (§4.2, §5).
const (
	Gemma2    = llm.Gemma2
	Qwen25    = llm.Qwen25
	Llama31   = llm.Llama31
	Mistral   = llm.Mistral
	GPT4oMini = llm.GPT4oMini
)

// New builds a benchmark instance for the configuration.
func New(cfg Config) *Benchmark { return core.NewBenchmark(cfg) }

// DefaultConfig returns the paper's full-scale configuration.
func DefaultConfig() Config { return core.DefaultConfig() }

// TestConfig returns a fast, small configuration for experimentation.
func TestConfig() Config { return core.TestConfig() }
