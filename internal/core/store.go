package core

import (
	"factcheck/internal/results"
	"factcheck/internal/strategy"
)

// Store is the content-addressed result store (internal/results): a
// durable, versioned cache of completed grid cells keyed by a fingerprint
// of everything that determines outcomes. Attach one to Run with WithStore
// to make runs resumable and incremental.
type Store = results.Store

// OpenStore opens (creating if needed) a disk-backed result store. An
// empty dir returns a pure in-memory store.
func OpenStore(dir string) (*Store, error) { return results.Open(dir) }

// NewMemoryStore returns a process-lifetime, memory-only result store.
func NewMemoryStore() *Store { return results.NewMemory() }

// CellKey returns the content-addressed identity of one grid cell under
// this benchmark's configuration: the world config, scale, RAG config and
// current corpus epoch digest plus the cell coordinates. Parallelism is
// excluded — results are byte-identical at any worker count, so snapshots
// are portable across it.
func (b *Benchmark) CellKey(c Cell) results.Key {
	return b.CellKeyAt(c, b.Engine.CorpusDigest(c.Dataset))
}

// CellKeyAt is CellKey pinned to an explicit corpus digest. Consumers that
// must pair a fingerprint with per-fact epochs from the same moment (the
// serving layer's epoch-keyed verdict cache) capture a search.EpochView
// and key with its digest, so a concurrent ingestion can never interleave
// between reading the epoch and reading the digest.
func (b *Benchmark) CellKeyAt(c Cell, corpus uint64) results.Key {
	return results.Key{
		World:   b.Config.WorldConfig,
		Scale:   b.Config.Scale,
		RAG:     b.Pipeline.Config,
		Corpus:  corpus,
		Dataset: c.Dataset,
		Method:  c.Method,
		Model:   c.Model,
	}
}

// ResultSink receives completed grid cells as Run streams them. Cells
// already satisfied by an attached store are delivered first, in grid
// order, before any work is scheduled; computed cells follow in
// completion order, which tracks Run's queue: cells that need no
// retrieval first, then each dataset's RAG cells after that dataset's
// evidence prefetch. PutCell is called serially (never
// concurrently with itself); returning an error fails the run.
type ResultSink interface {
	PutCell(c Cell, outs []strategy.Outcome) error
}

// WithStore attaches a result store to a Run: cells whose fingerprint is
// already in the store are served from it (no verifier calls), the grid
// queue is built only from the missing cells, and every newly computed
// cell is persisted as it completes. An interrupted run therefore resumes
// from where it died, and a config delta recomputes only the affected
// slice of the grid — with stdout byte-identical to a cold run in every
// case.
func WithStore(s *Store) RunOption {
	return func(o *runOptions) { o.store = s }
}

// WithSink streams completed cells to sink as the grid drains (see
// ResultSink for ordering and concurrency guarantees).
func WithSink(sink ResultSink) RunOption {
	return func(o *runOptions) { o.sink = sink }
}
