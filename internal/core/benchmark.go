// Package core is the FactCheck benchmark orchestrator: it wires the
// synthetic world, datasets, corpus, search engine, RAG pipeline and
// simulated models together, runs the full evaluation grid
// (dataset × method × model), and renders every table and figure of the
// paper's evaluation section.
//
// Grid execution is streamed: Run flattens the whole grid into one
// (cell, fact) task queue and drains it on a sched.Pool, so no cell
// barrier ever stalls independent work. Evidence-prefetch tasks at the
// head of the queue warm the RAG cache once per fact ahead of model
// fan-out, and an optional progress callback reports cells as they
// complete.
//
// Runs are resumable and incremental: with a content-addressed result
// store attached (WithStore, internal/results), the queue is built only
// from cells the store cannot satisfy, completed cells are persisted as
// they finish, and completed work streams through the ResultSink
// interface — so killed runs resume, config deltas recompute only the
// affected grid slice, and results stay byte-identical to a cold run.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"factcheck/internal/consensus"
	"factcheck/internal/corpus"
	"factcheck/internal/dataset"
	"factcheck/internal/fault"
	"factcheck/internal/llm"
	"factcheck/internal/rag"
	"factcheck/internal/resilience"
	"factcheck/internal/results"
	"factcheck/internal/sched"
	"factcheck/internal/search"
	"factcheck/internal/strategy"
	"factcheck/internal/world"
)

// Config parameterises a benchmark run.
type Config struct {
	// Scale multiplies the published dataset sizes (1.0 = full benchmark).
	Scale float64
	// WorldConfig sizes the synthetic universe; zero value selects
	// world.DefaultConfig (or SmallConfig when Small is set).
	WorldConfig world.Config
	// Small selects the miniature test world.
	Small bool
	// Models to evaluate; defaults to llm.BenchmarkModels.
	Models []string
	// Methods to evaluate; defaults to llm.AllMethods.
	Methods []llm.Method
	// Datasets to evaluate; defaults to dataset.AllNames.
	Datasets []dataset.Name
	// Parallelism bounds the worker pool draining the whole verification
	// grid (and the per-cell fan-out of RunCell); defaults to GOMAXPROCS.
	// Results are identical at any parallelism; 1 degenerates to a strictly
	// sequential run.
	Parallelism int
	// Pace makes every simulated model call really take its simulated
	// latency, scaled by Pace wall-clock seconds per simulated second
	// (0 = as fast as the hardware allows). Outcomes are unchanged — like
	// Parallelism it is an execution knob, excluded from result-store
	// fingerprints — but it lets latency-structure benchmarks (serial vs
	// fanned-out consensus) measure what a real model server would cost.
	Pace float64
	// Faults injects deterministic faults into model calls and ingestion
	// folds (internal/fault). Like Pace it is an execution knob excluded
	// from result-store fingerprints: a call that survives its faults
	// (directly or via retries) produces byte-identical outcomes.
	Faults fault.Plan
	// Resilience, when set, wraps every model with capped-backoff retries
	// for transient errors and a per-model circuit breaker
	// (internal/resilience). Nil leaves failures to surface raw.
	Resilience *resilience.Config
}

// DefaultConfig returns the full-benchmark configuration.
func DefaultConfig() Config { return Config{Scale: 1.0} }

// TestConfig returns a fast, small configuration for tests.
func TestConfig() Config { return Config{Scale: 0.05, Small: true} }

func (c *Config) fill() {
	if c.Scale == 0 {
		c.Scale = 1.0
	}
	if c.WorldConfig.Persons == 0 {
		if c.Small {
			c.WorldConfig = world.SmallConfig()
		} else {
			c.WorldConfig = world.DefaultConfig()
		}
	}
	if len(c.Models) == 0 {
		c.Models = llm.BenchmarkModels
	}
	if len(c.Methods) == 0 {
		c.Methods = llm.AllMethods
	}
	if len(c.Datasets) == 0 {
		c.Datasets = dataset.AllNames
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
}

// Benchmark is a fully wired FactCheck instance.
type Benchmark struct {
	Config   Config
	World    *world.World
	Datasets map[dataset.Name]*dataset.Dataset
	Corpus   *corpus.Generator
	Engine   *search.Engine
	Pipeline *rag.Pipeline

	// Faults and Resilience execute the config's fault plan and
	// retry/breaker policy; either may be nil (no-op). The serving layer
	// reads Resilience for its breaker stats.
	Faults     *fault.Injector
	Resilience *resilience.Registry

	modelsMu sync.Mutex
	models   map[string]llm.Model

	factIdxOnce sync.Once
	factIdx     map[dataset.Name]map[string]int
}

// NewBenchmark builds all substrates for the configuration.
func NewBenchmark(cfg Config) *Benchmark {
	cfg.fill()
	w := world.New(cfg.WorldConfig)
	ds := map[dataset.Name]*dataset.Dataset{}
	var all []*dataset.Dataset
	for _, n := range cfg.Datasets {
		d := dataset.Build(w, n, cfg.Scale)
		ds[n] = d
		all = append(all, d)
	}
	gen := corpus.NewGenerator(w)
	eng := search.NewEngine(gen, all...)
	b := &Benchmark{
		Config:     cfg,
		World:      w,
		Datasets:   ds,
		Corpus:     gen,
		Engine:     eng,
		Pipeline:   rag.New(eng),
		Faults:     fault.New(cfg.Faults),
		Resilience: resilience.NewRegistry(cfg.Resilience),
		models:     map[string]llm.Model{},
	}
	return b
}

// Model returns (and caches) the named simulated model. The registry is
// mutex-guarded: grid workers and consensus arbiters resolve models
// concurrently.
func (b *Benchmark) Model(name string) (llm.Model, error) {
	b.modelsMu.Lock()
	defer b.modelsMu.Unlock()
	if m, ok := b.models[name]; ok {
		return m, nil
	}
	m, err := llm.New(name)
	if err != nil {
		return nil, err
	}
	// The execution chain wraps outward from the simulator: pacing turns
	// simulated latency real, the fault injector fails/delays calls ahead
	// of it, and the resilience layer (retry around breaker) sits
	// outermost so injected transient errors are what it absorbs.
	var wrapped llm.Model = m
	if b.Config.Pace > 0 {
		wrapped = llm.Paced{Model: m, Scale: b.Config.Pace}
	}
	wrapped = b.Faults.Model(wrapped)
	wrapped = b.Resilience.Model(wrapped)
	b.models[name] = wrapped
	return wrapped, nil
}

// Verifier returns the verifier for a method, wired to the benchmark's RAG
// pipeline when needed.
func (b *Benchmark) Verifier(m llm.Method) (strategy.Verifier, error) {
	return strategy.ForMethod(m, b.Pipeline)
}

// Cell identifies one (dataset, method, model) evaluation cell.
type Cell struct {
	Dataset dataset.Name
	Method  llm.Method
	Model   string
}

// ResultSet holds the outcomes of a benchmark run, indexed by cell. Within
// a cell, outcomes are ordered like the dataset's fact slice, so the i-th
// outcomes of different models refer to the same fact.
type ResultSet struct {
	Config   Config
	Outcomes map[Cell][]strategy.Outcome
}

// Get returns the outcomes for a cell (nil when absent).
func (r *ResultSet) Get(d dataset.Name, m llm.Method, model string) []strategy.Outcome {
	return r.Outcomes[Cell{Dataset: d, Method: m, Model: model}]
}

// MissingCellError reports a grid cell absent from a ResultSet — typically
// a consumer asking for a (dataset, method, model) combination the run was
// not configured to produce.
type MissingCellError struct {
	Cell Cell
}

// Error implements error.
func (e *MissingCellError) Error() string {
	return fmt.Sprintf("core: result set has no cell %s/%s/%s",
		e.Cell.Dataset, e.Cell.Method, e.Cell.Model)
}

// PerFact regroups a cell list of model names into per-fact outcome slices:
// result[i][j] is model j's outcome on fact i. The rows share one backing
// array (each capped at its own length). A model whose cell is absent
// yields a *MissingCellError (renderers fail loudly instead of silently
// emitting empty artifacts); cells of mismatched length are likewise
// rejected.
func (r *ResultSet) PerFact(d dataset.Name, m llm.Method, models []string) ([][]strategy.Outcome, error) {
	if len(models) == 0 {
		return nil, nil
	}
	cols := make([][]strategy.Outcome, len(models))
	for j, name := range models {
		cell := Cell{Dataset: d, Method: m, Model: name}
		outs, ok := r.Outcomes[cell]
		if !ok {
			return nil, &MissingCellError{Cell: cell}
		}
		if j > 0 && len(outs) != len(cols[0]) {
			return nil, fmt.Errorf("core: cell %s/%s/%s has %d outcomes, want %d",
				d, m, name, len(outs), len(cols[0]))
		}
		cols[j] = outs
	}
	k := len(models)
	flat := make([]strategy.Outcome, len(cols[0])*k)
	per := make([][]strategy.Outcome, len(cols[0]))
	for i := range per {
		row := flat[i*k : (i+1)*k : (i+1)*k]
		for j, outs := range cols {
			row[j] = outs[i]
		}
		per[i] = row
	}
	return per, nil
}

// Progress reports the completion of one grid cell during Run.
type Progress struct {
	// Cell identifies the completed (dataset, method, model) cell.
	Cell Cell
	// Facts is the number of facts verified in the cell.
	Facts int
	// DoneCells counts completed cells so far, including this one.
	DoneCells int
	// TotalCells is the size of the grid.
	TotalCells int
}

// RunOption customises a single Run invocation.
type RunOption func(*runOptions)

type runOptions struct {
	progress func(Progress)
	store    *Store
	sink     ResultSink
}

// WithProgress streams per-cell completion events to fn as the worker pool
// drains the grid. Cells complete in data-dependent order (cells satisfied
// by an attached store report first, in grid order); fn is called serially
// (never concurrently with itself).
func WithProgress(fn func(Progress)) RunOption {
	return func(o *runOptions) { o.progress = fn }
}

// gridCell is one (dataset, method, model) cell being assembled by the
// scheduler: workers write index-addressed outcomes and the last one to
// finish reports the cell complete. Cells satisfied by an attached result
// store are marked cached and never scheduled.
type gridCell struct {
	cell      Cell
	facts     []*dataset.Fact
	model     llm.Model
	verifier  strategy.Verifier
	outs      []strategy.Outcome
	remaining atomic.Int64
	fp        results.Fingerprint
	cached    bool
}

// Run executes the full grid of the configuration as one streamed task
// queue: every (cell, fact) pair is enqueued up front and drained by
// Parallelism workers, so slow cells overlap with fast ones instead of
// serialising behind per-cell barriers. Outcomes are assembled back into
// fact-ordered slices and are byte-identical at any parallelism. On error
// the run cancels outstanding work, drains in-flight verifications and
// returns the aggregated failure.
//
// With WithStore attached, cells whose fingerprint is already stored are
// served from the store and the queue is built only from the missing
// cells: an interrupted run resumes from the cells that completed, a
// config delta recomputes only the affected slice of the grid, and a
// fully warm store replays the whole grid with zero verifier calls —
// results stay byte-identical to a cold run throughout. Newly computed
// cells are persisted as they finish, so progress survives a kill at any
// point. WithSink additionally streams every completed cell to a caller
// sink (cached cells first, in grid order).
func (b *Benchmark) Run(ctx context.Context, opts ...RunOption) (*ResultSet, error) {
	var ro runOptions
	for _, o := range opts {
		o(&ro)
	}

	// Resolve verifiers, models and datasets up front so configuration
	// errors surface before any verification is scheduled.
	verifiers := make(map[llm.Method]strategy.Verifier, len(b.Config.Methods))
	for _, method := range b.Config.Methods {
		v, err := b.Verifier(method)
		if err != nil {
			return nil, err
		}
		verifiers[method] = v
	}
	models := make(map[string]llm.Model, len(b.Config.Models))
	for _, name := range b.Config.Models {
		m, err := b.Model(name)
		if err != nil {
			return nil, err
		}
		models[name] = m
	}
	var cells []*gridCell
	for _, dn := range b.Config.Datasets {
		d, ok := b.Datasets[dn]
		if !ok {
			return nil, fmt.Errorf("core: dataset %q not built", dn)
		}
		for _, method := range b.Config.Methods {
			for _, name := range b.Config.Models {
				c := &gridCell{
					cell:     Cell{Dataset: dn, Method: method, Model: name},
					facts:    d.Facts,
					model:    models[name],
					verifier: verifiers[method],
				}
				if ro.store != nil {
					c.fp = b.CellKey(c.cell).Fingerprint()
					if outs, ok := ro.store.Get(c.fp); ok && len(outs) == len(d.Facts) {
						c.outs = outs
						c.cached = true
					}
				}
				if !c.cached {
					c.outs = make([]strategy.Outcome, len(d.Facts))
				}
				c.remaining.Store(int64(len(d.Facts)))
				cells = append(cells, c)
			}
		}
	}

	var progressMu sync.Mutex
	doneCells := 0
	cellDone := func(c *gridCell) {
		if ro.progress == nil {
			return
		}
		progressMu.Lock()
		defer progressMu.Unlock()
		doneCells++
		ro.progress(Progress{
			Cell:       c.cell,
			Facts:      len(c.facts),
			DoneCells:  doneCells,
			TotalCells: len(cells),
		})
	}

	// finishCell runs once per completed cell: persist it (unless it came
	// from the store), stream it to the sink, report progress. Sink calls
	// are serialised; a persist or sink failure fails the run.
	var sinkMu sync.Mutex
	finishCell := func(c *gridCell) error {
		if ro.store != nil && !c.cached && len(c.facts) > 0 {
			if err := ro.store.Put(c.fp, c.outs); err != nil {
				return fmt.Errorf("core: persisting cell %s/%s/%s: %w",
					c.cell.Dataset, c.cell.Method, c.cell.Model, err)
			}
		}
		if ro.sink != nil {
			sinkMu.Lock()
			err := ro.sink.PutCell(c.cell, c.outs)
			sinkMu.Unlock()
			if err != nil {
				return fmt.Errorf("core: result sink rejected cell %s/%s/%s: %w",
					c.cell.Dataset, c.cell.Method, c.cell.Model, err)
			}
		}
		cellDone(c)
		return nil
	}

	// Cached and empty cells are complete before any work is scheduled:
	// deliver them in grid order so consumers see a deterministic prefix.
	for _, c := range cells {
		if c.cached || len(c.facts) == 0 {
			if err := finishCell(c); err != nil {
				return nil, err
			}
		}
	}

	pool := sched.New(b.Config.Parallelism)

	// One flat queue, two kinds of tasks, built only from the cells the
	// store could not satisfy. Evidence-prefetch tasks sit at the front:
	// methods with model-independent per-fact state (RAG retrieval) warm
	// it once per fact before that fact's model fan-out is dispatched —
	// and only for datasets where that method still has a missing cell.
	// Ascending dispatch means the prefetch block still drains (almost)
	// fully before verification starts — the overlap is bounded by the
	// worker count — but unlike a barrier phase there is no sync point:
	// workers flow straight into verification, and the singleflight cache
	// keeps retrieval exactly-once even when a verify task overtakes its
	// fact's prefetch.
	type task struct {
		prefetch strategy.Prefetcher // nil for verification tasks
		f        *dataset.Fact       // prefetch target
		c        *gridCell           // verification cell
		i        int                 // fact index within c
	}
	needPrefetch := map[llm.Method]map[dataset.Name]bool{}
	for _, c := range cells {
		if c.cached || len(c.facts) == 0 {
			continue
		}
		ds := needPrefetch[c.cell.Method]
		if ds == nil {
			ds = map[dataset.Name]bool{}
			needPrefetch[c.cell.Method] = ds
		}
		ds[c.cell.Dataset] = true
	}
	var tasks []task
	for _, method := range b.Config.Methods {
		p, ok := verifiers[method].(strategy.Prefetcher)
		if !ok {
			continue
		}
		for _, dn := range b.Config.Datasets {
			if !needPrefetch[method][dn] {
				continue
			}
			for _, f := range b.Datasets[dn].Facts {
				tasks = append(tasks, task{prefetch: p, f: f})
			}
		}
	}
	for _, c := range cells {
		if c.cached {
			continue
		}
		for i := range c.facts {
			tasks = append(tasks, task{c: c, i: i})
		}
	}
	err := pool.Run(ctx, len(tasks), func(ctx context.Context, ti int) error {
		t := tasks[ti]
		if t.prefetch != nil {
			return t.prefetch.Prefetch(ctx, t.f)
		}
		out, err := t.c.verifier.Verify(ctx, t.c.model, t.c.facts[t.i])
		if err != nil {
			return err
		}
		t.c.outs[t.i] = out
		if t.c.remaining.Add(-1) == 0 {
			return finishCell(t.c)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	rs := &ResultSet{Config: b.Config, Outcomes: make(map[Cell][]strategy.Outcome, len(cells))}
	for _, c := range cells {
		rs.Outcomes[c.cell] = c.outs
	}
	return rs, nil
}

// RunCell verifies every fact of one dataset with one model and method,
// fanning out across Parallelism workers. Outcomes preserve fact order.
// Cancellation is drained: RunCell returns only after every started
// verification has finished.
func (b *Benchmark) RunCell(ctx context.Context, dn dataset.Name, method llm.Method, modelName string) ([]strategy.Outcome, error) {
	d, ok := b.Datasets[dn]
	if !ok {
		return nil, fmt.Errorf("core: dataset %q not built", dn)
	}
	m, err := b.Model(modelName)
	if err != nil {
		return nil, err
	}
	v, err := b.Verifier(method)
	if err != nil {
		return nil, err
	}
	outs := make([]strategy.Outcome, len(d.Facts))
	err = sched.New(b.Config.Parallelism).Run(ctx, len(d.Facts), func(ctx context.Context, i int) error {
		out, err := v.Verify(ctx, m, d.Facts[i])
		if err != nil {
			return err
		}
		outs[i] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// VerifyFact verifies a single fact under one (dataset, method, model)
// cell and returns the outcome. It is the unit of work of the online
// serving layer: outcomes are deterministic, so the result is identical to
// the corresponding entry of a whole-cell RunCell (or grid Run) — which is
// what lets the service, the CLI and the webapp share one result store.
func (b *Benchmark) VerifyFact(ctx context.Context, c Cell, f *dataset.Fact) (strategy.Outcome, error) {
	m, err := b.Model(c.Model)
	if err != nil {
		return strategy.Outcome{}, err
	}
	v, err := b.Verifier(c.Method)
	if err != nil {
		return strategy.Outcome{}, err
	}
	return v.Verify(ctx, m, f)
}

// FactIndex maps fact IDs of one dataset to their index in the dataset's
// fact slice — the outcome order of cell snapshots. The index is built
// lazily once and shared; the returned map must not be mutated. Unknown
// datasets yield nil.
func (b *Benchmark) FactIndex(dn dataset.Name) map[string]int {
	b.factIdxOnce.Do(func() {
		b.factIdx = make(map[dataset.Name]map[string]int, len(b.Datasets))
		for name, d := range b.Datasets {
			idx := make(map[string]int, len(d.Facts))
			for i, f := range d.Facts {
				idx[f.ID] = i
			}
			b.factIdx[name] = idx
		}
	})
	return b.factIdx[dn]
}

// Arbiters builds the paper's three tie-breaking configurations for a
// (dataset, method) cell: the upgraded most-consistent model, the upgraded
// least-consistent model, and GPT-4o mini.
func (b *Benchmark) Arbiters(rep consensus.AlignmentReport, method llm.Method) (up, down, commercial consensus.Arbiter, err error) {
	v, err := b.Verifier(method)
	if err != nil {
		return nil, nil, nil, err
	}
	mk := func(label, base string) (consensus.Arbiter, error) {
		name := base
		if up, ok := llm.Upgrade[base]; ok {
			name = up
		}
		judge, err := b.Model(name)
		if err != nil {
			return nil, err
		}
		return &consensus.ModelArbiter{Label: label, Judge: judge, Verifier: v}, nil
	}
	up, err = mk("agg-cons-up", rep.MostConsistent(true))
	if err != nil {
		return nil, nil, nil, err
	}
	down, err = mk("agg-cons-down", rep.MostConsistent(false))
	if err != nil {
		return nil, nil, nil, err
	}
	judge, err := b.Model(llm.GPT4oMini)
	if err != nil {
		return nil, nil, nil, err
	}
	commercial = &consensus.ModelArbiter{Label: "agg-gpt-4o-mini", Judge: judge, Verifier: v}
	return up, down, commercial, nil
}

// FactByID resolves a fact across all built datasets.
func (b *Benchmark) FactByID(id string) (*dataset.Fact, bool) {
	return b.Engine.Fact(id)
}

// Ingest applies a batch of live documents: the engine folds them into a
// fresh epoch snapshot (published atomically; readers never block), and
// every touched fact's cached retrieval evidence is dropped, so later
// verifications of those facts see the new corpus while untouched facts
// keep their warm evidence. The corpus digest bump retires affected cell
// fingerprints automatically.
func (b *Benchmark) Ingest(docs []search.IngestDoc) (search.IngestResult, error) {
	if err := b.Faults.IngestFault(); err != nil {
		return search.IngestResult{}, err
	}
	res, err := b.Engine.Ingest(docs)
	if err != nil {
		return res, err
	}
	for factID := range res.Epochs {
		b.Pipeline.Invalidate(factID)
	}
	return res, nil
}
