// Package serve is the online fact-verification service: the serving layer
// that turns the offline benchmark substrate into a request/response API
// able to answer ad-hoc "is this fact true?" queries without running a
// whole grid.
//
// A request passes through five layers, in order:
//
//  1. a per-client token-bucket rate limiter (429 + Retry-After);
//  2. a bounded admission queue — when every slot is taken the request is
//     rejected immediately with 503 + Retry-After instead of queueing
//     unboundedly (accepted requests, not goroutines, are the queue);
//  3. singleflight coalescing: N concurrent requests for the same
//     (dataset, method, model, fact) trigger exactly one verification and
//     share its outcome;
//  4. a sharded in-memory verdict LRU layered over the content-addressed
//     result store (internal/results): whole-cell snapshots hydrate the
//     LRU on first touch, and on-demand verdicts are persisted back via
//     asynchronous whole-cell fills, so the CLI, the webapp and the
//     service all share one store;
//  5. execution on a shared sched.Executor, capping verification
//     concurrency independently of how many connections were accepted.
//
// Every verdict is deterministic, so a response is byte-identical whether
// it came from the LRU, a store snapshot or a fresh verification — the
// cache layers are invisible except in latency.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"factcheck/internal/consensus"
	"factcheck/internal/core"
	"factcheck/internal/dataset"
	"factcheck/internal/llm"
	"factcheck/internal/obs"
	"factcheck/internal/resilience"
	"factcheck/internal/sched"
	"factcheck/internal/search"
	"factcheck/internal/strategy"
)

// Layer latency histograms, resolved once at init so the request path
// records each layer with a single atomic add — no registry lookups, no
// locks, no allocations on the warm path. Span names match histogram
// labels one to one, so a /v1/trace breakdown and the /metricsz
// aggregates speak the same taxonomy.
var (
	ratelimitHist = obs.Layer("ratelimit")
	admitHist     = obs.Layer("admit")
	lruHist       = obs.Layer("lru")
	coalesceHist  = obs.Layer("coalesce")
	storeHist     = obs.Layer("store")
	execWaitHist  = obs.Layer("exec_wait")
	verifyHist    = obs.Layer("verify")
)

// Config parameterises the service. The zero value is filled with the
// defaults documented on each field.
type Config struct {
	// QueueDepth bounds how many requests may be admitted (queued or
	// executing) at once; further requests get 503 + Retry-After.
	// Default 64.
	QueueDepth int
	// Workers caps concurrent verifications on the shared executor,
	// independently of QueueDepth. Default: the benchmark's Parallelism.
	Workers int
	// CacheCapacity bounds the verdict LRU (entries across all shards).
	// Default 65536.
	CacheCapacity int
	// Rate and Burst configure the per-client token bucket (tokens per
	// second / bucket capacity). Defaults 50 and 100.
	Rate  float64
	Burst float64
	// RetryAfter is the hint returned with 503 responses. Default 1s.
	RetryAfter time.Duration
	// FillCells enables asynchronous whole-cell fills after an on-demand
	// verification, persisting the cell to the store for every later
	// consumer. Fills are deduplicated per cell and run one cell at a
	// time on the shared executor.
	FillCells bool
	// MaxBatch bounds /v1/verify/batch request size and the documents
	// accepted per POST /v1/documents batch. Default 64.
	MaxBatch int
	// IngestQueue bounds ingestion batches admitted but not yet folded by
	// the background builder; further batches get 503 + Retry-After.
	// Default 16.
	IngestQueue int
	// ConsensusMode is the default execution strategy for /v1/consensus
	// (overridable per request with ?mode=). Default
	// consensus.ModeAdaptive: verdicts are mode-independent, so the
	// early-stopping schedule is safe to default on.
	ConsensusMode consensus.Mode
	// TraceSample is the fraction of requests traced end to end (0 = off,
	// the default: the warm path then never touches the tracer beyond one
	// counter increment). Any request can force its own trace with an
	// `X-Server-Timing: 1` header regardless of the sample rate.
	TraceSample float64
	// TraceRing bounds finished traces retained for GET /v1/trace/{id}.
	// Default 512.
	TraceRing int
	// TraceSeed, when non-empty, derives deterministic trace IDs from the
	// request sequence number (det-hashed); otherwise IDs are random.
	TraceSeed string
	// RequestTimeout bounds each admitted request end to end: the
	// handler's context expires after it, every layer below honours the
	// context (executor handoff, singleflight waits, model calls, fault
	// stalls), and an expired verification answers 504 + Retry-After
	// instead of hanging. 0 (the default) disables the deadline — and
	// keeps the warm path free of the context allocation.
	RequestTimeout time.Duration
}

// DefaultConfig returns the production defaults (with FillCells on).
func DefaultConfig() Config {
	return Config{FillCells: true}
}

func (c *Config) fill(bench *core.Benchmark) {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = bench.Config.Parallelism
	}
	if c.CacheCapacity <= 0 {
		c.CacheCapacity = 1 << 16
	}
	if c.Rate <= 0 {
		c.Rate = 50
	}
	if c.Burst <= 0 {
		c.Burst = 100
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.IngestQueue <= 0 {
		c.IngestQueue = 16
	}
	if c.ConsensusMode == "" {
		c.ConsensusMode = consensus.ModeAdaptive
	}
}

// Service answers online verification requests over one benchmark instance
// and one result store.
type Service struct {
	bench *core.Benchmark
	store *core.Store
	cfg   Config

	cache   *verdictCache
	limiter *limiter
	exec    *sched.Executor
	admit   chan struct{}

	// voters and plan are the consensus ensemble (the configured models
	// minus the commercial arbiter) and its cost-ordered tier schedule,
	// fixed at construction so every request dispatches identically.
	voters []string
	plan   consensus.Plan

	// verify is the single-fact verification function; tests stub it to
	// count calls. Defaults to the benchmark's VerifyFact.
	verify func(context.Context, core.Cell, *dataset.Fact) (strategy.Outcome, error)

	// flight dedupes concurrent resolutions of the same verdict key.
	flightMu sync.Mutex
	flight   map[verdictKey]*call

	// filler dedupes and serialises background whole-cell fills; Drain
	// waits them out.
	filler *core.CellFiller

	// ingestCh queues admitted document batches for the background
	// builder; ingestDone closes when the builder has drained it.
	ingestCh   chan []search.IngestDoc
	ingestDone chan struct{}

	// tracer samples requests into per-layer span traces (X-Trace-Id /
	// GET /v1/trace/{id}).
	tracer *obs.Tracer

	// draining flips at drain start (StartDrain): /readyz answers 503 and
	// the admission wrapper rejects new work while in-flight requests
	// finish — readiness is the first thing to go, work admission the
	// same instant, liveness (/healthz) never.
	draining atomic.Bool

	stats serviceStats
}

// call is one in-flight verdict resolution; followers block on done and
// share the leader's result.
type call struct {
	done chan struct{}
	out  strategy.Outcome
	src  string
	err  error
}

type serviceStats struct {
	// mu makes multi-counter updates observable as a unit: writers hold it
	// shared around grouped atomic adds (concurrent writers never block
	// each other), and Stats() holds it exclusively while loading, so a
	// scrape can never see e.g. consensus_requests incremented but its
	// votes_dispatched/votes_skipped not yet added. Single-counter updates
	// skip the lock entirely.
	mu sync.RWMutex

	requests      atomic.Uint64
	rateLimited   atomic.Uint64
	queueRejected atomic.Uint64
	lruHits       atomic.Uint64
	storeHits     atomic.Uint64
	computed      atomic.Uint64
	coalesced     atomic.Uint64
	fills         atomic.Uint64

	ingestBatches  atomic.Uint64
	ingestDocs     atomic.Uint64
	ingestApplied  atomic.Uint64
	ingestRejected atomic.Uint64
	ingestSwept    atomic.Uint64

	consensusRequests    atomic.Uint64
	consensusDispatched  atomic.Uint64
	consensusSkipped     atomic.Uint64
	consensusEscalations atomic.Uint64
	consensusArbiters    atomic.Uint64
	consensusDegraded    atomic.Uint64

	// Resilience-path counters: stale verdicts served degraded, verdicts
	// refused because the dependency was unavailable with no stale copy
	// (503), requests cut off by the per-request deadline (504), ingest
	// folds retried after transient failures, and batches dropped after
	// the redelivery budget.
	degraded      atomic.Uint64
	unavailable   atomic.Uint64
	deadlines     atomic.Uint64
	ingestRetries atomic.Uint64
	ingestDropped atomic.Uint64
}

// New builds a service over a benchmark and a result store (use
// core.NewMemoryStore for a cache-only service).
func New(bench *core.Benchmark, store *core.Store, cfg Config) *Service {
	cfg.fill(bench)
	s := &Service{
		bench:   bench,
		store:   store,
		cfg:     cfg,
		cache:   newVerdictCache(cfg.CacheCapacity),
		limiter: newLimiter(cfg.Rate, cfg.Burst, time.Now),
		exec:    sched.NewExecutor(cfg.Workers),
		admit:   make(chan struct{}, cfg.QueueDepth),
		flight:  map[verdictKey]*call{},
		tracer: obs.NewTracer(obs.TracerConfig{
			Sample: cfg.TraceSample,
			Ring:   cfg.TraceRing,
			Seed:   cfg.TraceSeed,
		}),
	}
	s.exec.OnQueueWait = execWaitHist.Observe
	for _, model := range bench.Config.Models {
		if model != llm.GPT4oMini { // commercial model is an arbiter, not a voter (§3.3)
			s.voters = append(s.voters, model)
		}
	}
	s.plan = consensus.NewPlan(s.voters, llm.Cost)
	s.verify = bench.VerifyFact
	s.filler = core.NewCellFiller(s.fillCell)
	s.ingestCh = make(chan []search.IngestDoc, cfg.IngestQueue)
	s.ingestDone = make(chan struct{})
	go s.ingestLoop()
	return s
}

// ingestRedelivery bounds how many times the background builder retries a
// transiently-failing fold before dropping the batch. Acknowledged batches
// (202) should survive transient dependency hiccups, but an unfoldable
// batch must not wedge the builder forever.
const ingestRedelivery = 3

// ingestLoop is the background builder: it folds admitted document batches
// into fresh corpus epoch snapshots one at a time, then sweeps the touched
// facts' now-stale verdict-LRU entries. Admission never blocks on a fold —
// the bounded channel is the backpressure boundary — and readers never
// block at all (the engine publishes each epoch with one pointer store).
// Transient fold failures are retried up to ingestRedelivery times with a
// short doubling backoff; a batch still failing after that is dropped and
// counted, never silently lost.
func (s *Service) ingestLoop() {
	defer close(s.ingestDone)
	for docs := range s.ingestCh {
		var res search.IngestResult
		var err error
		for attempt := 0; ; attempt++ {
			res, err = s.bench.Ingest(docs)
			if err == nil || !resilience.IsTransient(err) || attempt >= ingestRedelivery {
				break
			}
			s.stats.ingestRetries.Add(1)
			time.Sleep(time.Duration(2<<attempt) * time.Millisecond)
		}
		if err != nil {
			s.stats.ingestDropped.Add(1)
			continue // batches are validated at admission; a drop means retries ran dry
		}
		var swept uint64
		for factID, epoch := range res.Epochs {
			swept += uint64(s.cache.sweepStale(factID, epoch))
		}
		s.stats.mu.RLock()
		s.stats.ingestApplied.Add(uint64(len(docs)))
		s.stats.ingestSwept.Add(swept)
		s.stats.mu.RUnlock()
	}
}

// Drain completes graceful shutdown: admitted ingestion batches are folded
// (they were acknowledged with 202, so they must not be lost), background
// cell fills still queued are discarded (a later process recomputes them),
// the fill in flight finishes and persists, then the executor stops
// (letting started verifications finish). Drain time is therefore bounded
// by the queued ingest batches plus one cell. Call after
// http.Server.Shutdown has drained the handlers — nothing may be enqueued
// once Drain runs.
func (s *Service) Drain() {
	close(s.ingestCh)
	<-s.ingestDone
	s.filler.Close()
	s.exec.Close()
}

// StartDrain marks the service draining: /readyz answers 503 + Retry-After
// (telling load balancers to route elsewhere) and the admission wrapper
// rejects new work, while requests already admitted run to completion.
// Call it the moment shutdown begins — before http.Server.Shutdown, which
// waits out the in-flight handlers — then Drain once the handlers are done.
func (s *Service) StartDrain() { s.draining.Store(true) }

// --- verdict resolution --------------------------------------------------

// verdict resolves one (cell, fact) verdict through the lookup stack:
// LRU, singleflight, store snapshot (hydrating the LRU), executor-bounded
// verification. The source tells which layer answered: "lru", "store" or
// "computed" (followers of a coalesced call inherit the leader's source).
//
// The verdict key's epoch and the store fingerprint's corpus digest are
// read from one consistent EpochView, so a concurrent ingestion can never
// pair a pre-bump fingerprint with a post-bump epoch (or vice versa):
// every layer of the stack answers for exactly one corpus version.
func (s *Service) verdict(ctx context.Context, cell core.Cell, f *dataset.Fact, idx int) (strategy.Outcome, string, error) {
	view := s.bench.Engine.EpochView()
	key := verdictKey{cell: cell, factID: f.ID, epoch: view.FactEpoch(f.ID)}
	for {
		_, endLRU := obs.StartSpan(ctx, "lru")
		lruStart := time.Now()
		out, hit := s.cache.get(key)
		lruHist.Observe(time.Since(lruStart))
		endLRU()
		if hit {
			s.stats.lruHits.Add(1)
			return out, "lru", nil
		}
		s.flightMu.Lock()
		if c, ok := s.flight[key]; ok {
			s.flightMu.Unlock()
			s.stats.coalesced.Add(1)
			_, endWait := obs.StartSpan(ctx, "coalesce")
			waitStart := time.Now()
			select {
			case <-c.done:
				coalesceHist.Observe(time.Since(waitStart))
				endWait()
				// A leader whose own client disconnected reports a context
				// error that says nothing about this follower's request: a
				// follower with a live context retries (one of them becomes
				// the new leader) instead of inheriting the 500.
				if c.err != nil && ctx.Err() == nil &&
					(errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded)) {
					continue
				}
				return c.out, c.src, c.err
			case <-ctx.Done():
				coalesceHist.Observe(time.Since(waitStart))
				endWait()
				return strategy.Outcome{}, "", ctx.Err()
			}
		}
		c := &call{done: make(chan struct{})}
		s.flight[key] = c
		s.flightMu.Unlock()

		c.out, c.src, c.err = s.resolve(ctx, key, view, cell, f, idx)
		s.flightMu.Lock()
		delete(s.flight, key)
		s.flightMu.Unlock()
		close(c.done)
		return c.out, c.src, c.err
	}
}

// resolve is the singleflight leader's path: store probe, then verify.
// The fingerprint is derived from the same EpochView as the verdict key,
// so store snapshots only ever answer for the corpus version the caller
// read. A verification that races an epoch bump is served (it is a valid
// point-in-time answer) but not cached — its evidence may straddle epochs.
func (s *Service) resolve(ctx context.Context, key verdictKey, view search.EpochView, cell core.Cell, f *dataset.Fact, idx int) (strategy.Outcome, string, error) {
	_, endStore := obs.StartSpan(ctx, "store")
	storeStart := time.Now()
	fp := s.bench.CellKeyAt(cell, view.CorpusDigest(cell.Dataset)).Fingerprint()
	if outs, ok := s.store.Get(fp); ok && idx < len(outs) {
		s.stats.storeHits.Add(1)
		s.hydrateCell(cell, outs, view)
		storeHist.Observe(time.Since(storeStart))
		endStore()
		return outs[idx], "store", nil
	}
	storeHist.Observe(time.Since(storeStart))
	endStore()
	// exec_wait and verify are sibling spans under the caller: the wait
	// span ends the moment a worker picks the task up, where the verify
	// span begins. The exec_wait histogram is fed by the executor's own
	// OnQueueWait hook (which also covers background fill tasks), not here.
	_, endExecWait := obs.StartSpan(ctx, "exec_wait")
	var out strategy.Outcome
	err := s.exec.Do(ctx, func(ctx context.Context) error {
		endExecWait()
		vctx, endVerify := obs.StartSpan(ctx, "verify")
		verifyStart := time.Now()
		defer func() {
			verifyHist.Observe(time.Since(verifyStart))
			endVerify()
		}()
		var err error
		out, err = s.verify(vctx, cell, f)
		return err
	})
	if err != nil {
		return strategy.Outcome{}, "", err
	}
	s.stats.computed.Add(1)
	if s.bench.Engine.FactEpoch(f.ID) != key.epoch {
		return out, "computed", nil
	}
	s.cache.put(key, out)
	if s.cfg.FillCells {
		s.filler.Fill(cell)
	}
	return out, "computed", nil
}

// hydrateCell loads a whole-cell snapshot into the verdict LRU under the
// view's per-fact epochs — the epochs the snapshot's fingerprint was
// derived from — so every fact of a touched cell becomes an LRU hit.
func (s *Service) hydrateCell(cell core.Cell, outs []strategy.Outcome, view search.EpochView) {
	facts := s.bench.Datasets[cell.Dataset].Facts
	for i, out := range outs {
		if i >= len(facts) {
			break
		}
		s.cache.put(verdictKey{cell: cell, factID: facts[i].ID, epoch: view.FactEpoch(facts[i].ID)}, out)
	}
}

// fillCell verifies the rest of a cell and persists the snapshot, so one
// ad-hoc verdict warms the store for every later consumer (service, CLI,
// webapp). It runs under the shared core.CellFiller (deduped per cell, one
// at a time, failures forgotten for retry) and bounds its verification on
// the shared executor — a fill never multiplies service-wide verification
// concurrency.
func (s *Service) fillCell(cell core.Cell) error {
	view := s.bench.Engine.EpochView()
	d := s.bench.Datasets[cell.Dataset]
	outs := make([]strategy.Outcome, len(d.Facts))
	for i, f := range d.Facts {
		// Verdicts already cached under this corpus epoch are identical to
		// recomputed ones (determinism), so reuse them instead of
		// re-verifying.
		if out, ok := s.cache.get(verdictKey{cell: cell, factID: f.ID, epoch: view.FactEpoch(f.ID)}); ok {
			outs[i] = out
			continue
		}
		var out strategy.Outcome
		err := s.exec.Do(context.Background(), func(ctx context.Context) error {
			var err error
			out, err = s.verify(ctx, cell, f)
			return err
		})
		if err != nil {
			return err
		}
		outs[i] = out
	}
	// An ingestion that landed mid-fill may have split the outcomes across
	// corpus epochs; a mixed snapshot must never be persisted under the
	// pre-ingest fingerprint. Abort — the filler forgets failures, so a
	// later request refills the cell over the new epoch.
	if s.bench.Engine.CorpusDigest(cell.Dataset) != view.CorpusDigest(cell.Dataset) {
		return fmt.Errorf("serve: corpus epoch moved during fill of %s/%s/%s", cell.Dataset, cell.Method, cell.Model)
	}
	if err := s.store.Put(s.bench.CellKeyAt(cell, view.CorpusDigest(cell.Dataset)).Fingerprint(), outs); err != nil {
		return err
	}
	s.hydrateCell(cell, outs, view)
	s.stats.fills.Add(1)
	return nil
}

// --- HTTP API ------------------------------------------------------------

// VerifyRequest asks for one verdict.
type VerifyRequest struct {
	Dataset string `json:"dataset"`
	Method  string `json:"method"`
	Model   string `json:"model"`
	FactID  string `json:"fact_id"`
}

// VerdictResponse is one verdict. All fields except Source derive solely
// from the deterministic outcome, so repeated requests are byte-identical
// regardless of which layer answered.
type VerdictResponse struct {
	Dataset          string  `json:"dataset"`
	Method           string  `json:"method"`
	Model            string  `json:"model"`
	FactID           string  `json:"fact_id"`
	Verdict          string  `json:"verdict"`
	Gold             bool    `json:"gold"`
	Correct          bool    `json:"correct"`
	LatencyMS        float64 `json:"latency_ms"`
	Attempts         int     `json:"attempts"`
	PromptTokens     int     `json:"prompt_tokens"`
	CompletionTokens int     `json:"completion_tokens"`
	Explanation      string  `json:"explanation"`
	// Source is the layer that answered: "lru", "store", "computed" or
	// "degraded" (a stale verdict served because fresh resolution was
	// unavailable).
	Source string `json:"source"`
	// Degraded marks a stale verdict served under graceful degradation: the
	// model (or its circuit breaker) was unavailable and a previous epoch's
	// verdict was returned instead of an error.
	Degraded bool `json:"degraded,omitempty"`
}

// BatchRequest asks for several verdicts in one round trip.
type BatchRequest struct {
	Requests []VerifyRequest `json:"requests"`
}

// BatchItem is one batch result: a verdict or a per-item error.
type BatchItem struct {
	Verdict *VerdictResponse `json:"verdict,omitempty"`
	Error   string           `json:"error,omitempty"`
}

// BatchResponse mirrors BatchRequest order.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}

// VoteItem is one model's vote in a consensus response.
type VoteItem struct {
	Model   string `json:"model"`
	Verdict string `json:"verdict"`
}

// ConsensusResponse is the DKA majority vote over the open-source models.
// Final, Tie and Gold are mode-independent: an execution strategy changes
// which votes are consulted, never what they decide. Votes, Skipped and
// LatencyMS describe the strategy that ran.
type ConsensusResponse struct {
	FactID  string     `json:"fact_id"`
	Dataset string     `json:"dataset"`
	Method  string     `json:"method"`
	Votes   []VoteItem `json:"votes"`
	Final   bool       `json:"final"`
	Tie     bool       `json:"tie"`
	Gold    bool       `json:"gold"`
	// Mode is the execution strategy that produced this decision.
	Mode string `json:"mode"`
	// Skipped lists voters the early-stop planner proved unnecessary, in
	// dispatch order (adaptive mode only).
	Skipped []string `json:"skipped,omitempty"`
	// Unavailable lists voters dropped because their dependency was down
	// (hard-down model, open circuit breaker); the decision settled over
	// the survivors. Degraded is set whenever the list is non-empty.
	Unavailable []string `json:"unavailable,omitempty"`
	Degraded    bool     `json:"degraded,omitempty"`
	// LatencyMS is the simulated decided-at latency of the consensus: the
	// per-tier critical paths actually waited on, summed.
	LatencyMS float64 `json:"latency_ms"`
}

// Stats is the /statsz payload.
type Stats struct {
	Requests      uint64 `json:"requests"`
	RateLimited   uint64 `json:"rate_limited"`
	QueueRejected uint64 `json:"queue_rejected"`
	LRUHits       uint64 `json:"lru_hits"`
	StoreHits     uint64 `json:"store_hits"`
	Computed      uint64 `json:"computed"`
	Coalesced     uint64 `json:"coalesced"`
	CellFills     uint64 `json:"cell_fills"`

	// Ingestion counters: batches and documents accepted (202), documents
	// folded into published epoch snapshots by the background builder,
	// batches rejected because the ingest queue was full (503), and stale
	// verdict-LRU entries reclaimed after epoch bumps.
	IngestBatches  uint64 `json:"ingest_batches"`
	IngestDocs     uint64 `json:"ingest_docs"`
	IngestApplied  uint64 `json:"ingest_docs_applied"`
	IngestRejected uint64 `json:"ingest_rejected"`
	IngestSwept    uint64 `json:"ingest_swept"`

	CacheLen      int `json:"cache_len"`
	CacheCapacity int `json:"cache_capacity"`
	QueueDepth    int `json:"queue_depth"`
	QueueCap      int `json:"queue_cap"`
	StoreCells    int `json:"store_cells"`
	Clients       int `json:"clients"`

	// Consensus-engine counters: requests served, votes the planner
	// dispatched vs skipped, tiers escalated past the cheap quorum, and
	// arbiter tie-breaks.
	ConsensusRequests    uint64 `json:"consensus_requests"`
	ConsensusDispatched  uint64 `json:"consensus_votes_dispatched"`
	ConsensusSkipped     uint64 `json:"consensus_votes_skipped"`
	ConsensusEscalations uint64 `json:"consensus_escalations"`
	ConsensusArbiters    uint64 `json:"consensus_arbiter_calls"`
	ConsensusDegraded    uint64 `json:"consensus_degraded"`

	// Resilience-path counters: stale verdicts served degraded, 503s for
	// unavailable dependencies with no stale copy, 504s from the request
	// deadline, and the background builder's ingest retries/drops.
	Degraded      uint64 `json:"degraded_served"`
	Unavailable   uint64 `json:"unavailable_rejected"`
	Deadlines     uint64 `json:"deadline_timeouts"`
	IngestRetries uint64 `json:"ingest_retries"`
	IngestDropped uint64 `json:"ingest_dropped"`

	// Resilience snapshots the retry counters and per-model circuit
	// breakers (zero value when no resilience policy is configured).
	Resilience resilience.Stats `json:"resilience"`

	// Retrieval mirrors the search engine's cumulative counters — cache
	// behaviour plus the pruned top-k's work accounting (queries, postings
	// touched, blocks skipped, docs scored).
	Retrieval search.Stats `json:"retrieval"`

	// Latency summarises every layer and endpoint histogram with at least
	// one observation, keyed "family/label" (e.g. "layer/lru",
	// "endpoint/verify"): count, mean and exact-at-bucket-resolution
	// p50/p95/p99 in milliseconds. /metricsz exposes the full bucket data.
	Latency map[string]obs.Summary `json:"latency,omitempty"`
}

// Stats snapshots the service counters. The counter block is loaded under
// the stats lock held exclusively, so grouped updates (consensus, ingest)
// are never observed half-applied — every scrape satisfies
// consensus_votes_dispatched + consensus_votes_skipped ==
// consensus_requests * len(voters).
func (s *Service) Stats() Stats {
	latency := obs.Default.Summaries()
	s.stats.mu.Lock()
	defer s.stats.mu.Unlock()
	return Stats{
		Retrieval:     s.bench.Engine.Stats(),
		Latency:       latency,
		Requests:      s.stats.requests.Load(),
		RateLimited:   s.stats.rateLimited.Load(),
		QueueRejected: s.stats.queueRejected.Load(),
		LRUHits:       s.stats.lruHits.Load(),
		StoreHits:     s.stats.storeHits.Load(),
		Computed:      s.stats.computed.Load(),
		Coalesced:     s.stats.coalesced.Load(),
		CellFills:     s.stats.fills.Load(),

		IngestBatches:  s.stats.ingestBatches.Load(),
		IngestDocs:     s.stats.ingestDocs.Load(),
		IngestApplied:  s.stats.ingestApplied.Load(),
		IngestRejected: s.stats.ingestRejected.Load(),
		IngestSwept:    s.stats.ingestSwept.Load(),
		CacheLen:       s.cache.len(),
		CacheCapacity:  s.cfg.CacheCapacity,
		QueueDepth:     len(s.admit),
		QueueCap:       cap(s.admit),
		StoreCells:     s.store.Len(),
		Clients:        s.limiter.clients(),

		ConsensusRequests:    s.stats.consensusRequests.Load(),
		ConsensusDispatched:  s.stats.consensusDispatched.Load(),
		ConsensusSkipped:     s.stats.consensusSkipped.Load(),
		ConsensusEscalations: s.stats.consensusEscalations.Load(),
		ConsensusArbiters:    s.stats.consensusArbiters.Load(),
		ConsensusDegraded:    s.stats.consensusDegraded.Load(),

		Degraded:      s.stats.degraded.Load(),
		Unavailable:   s.stats.unavailable.Load(),
		Deadlines:     s.stats.deadlines.Load(),
		IngestRetries: s.stats.ingestRetries.Load(),
		IngestDropped: s.stats.ingestDropped.Load(),
		Resilience:    s.bench.Resilience.Stats(),
	}
}

// Handler returns the service's HTTP handler:
//
//	POST /v1/verify                                    -> VerdictResponse
//	POST /v1/verify/batch                              -> BatchResponse
//	POST /v1/documents                                 -> IngestResponse (202; async fold)
//	GET  /v1/verdict/{dataset}/{method}/{model}/{fact} -> VerdictResponse (no compute; 404 when absent)
//	GET  /v1/consensus/{fact}[?mode=serial|eager|adaptive] -> ConsensusResponse
//	GET  /v1/facts                                     -> fact IDs per dataset
//	GET  /v1/trace/{id}                                -> one sampled trace's spans
//	GET  /healthz (liveness), GET /readyz (readiness; 503 while draining)
//	GET  /statsz, GET /metricsz
//
// Verification and ingestion endpoints sit behind the rate limiter and
// admission queue; health, stats, metrics, traces and fact listing bypass
// both (an observability scrape must never consume serving capacity).
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/verify", s.admitted("verify", s.handleVerify))
	mux.HandleFunc("POST /v1/verify/batch", s.admitted("verify_batch", s.handleBatch))
	mux.HandleFunc("POST /v1/documents", s.admitted("documents", s.handleIngest))
	mux.HandleFunc("GET /v1/verdict/{dataset}/{method}/{model}/{fact}", s.admitted("verdict", s.handleVerdict))
	mux.HandleFunc("GET /v1/consensus/{fact}", s.admitted("consensus", s.handleConsensus))
	mux.HandleFunc("GET /v1/facts", s.handleFacts)
	mux.HandleFunc("GET /v1/trace/{id}", s.handleTrace)
	// /healthz is liveness (the process is up — always 200 while serving,
	// even mid-drain); /readyz is readiness (the process wants traffic —
	// flips to 503 the instant draining starts, before any in-flight
	// request finishes, so load balancers stop routing here first).
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.draining.Load() {
			w.Header().Set("Retry-After", strconv.Itoa(retrySeconds(s.cfg.RetryAfter)))
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	mux.HandleFunc("GET /statsz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /metricsz", s.handleMetrics)
	return mux
}

// clientID keys the rate limiter: an explicit X-Client-ID header when the
// caller provides one, else the connection's source address.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

func retrySeconds(d time.Duration) int {
	sec := int(math.Ceil(d.Seconds()))
	if sec < 1 {
		sec = 1
	}
	return sec
}

// timingWriter injects the trace's Server-Timing header just before the
// first byte of the response goes out — by then every layer span has
// closed (handlers do all their work before writing), so the header
// carries the request's own top-level breakdown. Only traced requests pay
// for the wrapper.
type timingWriter struct {
	http.ResponseWriter
	tr    *obs.Trace
	wrote bool
}

func (w *timingWriter) WriteHeader(code int) {
	if !w.wrote {
		w.wrote = true
		if st := w.tr.ServerTiming(); st != "" {
			w.ResponseWriter.Header().Set("Server-Timing", st)
		}
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *timingWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(b)
}

// forceTraceHeader lets any single request opt into tracing regardless of
// the sample rate (loadgen's -server-timing mode sets it on every
// request). The response then carries X-Trace-Id and Server-Timing.
const forceTraceHeader = "X-Server-Timing"

// admitted wraps a handler with the rate limiter (429) and the bounded
// admission queue (503): the two backpressure layers every verification
// endpoint sits behind. An admitted request holds its queue slot until the
// handler returns, so QueueDepth bounds queued-plus-executing requests and
// nothing ever waits unboundedly.
//
// The wrapper is also the observability root: it times the whole request
// into the endpoint's histogram, starts the per-request trace when
// sampling (or the force header) selects it, and records the ratelimit
// and admit layers. An unsampled request pays one atomic sequence
// increment and two clock reads — no allocations.
func (s *Service) admitted(endpoint string, next http.HandlerFunc) http.HandlerFunc {
	endpointHist := obs.Endpoint(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ctx, tr := s.tracer.Start(r.Context(), "request", r.Header.Get(forceTraceHeader) == "1")
		if tr != nil {
			w.Header().Set("X-Trace-Id", tr.ID())
			w = &timingWriter{ResponseWriter: w, tr: tr}
			r = r.WithContext(ctx)
			defer s.tracer.Finish(tr)
		}
		defer func() { endpointHist.Observe(time.Since(start)) }()

		s.stats.requests.Add(1)
		if s.draining.Load() {
			w.Header().Set("Retry-After", strconv.Itoa(retrySeconds(s.cfg.RetryAfter)))
			httpError(w, http.StatusServiceUnavailable, "draining")
			return
		}
		_, endRL := obs.StartSpan(ctx, "ratelimit")
		rlStart := time.Now()
		ok, wait := s.limiter.allow(clientID(r))
		ratelimitHist.Observe(time.Since(rlStart))
		endRL()
		if !ok {
			s.stats.rateLimited.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(retrySeconds(wait)))
			httpError(w, http.StatusTooManyRequests, "rate limit exceeded")
			return
		}
		_, endAdmit := obs.StartSpan(ctx, "admit")
		admitStart := time.Now()
		select {
		case s.admit <- struct{}{}:
			admitHist.Observe(time.Since(admitStart))
			endAdmit()
			defer func() { <-s.admit }()
		default:
			admitHist.Observe(time.Since(admitStart))
			endAdmit()
			s.stats.queueRejected.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(retrySeconds(s.cfg.RetryAfter)))
			httpError(w, http.StatusServiceUnavailable, "admission queue full")
			return
		}
		if s.cfg.RequestTimeout > 0 {
			tctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(tctx)
		}
		next(w, r)
	}
}

// apiError pairs a message with its HTTP status and an optional
// Retry-After hint (seconds; 0 = none). Every retryable rejection — 429,
// 503, 504 — carries the hint, so a well-behaved client never has to guess
// a backoff.
type apiError struct {
	status     int
	msg        string
	retryAfter int
}

func (e *apiError) Error() string { return e.msg }

// writeError renders an apiError, setting Retry-After when the error
// carries a hint.
func (s *Service) writeError(w http.ResponseWriter, aerr *apiError) {
	if aerr.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(aerr.retryAfter))
	}
	httpError(w, aerr.status, aerr.msg)
}

// classifyError maps a resolution failure to its API error. The taxonomy
// is the resilience stack's contract with clients:
//
//   - the request deadline expired → 504 + Retry-After (the work was cut
//     off, not wrong; a retry may hit a warm cache);
//   - a dependency is unavailable (model hard-down, circuit open) →
//     503 + Retry-After (callers with a stale verdict to fall back on
//     handle this case before classifying);
//   - a transient failure exhausted its retries → 503 + Retry-After, not
//     500: the next attempt is as likely as any to succeed, and under
//     injected fault rates a 500 here would make error budgets
//     probabilistic instead of contractual;
//   - anything else is a genuine server error → 500.
func (s *Service) classifyError(err error) *apiError {
	ra := retrySeconds(s.cfg.RetryAfter)
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.stats.deadlines.Add(1)
		return &apiError{status: http.StatusGatewayTimeout, retryAfter: ra,
			msg: "request deadline exceeded: " + err.Error()}
	case resilience.IsUnavailable(err):
		s.stats.unavailable.Add(1)
		return &apiError{status: http.StatusServiceUnavailable, retryAfter: ra,
			msg: "dependency unavailable: " + err.Error()}
	case resilience.IsTransient(err):
		return &apiError{status: http.StatusServiceUnavailable, retryAfter: ra,
			msg: "transient failure: " + err.Error()}
	}
	return &apiError{status: http.StatusInternalServerError, msg: err.Error()}
}

// parseTarget validates the request coordinates and resolves the fact.
func (s *Service) parseTarget(req VerifyRequest) (core.Cell, *dataset.Fact, int, *apiError) {
	dn := dataset.Name(req.Dataset)
	d, ok := s.bench.Datasets[dn]
	if !ok {
		return core.Cell{}, nil, 0, &apiError{status: http.StatusNotFound, msg: "unknown dataset " + req.Dataset}
	}
	method := llm.Method(req.Method)
	okMethod := false
	for _, m := range s.bench.Config.Methods {
		if m == method {
			okMethod = true
			break
		}
	}
	if !okMethod {
		return core.Cell{}, nil, 0, &apiError{status: http.StatusBadRequest, msg: "unknown method " + req.Method}
	}
	okModel := false
	for _, m := range s.bench.Config.Models {
		if m == req.Model {
			okModel = true
			break
		}
	}
	if !okModel {
		return core.Cell{}, nil, 0, &apiError{status: http.StatusNotFound, msg: "unknown model " + req.Model}
	}
	idx, ok := s.bench.FactIndex(dn)[req.FactID]
	if !ok {
		return core.Cell{}, nil, 0, &apiError{status: http.StatusNotFound,
			msg: fmt.Sprintf("unknown fact %s in dataset %s", req.FactID, req.Dataset)}
	}
	return core.Cell{Dataset: dn, Method: method, Model: req.Model}, d.Facts[idx], idx, nil
}

func verdictResponse(cell core.Cell, out strategy.Outcome, source string) *VerdictResponse {
	return &VerdictResponse{
		Dataset:          string(cell.Dataset),
		Method:           string(cell.Method),
		Model:            cell.Model,
		FactID:           out.FactID,
		Verdict:          out.Verdict.String(),
		Gold:             out.Gold,
		Correct:          out.Correct,
		LatencyMS:        float64(out.Latency) / float64(time.Millisecond),
		Attempts:         out.Attempts,
		PromptTokens:     out.PromptTokens,
		CompletionTokens: out.CompletionTokens,
		Explanation:      out.Explanation,
		Source:           source,
	}
}

// maxBodyBytes caps request bodies: the backpressure contract bounds
// memory end to end, so the decoder must not materialise an arbitrarily
// large body before validation runs. 1 MiB fits any legal batch with room
// to spare.
const maxBodyBytes = 1 << 20

// decodeBody decodes a JSON request body under maxBodyBytes, mapping an
// oversized body to 413 and malformed JSON to 400.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) *apiError {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return &apiError{status: http.StatusRequestEntityTooLarge,
				msg: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)}
		}
		return &apiError{status: http.StatusBadRequest, msg: "malformed request body: " + err.Error()}
	}
	return nil
}

func (s *Service) handleVerify(w http.ResponseWriter, r *http.Request) {
	var req VerifyRequest
	if aerr := decodeBody(w, r, &req); aerr != nil {
		httpError(w, aerr.status, aerr.msg)
		return
	}
	resp, aerr := s.resolveOne(r.Context(), req)
	if aerr != nil {
		s.writeError(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// resolveOne runs one VerifyRequest through validation and the verdict
// stack, mapping failures to API errors.
func (s *Service) resolveOne(ctx context.Context, req VerifyRequest) (*VerdictResponse, *apiError) {
	cell, f, idx, aerr := s.parseTarget(req)
	if aerr != nil {
		return nil, aerr
	}
	out, source, err := s.verdict(ctx, cell, f, idx)
	if err != nil {
		// Degraded serving: when the dependency is unavailable (not merely
		// slow or failing transiently), a stale verdict beats no verdict —
		// verdicts are deterministic per corpus epoch, so "stale" means "for
		// an earlier corpus", not "possibly wrong". The response is marked so
		// clients can tell.
		if resilience.IsUnavailable(err) {
			if stale, ok := s.cache.getStale(cell, f.ID); ok {
				s.stats.degraded.Add(1)
				resp := verdictResponse(cell, stale, "degraded")
				resp.Degraded = true
				return resp, nil
			}
		}
		return nil, s.classifyError(err)
	}
	return verdictResponse(cell, out, source), nil
}

func (s *Service) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if aerr := decodeBody(w, r, &req); aerr != nil {
		httpError(w, aerr.status, aerr.msg)
		return
	}
	if len(req.Requests) == 0 {
		httpError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(req.Requests) > s.cfg.MaxBatch {
		httpError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d exceeds limit %d", len(req.Requests), s.cfg.MaxBatch))
		return
	}
	// The admission middleware charged one token; a batch is one request
	// but len verifications, so charge the remainder — otherwise batching
	// would multiply a client's effective rate by MaxBatch.
	if extra := len(req.Requests) - 1; extra > 0 {
		if float64(len(req.Requests)) > s.cfg.Burst {
			httpError(w, http.StatusBadRequest,
				fmt.Sprintf("batch of %d exceeds the per-client burst capacity %g", len(req.Requests), s.cfg.Burst))
			return
		}
		if ok, wait := s.limiter.allowN(clientID(r), float64(extra)); !ok {
			s.stats.rateLimited.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(retrySeconds(wait)))
			httpError(w, http.StatusTooManyRequests, "rate limit exceeded")
			return
		}
	}
	// Items fan out concurrently — the executor already caps how many
	// verifications actually run at once, so a cold batch costs ~(k /
	// workers) verification latencies instead of k serial ones. Writes
	// are index-addressed, so result order mirrors request order.
	resp := BatchResponse{Results: make([]BatchItem, len(req.Requests))}
	var wg sync.WaitGroup
	for i, item := range req.Requests {
		wg.Add(1)
		go func(i int, item VerifyRequest) {
			defer wg.Done()
			v, aerr := s.resolveOne(r.Context(), item)
			if aerr != nil {
				resp.Results[i] = BatchItem{Error: aerr.msg}
				return
			}
			resp.Results[i] = BatchItem{Verdict: v}
		}(i, item)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, resp)
}

// IngestRequest appends live documents to their facts' retrieval pools.
type IngestRequest struct {
	Documents []search.IngestDoc `json:"documents"`
}

// IngestResponse acknowledges an admitted ingestion batch. Folding is
// asynchronous: the batch is queued for the background builder, which
// publishes one fresh epoch snapshot covering it; /statsz exposes applied
// counters and the engine's epoch.
type IngestResponse struct {
	Queued int `json:"queued"`
}

// handleIngest admits one document batch into the background builder's
// queue. The write path shares the read path's backpressure contract:
// rate limiting (429) and admission (503) via the middleware, 413 on
// oversized bodies, plus a bounded builder queue (503 + Retry-After when
// full). Unknown facts are rejected whole-batch with 404 before anything
// is queued, so an acknowledged batch always folds.
func (s *Service) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req IngestRequest
	if aerr := decodeBody(w, r, &req); aerr != nil {
		httpError(w, aerr.status, aerr.msg)
		return
	}
	if len(req.Documents) == 0 {
		httpError(w, http.StatusBadRequest, "empty document batch")
		return
	}
	if len(req.Documents) > s.cfg.MaxBatch {
		httpError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d documents exceeds limit %d", len(req.Documents), s.cfg.MaxBatch))
		return
	}
	for _, d := range req.Documents {
		if _, ok := s.bench.FactByID(d.FactID); !ok {
			httpError(w, http.StatusNotFound, "unknown fact "+d.FactID)
			return
		}
	}
	select {
	case s.ingestCh <- req.Documents:
		s.stats.mu.RLock()
		s.stats.ingestBatches.Add(1)
		s.stats.ingestDocs.Add(uint64(len(req.Documents)))
		s.stats.mu.RUnlock()
		writeJSON(w, http.StatusAccepted, IngestResponse{Queued: len(req.Documents)})
	default:
		s.stats.ingestRejected.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(retrySeconds(s.cfg.RetryAfter)))
		httpError(w, http.StatusServiceUnavailable, "ingest queue full")
	}
}

// handleVerdict is the read-only lookup: it answers from the LRU or a
// store snapshot and never verifies — a miss is 404 (POST /v1/verify to
// compute).
func (s *Service) handleVerdict(w http.ResponseWriter, r *http.Request) {
	req := VerifyRequest{
		Dataset: r.PathValue("dataset"),
		Method:  r.PathValue("method"),
		Model:   r.PathValue("model"),
		FactID:  r.PathValue("fact"),
	}
	cell, f, idx, aerr := s.parseTarget(req)
	if aerr != nil {
		httpError(w, aerr.status, aerr.msg)
		return
	}
	view := s.bench.Engine.EpochView()
	key := verdictKey{cell: cell, factID: f.ID, epoch: view.FactEpoch(f.ID)}
	if out, ok := s.cache.get(key); ok {
		s.stats.lruHits.Add(1)
		writeJSON(w, http.StatusOK, verdictResponse(cell, out, "lru"))
		return
	}
	if outs, ok := s.store.Get(s.bench.CellKeyAt(cell, view.CorpusDigest(cell.Dataset)).Fingerprint()); ok && idx < len(outs) {
		s.stats.storeHits.Add(1)
		s.hydrateCell(cell, outs, view)
		writeJSON(w, http.StatusOK, verdictResponse(cell, outs[idx], "store"))
		return
	}
	httpError(w, http.StatusNotFound, "verdict not computed; POST /v1/verify to compute it")
}

// handleConsensus answers the DKA majority vote of the open-source models
// (the paper's §3.3 consensus without arbitration; ties are reported).
// ?mode=serial|eager|adaptive overrides the configured execution strategy.
func (s *Service) handleConsensus(w http.ResponseWriter, r *http.Request) {
	mode := s.cfg.ConsensusMode
	if q := r.URL.Query().Get("mode"); q != "" {
		m, err := consensus.ParseMode(q)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		mode = m
	}
	// A voterless service can never answer: reject before any token beyond
	// the admission charge is debited, so a misconfigured server does not
	// bill clients for work it will never run.
	if len(s.voters) == 0 {
		httpError(w, http.StatusUnprocessableEntity, "no open-source models configured for consensus")
		return
	}
	// One consensus answer is up to len(voters) verifications; the
	// middleware charged one token, charge the remainder up front. The
	// charge is plan-independent — adaptive pays for skipped votes too —
	// so a client's throttling never depends on how facts happened to
	// vote. A burst smaller than the voter count could never be satisfied:
	// surface the misconfiguration instead of an eternal 429.
	if float64(len(s.voters)) > s.cfg.Burst {
		httpError(w, http.StatusBadRequest,
			fmt.Sprintf("consensus requires %d verifications, exceeding the per-client burst capacity %g",
				len(s.voters), s.cfg.Burst))
		return
	}
	if extra := len(s.voters) - 1; extra > 0 {
		if ok, wait := s.limiter.allowN(clientID(r), float64(extra)); !ok {
			s.stats.rateLimited.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(retrySeconds(wait)))
			httpError(w, http.StatusTooManyRequests, "rate limit exceeded")
			return
		}
	}
	resp, err := s.Consensus(r.Context(), r.PathValue("fact"), mode)
	if err != nil {
		var aerr *apiError
		if errors.As(err, &aerr) {
			s.writeError(w, aerr)
			return
		}
		s.writeError(w, s.classifyError(err))
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// Consensus decides one fact through the §3.3 consensus engine under the
// given mode. Per-voter votes resolve through the same verdict stack as
// /v1/verify (LRU, singleflight, store snapshots, executor-bounded
// verification) and fan out concurrently within each tier, so concurrent
// consensus requests for one fact coalesce per (cell, fact) vote. Rate
// limiting and admission are the HTTP handler's business, not this
// method's.
func (s *Service) Consensus(ctx context.Context, factID string, mode consensus.Mode) (*ConsensusResponse, error) {
	f, ok := s.bench.FactByID(factID)
	if !ok {
		return nil, &apiError{status: http.StatusNotFound, msg: "unknown fact " + factID}
	}
	idx, ok := s.bench.FactIndex(f.Dataset)[factID]
	if !ok {
		return nil, &apiError{status: http.StatusNotFound, msg: "unknown fact " + factID}
	}
	eng := &consensus.Engine{Plan: s.plan, Mode: mode, AllowTie: true, Degrade: true}
	fetch := func(ctx context.Context, model string) (strategy.Outcome, error) {
		cell := core.Cell{Dataset: f.Dataset, Method: llm.MethodDKA, Model: model}
		out, _, err := s.verdict(ctx, cell, f, idx)
		return out, err
	}
	dec, st, err := eng.Decide(ctx, f, fetch)
	if err != nil {
		return nil, err
	}
	// Grouped under the stats lock (shared): a /statsz scrape sees this
	// request's five counters land together or not at all.
	s.stats.mu.RLock()
	s.stats.consensusRequests.Add(1)
	s.stats.consensusDispatched.Add(uint64(st.Dispatched))
	s.stats.consensusSkipped.Add(uint64(st.Skipped))
	s.stats.consensusEscalations.Add(uint64(st.Escalations))
	s.stats.consensusArbiters.Add(uint64(st.ArbiterCalls))
	if len(dec.Unavailable) > 0 {
		s.stats.consensusDegraded.Add(1)
	}
	s.stats.mu.RUnlock()
	resp := &ConsensusResponse{
		FactID:      factID,
		Dataset:     string(f.Dataset),
		Method:      string(llm.MethodDKA),
		Final:       dec.Final,
		Tie:         dec.Tie,
		Gold:        f.Gold,
		Mode:        string(mode),
		Skipped:     dec.Skipped,
		Unavailable: dec.Unavailable,
		Degraded:    len(dec.Unavailable) > 0,
		LatencyMS:   dec.LatencySeconds * 1000,
	}
	for _, v := range dec.Votes {
		resp.Votes = append(resp.Votes, VoteItem{Model: v.Model, Verdict: v.Verdict.String()})
	}
	return resp, nil
}

func (s *Service) handleFacts(w http.ResponseWriter, _ *http.Request) {
	byDataset := map[string][]string{}
	for _, dn := range s.bench.Config.Datasets {
		d := s.bench.Datasets[dn]
		ids := make([]string, len(d.Facts))
		for i, f := range d.Facts {
			ids[i] = f.ID
		}
		byDataset[string(dn)] = ids
	}
	writeJSON(w, http.StatusOK, map[string]any{"datasets": byDataset})
}

// handleTrace serves one retained trace's spans by ID (the X-Trace-Id a
// sampled response carried). Traces age out of the bounded ring.
func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	out, ok := s.tracer.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "trace not found (unsampled, or evicted from the ring)")
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// handleMetrics renders every /statsz counter plus the layer and endpoint
// latency histograms in Prometheus text format. Counters follow the
// factcheck_<name>_total convention; point-in-time values (cache sizes,
// queue depth, corpus epoch) are gauges; the latency families are
// factcheck_{layer,endpoint}_latency_seconds with power-of-two buckets.
func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := s.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := obs.NewPromWriter(w)
	p.Info("factcheck_build_info", "Build identity of the serving process.",
		"go_version", runtime.Version(), "consensus_mode", string(s.cfg.ConsensusMode))

	p.Counter("factcheck_requests_total", "Requests reaching the admission middleware.", st.Requests)
	p.Counter("factcheck_rate_limited_total", "Requests rejected by the per-client token bucket (429).", st.RateLimited)
	p.Counter("factcheck_queue_rejected_total", "Requests rejected by the full admission queue (503).", st.QueueRejected)
	p.Counter("factcheck_lru_hits_total", "Verdicts answered by the in-memory LRU.", st.LRUHits)
	p.Counter("factcheck_store_hits_total", "Verdicts answered by a result-store snapshot.", st.StoreHits)
	p.Counter("factcheck_computed_total", "Verdicts computed by fresh verification.", st.Computed)
	p.Counter("factcheck_coalesced_total", "Requests that joined an in-flight identical resolution.", st.Coalesced)
	p.Counter("factcheck_cell_fills_total", "Background whole-cell fills persisted.", st.CellFills)

	p.Counter("factcheck_ingest_batches_total", "Document batches accepted (202).", st.IngestBatches)
	p.Counter("factcheck_ingest_docs_total", "Documents accepted for ingestion.", st.IngestDocs)
	p.Counter("factcheck_ingest_docs_applied_total", "Documents folded into published epoch snapshots.", st.IngestApplied)
	p.Counter("factcheck_ingest_rejected_total", "Batches rejected because the ingest queue was full (503).", st.IngestRejected)
	p.Counter("factcheck_ingest_swept_total", "Stale verdict-LRU entries reclaimed after epoch bumps.", st.IngestSwept)

	p.Counter("factcheck_consensus_requests_total", "Consensus decisions served.", st.ConsensusRequests)
	p.Counter("factcheck_consensus_votes_dispatched_total", "Voter verifications the consensus planner dispatched.", st.ConsensusDispatched)
	p.Counter("factcheck_consensus_votes_skipped_total", "Voter verifications the early-stop planner proved unnecessary.", st.ConsensusSkipped)
	p.Counter("factcheck_consensus_escalations_total", "Consensus tiers dispatched beyond the cheap quorum.", st.ConsensusEscalations)
	p.Counter("factcheck_consensus_arbiter_calls_total", "Arbiter tie-breaks.", st.ConsensusArbiters)
	p.Counter("factcheck_consensus_degraded_total", "Consensus decisions settled over a partial ensemble.", st.ConsensusDegraded)

	p.Counter("factcheck_degraded_served_total", "Stale verdicts served because fresh resolution was unavailable.", st.Degraded)
	p.Counter("factcheck_unavailable_total", "Verdicts refused 503: dependency unavailable, no stale copy.", st.Unavailable)
	p.Counter("factcheck_deadline_timeouts_total", "Requests cut off by the per-request deadline (504).", st.Deadlines)
	p.Counter("factcheck_ingest_retries_total", "Transiently-failed ingest folds retried by the background builder.", st.IngestRetries)
	p.Counter("factcheck_ingest_dropped_total", "Ingest batches dropped after the redelivery budget.", st.IngestDropped)
	p.Counter("factcheck_retries_total", "Model-call retry attempts after transient failures.", st.Resilience.Retries)
	p.Counter("factcheck_retry_recovered_total", "Model calls that succeeded on a retry attempt.", st.Resilience.Recovered)
	p.Counter("factcheck_retry_exhausted_total", "Model calls that failed every retry attempt.", st.Resilience.Exhausted)

	// Per-model circuit-breaker families, sorted by model for deterministic
	// exposition. State encodes closed=0, open=1, half-open=2.
	if n := len(st.Resilience.Breakers); n > 0 {
		models := make([]string, 0, n)
		for m := range st.Resilience.Breakers {
			models = append(models, m)
		}
		sort.Strings(models)
		vec := func(f func(resilience.BreakerStats) float64) []obs.Labeled {
			vals := make([]obs.Labeled, len(models))
			for i, m := range models {
				vals[i] = obs.Labeled{Label: m, Value: f(st.Resilience.Breakers[m])}
			}
			return vals
		}
		p.GaugeVec("factcheck_breaker_state", "Circuit state per model: 0 closed, 1 open, 2 half-open.", "model",
			vec(func(b resilience.BreakerStats) float64 { return float64(breakerStateNum(b.State)) }))
		p.CounterVec("factcheck_breaker_opens_total", "Closed/half-open to open transitions per model.", "model",
			vec(func(b resilience.BreakerStats) float64 { return float64(b.Opens) }))
		p.CounterVec("factcheck_breaker_half_opens_total", "Open to half-open transitions per model.", "model",
			vec(func(b resilience.BreakerStats) float64 { return float64(b.HalfOpens) }))
		p.CounterVec("factcheck_breaker_closes_total", "Half-open to closed transitions per model.", "model",
			vec(func(b resilience.BreakerStats) float64 { return float64(b.Closes) }))
		p.CounterVec("factcheck_breaker_rejected_total", "Calls rejected by an open breaker per model.", "model",
			vec(func(b resilience.BreakerStats) float64 { return float64(b.Rejected) }))
		p.CounterVec("factcheck_breaker_probes_total", "Half-open probe calls admitted per model.", "model",
			vec(func(b resilience.BreakerStats) float64 { return float64(b.Probes) }))
	}

	p.Gauge("factcheck_cache_len", "Verdict LRU entries.", float64(st.CacheLen))
	p.Gauge("factcheck_cache_capacity", "Verdict LRU capacity.", float64(st.CacheCapacity))
	p.Gauge("factcheck_queue_depth", "Admission queue slots in use.", float64(st.QueueDepth))
	p.Gauge("factcheck_queue_cap", "Admission queue capacity.", float64(st.QueueCap))
	p.Gauge("factcheck_store_cells", "Result-store cell snapshots.", float64(st.StoreCells))
	p.Gauge("factcheck_clients", "Rate-limiter client buckets alive.", float64(st.Clients))

	r := st.Retrieval
	p.Gauge("factcheck_retrieval_facts", "Facts known to the search engine.", float64(r.Facts))
	p.Gauge("factcheck_retrieval_cached_facts", "Facts with materialised index shards.", float64(r.CachedFacts))
	p.Gauge("factcheck_retrieval_indexed_docs", "Documents in materialised shards.", float64(r.IndexedDocs))
	p.Gauge("factcheck_retrieval_postings", "Postings in materialised shards.", float64(r.Postings))
	p.Counter("factcheck_retrieval_hits_total", "Search-engine shard cache hits.", uint64(r.Hits))
	p.Counter("factcheck_retrieval_misses_total", "Search-engine shard cache misses.", uint64(r.Misses))
	p.Counter("factcheck_retrieval_evicted_total", "Shards evicted from the search-engine cache.", uint64(r.Evicted))
	p.Gauge("factcheck_retrieval_epoch", "Corpus snapshot publication sequence number.", float64(r.Epoch))
	p.Gauge("factcheck_retrieval_ingested_docs", "Live-ingested documents across all facts.", float64(r.IngestedDocs))
	p.Counter("factcheck_retrieval_search_queries_total", "Search calls served by the pruned top-k path.", uint64(r.SearchQueries))
	p.Counter("factcheck_retrieval_postings_touched_total", "Postings read by the pruned top-k path.", uint64(r.PostingsTouched))
	p.Counter("factcheck_retrieval_blocks_skipped_total", "Posting blocks skipped by max-score pruning.", uint64(r.BlocksSkipped))
	p.Counter("factcheck_retrieval_docs_scored_total", "Documents fully scored by the pruned top-k path.", uint64(r.DocsScored))

	obs.Default.WriteProm(p)
}

// breakerStateNum maps a breaker state name to its gauge encoding.
func breakerStateNum(state string) int {
	switch state {
	case resilience.Open.String():
		return 1
	case resilience.HalfOpen.String():
		return 2
	}
	return 0
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
