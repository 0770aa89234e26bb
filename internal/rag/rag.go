// Package rag implements the paper's four-phase retrieval pipeline (§3.2):
// (1) triple transformation, (2) question generation and ranking, (3)
// document retrieval and filtering, and (4) document processing and
// chunking. The pipeline is backed by any search.Searcher (the in-process
// engine or the HTTP mock API) and mirrors the configuration of the paper's
// Table 4.
package rag

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"factcheck/internal/chunk"
	"factcheck/internal/dataset"
	"factcheck/internal/det"
	"factcheck/internal/llm"
	"factcheck/internal/obs"
	"factcheck/internal/question"
	"factcheck/internal/rerank"
	"factcheck/internal/search"
	"factcheck/internal/text"
	"factcheck/internal/verbalize"
)

// Phase latency histograms, resolved once so the retrieval path records
// with a single atomic add. These measure real wall-clock work (the
// simulated Evidence.Latency is separate and untouched).
var (
	questionsHist = obs.Layer("rag_questions")
	searchHist    = obs.Layer("rag_search")
	rerankHist    = obs.Layer("rag_rerank")
	chunkHist     = obs.Layer("rag_chunk")
)

// phaseSpan opens a trace span and times the phase into its histogram.
func phaseSpan(ctx context.Context, name string, h *obs.Histogram) func() {
	_, end := obs.StartSpan(ctx, name)
	start := time.Now()
	return func() {
		h.Observe(time.Since(start))
		end()
	}
}

// Config mirrors the paper's Table 4 RAG parameters.
type Config struct {
	// NumQuestions generated per fact (k_q).
	NumQuestions int
	// Tau is the question relevance threshold (τ = 0.5).
	Tau float64
	// SelectedQuestions is the number of top questions issued as queries
	// (paper: 3, plus the transformed triple itself).
	SelectedQuestions int
	// SERPSize is results per query (n_max = 100).
	SERPSize int
	// SelectedDocs is k_d, the documents kept after reranking (10).
	SelectedDocs int
	// Window is the sliding-window chunk size in sentences (3).
	Window int
	// MaxChunks caps the chunks passed to the model prompt.
	MaxChunks int
	// CandidateCap bounds how many unique documents are fetched and
	// reranked per fact, keeping full-benchmark runs tractable.
	CandidateCap int
	// FilterSKG enables dropping documents from the KG's own source pages
	// (circular-verification filter). On by default; the ablation bench
	// turns it off.
	FilterSKG bool
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{
		NumQuestions:      question.DefaultK,
		Tau:               0.5,
		SelectedQuestions: 3,
		SERPSize:          search.DefaultSERPSize,
		SelectedDocs:      10,
		Window:            chunk.DefaultWindow,
		MaxChunks:         20,
		CandidateCap:      120,
		FilterSKG:         true,
	}
}

// Pipeline executes retrieval for facts. Retrieval is model-independent and
// deterministic, so results are cached per fact: when several models verify
// the same fact (Table 5's five columns, consensus ensembles) the pipeline
// retrieves once. The cache is sharded by fact ID and deduplicates
// concurrent retrievals (singleflight). It holds two kinds of entry:
//
//   - pinned: evidence that Warm created or touched stays until Invalidate
//     or ClearCache drops it. The whole-grid scheduler warms a fact,
//     verifies it with every pending model and then releases it with
//     Invalidate, keeping only facts that consensus will verify again.
//   - bounded: evidence that only Retrieve asked for (the daemon's
//     per-request verifications and fact pages) is capped at
//     search.MaxCachedFacts entries in total, the engine's own pool budget,
//     and the oldest is evicted first.
//
// Any later caller of a dropped or evicted fact simply retrieves again,
// with identical evidence.
type Pipeline struct {
	Searcher search.Searcher
	Config   Config

	cache evidenceCache
}

// Stats counts the evidence cache's entries.
type Stats struct {
	// Cached is the facts the cache holds an entry for, retrievals in
	// flight included.
	Cached int `json:"cached"`
	// Pinned is the part of Cached that only Invalidate or ClearCache
	// drops.
	Pinned int `json:"pinned"`
	// Bounded is the part of Cached that is completed and unpinned, at
	// most search.MaxCachedFacts. The rest of Cached is unpinned
	// retrievals in flight, one per concurrent retrieving caller at most.
	Bounded int `json:"bounded"`
	// Evicted counts bounded entries dropped to make room for newer ones.
	Evicted uint64 `json:"evicted"`
}

// evidenceShards is the shard count of the evidence cache. Sharding keeps
// lock hold times per shard short under concurrent grid workers; the count
// comfortably exceeds any realistic worker parallelism.
const evidenceShards = 32

// evidenceShardCap is the completed unpinned entries one shard holds, so
// that the whole cache holds at most search.MaxCachedFacts of them.
const evidenceShardCap = search.MaxCachedFacts / evidenceShards

// evidenceCache is a sharded fact-ID-keyed cache with singleflight
// semantics: the first caller for a fact owns the retrieval, concurrent
// callers block on the entry's done channel and share the result.
type evidenceCache struct {
	shards [evidenceShards]evidenceShard
}

// evidenceShard is one shard's entries. An entry is in flight until its
// owner completes it; a completed entry is pinned or sits in fifo, which
// evicts its oldest entry when a completion would overfill it. In-flight
// entries are never in fifo, so eviction never breaks singleflight.
type evidenceShard struct {
	mu      sync.Mutex
	entries map[string]*evidenceEntry
	fifo    [evidenceShardCap]*evidenceEntry // oldest first
	queued  int                              // entries in fifo
	pinned  int                              // pinned entries, in flight or not
	evicted uint64
}

// evidenceEntry is one in-flight or completed retrieval. ev and err are
// written once by the owner before done is closed; waiters read them only
// after <-done. pinned and queued are guarded by the shard's mutex.
type evidenceEntry struct {
	id     string
	done   chan struct{}
	ev     *Evidence
	err    error
	pinned bool
	queued bool
}

// shard maps a fact ID to its cache shard.
func (c *evidenceCache) shard(id string) *evidenceShard {
	return &c.shards[det.Hash64("rag-shard", id)%evidenceShards]
}

// get returns the fact's evidence, calling retrieve when no entry holds
// it. pin makes the entry pinned, whether this call creates it or finds
// it. A failed retrieval is not cached, so a later call retries.
func (c *evidenceCache) get(ctx context.Context, id string, pin bool, retrieve func() (*Evidence, error)) (*Evidence, error) {
	s := c.shard(id)
	s.mu.Lock()
	e, ok := s.entries[id]
	if !ok {
		e = &evidenceEntry{id: id, done: make(chan struct{})}
		if s.entries == nil {
			s.entries = map[string]*evidenceEntry{}
		}
		s.entries[id] = e
	}
	if pin && !e.pinned {
		e.pinned = true
		s.pinned++
		s.unqueue(e)
	}
	s.mu.Unlock()
	if ok {
		select {
		case <-e.done:
		default:
			// Retrieval in flight elsewhere: this caller is a follower.
			_, end := obs.StartSpan(ctx, "rag_wait")
			<-e.done
			end()
		}
		return e.ev, e.err
	}
	e.ev, e.err = retrieve()
	s.mu.Lock()
	// An entry that Invalidate or ClearCache dropped in flight is left
	// unreachable; its waiters still share the result.
	if s.entries[id] == e {
		switch {
		case e.err != nil:
			s.drop(e)
		case !e.pinned:
			s.enqueue(e)
		}
	}
	s.mu.Unlock()
	close(e.done)
	return e.ev, e.err
}

// enqueue appends a completed unpinned entry to fifo, first evicting the
// oldest entry when fifo is full.
func (s *evidenceShard) enqueue(e *evidenceEntry) {
	if s.queued == len(s.fifo) {
		old := s.fifo[0]
		s.unqueue(old)
		delete(s.entries, old.id)
		s.evicted++
	}
	s.fifo[s.queued] = e
	s.queued++
	e.queued = true
}

// unqueue removes e from fifo if it is there, keeping the others' order.
func (s *evidenceShard) unqueue(e *evidenceEntry) {
	if !e.queued {
		return
	}
	i := 0
	for s.fifo[i] != e {
		i++
	}
	copy(s.fifo[i:], s.fifo[i+1:s.queued])
	s.queued--
	s.fifo[s.queued] = nil
	e.queued = false
}

// drop removes e from the shard's entries and accounting.
func (s *evidenceShard) drop(e *evidenceEntry) {
	delete(s.entries, e.id)
	s.unqueue(e)
	if e.pinned {
		s.pinned--
	}
}

// invalidate drops one fact's entry, pinned or not. An in-flight retrieval
// keeps its (now unreachable) entry and completes harmlessly: only callers
// already waiting on it observe the pre-invalidation evidence.
func (c *evidenceCache) invalidate(factID string) {
	s := c.shard(factID)
	s.mu.Lock()
	if e, ok := s.entries[factID]; ok {
		s.drop(e)
	}
	s.mu.Unlock()
}

// clear drops every shard's entries. In-flight retrievals keep their
// (now unreachable) entry and complete harmlessly.
func (c *evidenceCache) clear() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.entries = nil
		s.fifo = [evidenceShardCap]*evidenceEntry{}
		s.queued, s.pinned = 0, 0
		s.mu.Unlock()
	}
}

// stats sums the shards' counts.
func (c *evidenceCache) stats() Stats {
	var st Stats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Cached += len(s.entries)
		st.Pinned += s.pinned
		st.Bounded += s.queued
		st.Evicted += s.evicted
		s.mu.Unlock()
	}
	return st
}

// The paper's two rerankers (Table 4): questions are ranked against the
// sentence with one, documents with the other.
var (
	questionRanker = rerank.NewQuestionRanker()
	docRanker      = rerank.NewDocumentRanker()
)

// New builds a pipeline with the paper's default configuration.
func New(s search.Searcher) *Pipeline {
	return &Pipeline{Searcher: s, Config: DefaultConfig()}
}

// Evidence is the retrieval result for one fact.
type Evidence struct {
	// Sentence is the verbalised fact (phase 1 output).
	Sentence string
	// Questions are the scored generated questions (phase 2 output).
	Questions []question.Question
	// Queries are the issued search queries (sentence + top questions).
	Queries []string
	// Docs are the k_d selected documents after filtering and reranking.
	Docs []search.DocPayload
	// Chunks are the context passages handed to the model.
	Chunks []chunk.Chunk
	// FilteredSKG counts documents dropped by the source filter.
	FilteredSKG int
	// Candidates counts the unique retrieved documents before selection.
	Candidates int
	// Latency is the simulated wall-clock cost of retrieval: SERP calls,
	// document fetches and cross-encoder scoring.
	Latency time.Duration

	// texts and passages are the chunks' contents, as strings and as one
	// counted llm.Passages part, built once when the retrieval completes
	// and shared by every model that verifies the fact.
	texts    []string
	passages llm.Part
}

// ChunkTexts returns the chunk contents in order. The slice is shared by
// every caller and must not be modified.
func (e *Evidence) ChunkTexts() []string { return e.texts }

// Passages returns the chunks as the counted context part of a RAG prompt.
func (e *Evidence) Passages() llm.Part { return e.passages }

// Retrieve runs the four phases for the fact, consulting the cache first.
// Concurrent calls for the same fact coalesce into a single retrieval: the
// first caller computes, the rest block and share the result.
func (p *Pipeline) Retrieve(f *dataset.Fact) (*Evidence, error) {
	return p.RetrieveCtx(context.Background(), f)
}

// RetrieveCtx is Retrieve with trace propagation: when ctx carries a
// sampled request trace, the singleflight leader records one span per
// retrieval phase and a coalesced follower records its wait. The context
// never cancels a retrieval — evidence is shared across callers, so the
// owner always runs to completion. Evidence it creates is bounded: it
// stays cached until newer bounded evidence evicts it, unless Warm pins it
// first.
func (p *Pipeline) RetrieveCtx(ctx context.Context, f *dataset.Fact) (*Evidence, error) {
	return p.cache.get(ctx, f.ID, false, func() (*Evidence, error) { return p.retrieve(ctx, f) })
}

// Warm ensures the fact's evidence is cached and pins it, sharing the same
// singleflight path as Retrieve: the evidence stays until Invalidate or
// ClearCache drops it. It is the prefetch entry point the grid scheduler
// uses to retrieve once per fact before fanning models out. Warming builds
// the fact's index shard as a side effect (the engine materialises pool +
// posting lists on first query).
func (p *Pipeline) Warm(f *dataset.Fact) error {
	ctx := context.Background()
	_, err := p.cache.get(ctx, f.ID, true, func() (*Evidence, error) { return p.retrieve(ctx, f) })
	return err
}

// ClearCache drops all cached evidence (call after changing Config).
func (p *Pipeline) ClearCache() {
	p.cache.clear()
}

// Invalidate drops the fact's cached evidence, pinned or not: after a
// corpus epoch bump, so the next retrieval for the fact recomputes over
// the new corpus, and when the grid scheduler releases a fact its models
// have verified. Every other fact keeps its warm evidence.
func (p *Pipeline) Invalidate(factID string) {
	p.cache.invalidate(factID)
}

// Stats snapshots the evidence cache's counts.
func (p *Pipeline) Stats() Stats {
	return p.cache.stats()
}

// retrieve runs phases 1–4. The sentence is embedded once; questions are
// ranked against it in one call, and one batch scorer ranks documents
// against it on either path. The by-reference path is the production one:
// when the searcher hands out pool snapshots (search.PoolSearcher, the
// in-process engine), phases 3–4 rank and read rows of one pinned snapshot
// in place (retrieveRows), and only the k_d kept documents become
// wire-form payloads. Every other searcher — the HTTP client, wrappers that
// hide PoolSearcher — takes the wire path (retrieveWire) over SERP items
// and fetched documents. Both paths produce byte-identical Evidence —
// tested, since result-store fingerprints and served verdicts flow from it.
func (p *Pipeline) retrieve(ctx context.Context, f *dataset.Fact) (*Evidence, error) {
	cfg := p.Config
	ev := &Evidence{}

	// Phase 1: triple transformation.
	ev.Sentence = verbalize.Sentence(f)
	sentVec := text.SparseEmbed(ev.Sentence)

	// Phase 2: question generation and ranking.
	endQuestions := phaseSpan(ctx, "rag_questions", questionsHist)
	qs := question.Generate(f, cfg.NumQuestions)
	texts := make([]string, len(qs))
	for i := range qs {
		texts[i] = qs[i].Text
	}
	ranked := questionRanker.Rank(sentVec, ev.Sentence, texts)
	for _, r := range ranked {
		qs[r.Index].Score = r.Score
	}
	ev.Questions = qs
	kept := rerank.FilterThreshold(ranked, cfg.Tau)
	if len(kept) > cfg.SelectedQuestions {
		kept = kept[:cfg.SelectedQuestions]
	}
	ev.Queries = append(ev.Queries, ev.Sentence)
	for _, r := range kept {
		ev.Queries = append(ev.Queries, texts[r.Index])
	}
	endQuestions()

	score := docRanker.ScoreBatch(sentVec, ev.Sentence)
	var err error
	if ps, ok := p.Searcher.(search.PoolSearcher); ok {
		err = p.retrieveRows(ctx, f, ev, ps, score)
	} else {
		err = p.retrieveWire(ctx, f, ev, score)
	}
	if err != nil {
		return nil, err
	}
	ev.Latency = p.retrievalLatency(f, len(ev.Queries), ev.Candidates)
	ev.texts = make([]string, len(ev.Chunks))
	for i, c := range ev.Chunks {
		ev.texts[i] = c.Text
	}
	ev.passages = llm.Passages(ev.texts)
	return ev, nil
}

// rowScratch is one by-reference retrieval's scratch: the seen-row
// bitset, one query's hits, the candidate rows, the scored candidates
// and the per-variant scores. Nothing in it outlives the retrieval, so
// retrievals reuse it through rowScratchPool.
type rowScratch struct {
	seen      []uint64
	hits      []search.Hit
	rows      []int
	scored    []search.Hit
	byVariant []float64
}

// rowScratchPool holds rowScratch values between retrievals. It is
// package level, so a pooled value keeps no pipeline reachable.
var rowScratchPool = sync.Pool{New: func() any { return new(rowScratch) }}

// retrieveRows runs phases 3–4 by reference. Every query runs against one
// snapshot of the fact's pool, taken once, so the evidence is a function
// of a single corpus epoch even while ingestion lands. Candidates are
// pool rows, deduplicated in a bitset; the S_KG filter, the usability
// check, scoring and the (score desc, doc ID asc) order all read rows in
// place, and payloads and chunks are built only for the rows kept.
//
// A query's hits come as a set (search.Pool.Search), and almost nothing
// reads their order: the rows a query sees first, the S_KG count and the
// candidate count are set functions, and the rerank's order is total.
// Only the query whose new candidates cross CandidateCap ranks its best
// rows, so that the cap keeps them, as it would cut a ranked SERP.
func (p *Pipeline) retrieveRows(ctx context.Context, f *dataset.Fact, ev *Evidence, ps search.PoolSearcher, score func(cand text.SparseVector, candText string) float64) error {
	cfg := p.Config

	// Phase 3: document retrieval and filtering.
	endSearch := phaseSpan(ctx, "rag_search", searchHist)
	pool, err := ps.Pool(f.ID)
	if err != nil {
		return fmt.Errorf("rag: search %q: %w", ev.Queries[0], err)
	}
	sc := rowScratchPool.Get().(*rowScratch)
	defer rowScratchPool.Put(sc)
	words := (pool.Len() + 63) / 64
	seen := slices.Grow(sc.seen[:0], words)[:words]
	clear(seen)
	rows := sc.rows[:0]
	for _, q := range ev.Queries {
		hits := pool.Search(q, cfg.SERPSize, sc.hits[:0])
		sc.hits = hits
		// fresh keeps, in place, the hits no earlier query returned and
		// the S_KG filter passes.
		fresh := hits[:0]
		for _, h := range hits {
			w, bit := h.Row/64, uint64(1)<<(h.Row%64)
			if seen[w]&bit != 0 {
				continue
			}
			seen[w] |= bit
			if cfg.FilterSKG && isSKGSource(pool.Host(h.Row)) {
				ev.FilteredSKG++
				continue
			}
			fresh = append(fresh, h)
		}
		ev.Candidates += len(fresh)
		room := cfg.CandidateCap - len(rows)
		if room <= 0 {
			continue
		}
		if len(fresh) > room {
			fresh = pool.RankTop(fresh, room)
		}
		for _, h := range fresh {
			rows = append(rows, h.Row)
		}
	}
	sc.seen, sc.rows = seen, rows
	endSearch()

	// Phase 4a: rerank the usable candidates against the sentence from
	// their precomputed vectors. A score is a function of the candidate's
	// vector and text alone, so rows sharing a variant share one score.
	endRerank := phaseSpan(ctx, "rag_rerank", rerankHist)
	scored := sc.scored[:0]
	// byVariant[v] is variant v's score, -1 while unscored (scores are
	// sigmoid outputs in (0,1)).
	byVariant := slices.Grow(sc.byVariant[:0], pool.NumVariants())[:pool.NumVariants()]
	for v := range byVariant {
		byVariant[v] = -1
	}
	for _, r := range rows {
		if !pool.Usable(r) {
			continue
		}
		v := pool.Variant(r)
		if byVariant[v] < 0 {
			byVariant[v] = score(pool.Vec(r), pool.Full(r))
		}
		scored = append(scored, search.Hit{Row: r, Score: byVariant[v]})
	}
	sc.scored, sc.byVariant = scored, byVariant
	// (score desc, doc ID asc) is a total order, doc IDs being unique, so
	// its best k_d are the same whichever way they are found.
	scored = pool.RankTop(scored, cfg.SelectedDocs)
	endRerank()

	// Phase 4b: sliding-window chunking from the doc table's cached
	// sentence splits.
	endChunk := phaseSpan(ctx, "rag_chunk", chunkHist)
	if len(scored) > 0 {
		ev.Docs = make([]search.DocPayload, 0, len(scored))
	}
	for _, h := range scored {
		ev.Docs = append(ev.Docs, pool.Payload(h.Row))
		ev.Chunks = append(ev.Chunks, pool.Chunks(h.Row, cfg.Window)...)
	}
	if len(ev.Chunks) > cfg.MaxChunks {
		ev.Chunks = ev.Chunks[:cfg.MaxChunks]
	}
	endChunk()
	return nil
}

// retrieveWire runs phases 3–4 over wire-form values: SERP items, then
// one fetch per candidate. A searcher that is also a search.EvidenceFetcher
// serves precomputed vectors and sentence splits; otherwise each candidate
// is fetched, embedded and split on the fly.
func (p *Pipeline) retrieveWire(ctx context.Context, f *dataset.Fact, ev *Evidence, score func(cand text.SparseVector, candText string) float64) error {
	cfg := p.Config

	// Phase 3: document retrieval and filtering.
	endSearch := phaseSpan(ctx, "rag_search", searchHist)
	// The first SERP alone fills both to cfg.SERPSize; later queries
	// mostly return documents already seen.
	seen := make(map[string]struct{}, cfg.SERPSize)
	serpItems := make([]search.SERPItem, 0, cfg.SERPSize)
	for _, q := range ev.Queries {
		items, err := p.Searcher.Search(f.ID, q, cfg.SERPSize)
		if err != nil {
			return fmt.Errorf("rag: search %q: %w", q, err)
		}
		for _, it := range items {
			if _, ok := seen[it.DocID]; ok {
				continue
			}
			seen[it.DocID] = struct{}{}
			if cfg.FilterSKG && isSKGSource(it.Host) {
				ev.FilteredSKG++
				continue
			}
			serpItems = append(serpItems, it)
		}
	}
	ev.Candidates = len(serpItems)
	if len(serpItems) > cfg.CandidateCap {
		serpItems = serpItems[:cfg.CandidateCap]
	}
	endSearch()

	// Phase 4a: fetch and rerank documents against the sentence. From an
	// EvidenceFetcher each candidate's vector comes precomputed from the
	// doc table; a plain Fetch is embedded once here.
	endRerank := phaseSpan(ctx, "rag_rerank", rerankHist)
	fetcher, byEvidence := p.Searcher.(search.EvidenceFetcher)
	// A scored candidate carries one DocEvidence: the full one from an
	// EvidenceFetcher, only its DocPayload from Fetch.
	type scoredDoc struct {
		ev    search.DocEvidence
		score float64
	}
	docs := make([]scoredDoc, 0, len(serpItems))
	for _, it := range serpItems {
		if byEvidence {
			de, err := fetcher.FetchEvidence(it.DocID)
			if err != nil {
				return fmt.Errorf("rag: fetch %s: %w", it.DocID, err)
			}
			if de.Empty || de.Text == "" {
				continue // extraction failures carry no usable evidence
			}
			docs = append(docs, scoredDoc{ev: de, score: score(de.Vec, de.Full)})
			continue
		}
		d, err := p.Searcher.Fetch(it.DocID)
		if err != nil {
			return fmt.Errorf("rag: fetch %s: %w", it.DocID, err)
		}
		if d.Empty || d.Text == "" {
			continue
		}
		full := d.Title + " " + d.Text
		docs = append(docs, scoredDoc{ev: search.DocEvidence{DocPayload: d}, score: score(text.SparseEmbed(full), full)})
	}
	// Sort an index permutation instead of the fat entries (swapping a
	// scoredDoc's evidence struct dominated the sort).
	// (score desc, doc ID asc) is a total order over unique doc IDs, so the
	// permutation equals the retired sort.SliceStable's order exactly.
	order := make([]int, len(docs))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		switch {
		case docs[a].score > docs[b].score:
			return -1
		case docs[a].score < docs[b].score:
			return 1
		}
		return strings.Compare(docs[a].ev.DocID, docs[b].ev.DocID)
	})
	if len(order) > cfg.SelectedDocs {
		order = order[:cfg.SelectedDocs]
	}
	endRerank()

	// Phase 4b: sliding-window chunking, served from the doc table's cached
	// sentence splits when the searcher is an EvidenceFetcher.
	endChunk := phaseSpan(ctx, "rag_chunk", chunkHist)
	for _, i := range order {
		sd := &docs[i]
		ev.Docs = append(ev.Docs, sd.ev.DocPayload)
		if byEvidence {
			ev.Chunks = append(ev.Chunks, sd.ev.Chunks(cfg.Window)...)
		} else {
			ev.Chunks = append(ev.Chunks, chunk.Sliding(sd.ev.DocID, sd.ev.Text, cfg.Window)...)
		}
	}
	if len(ev.Chunks) > cfg.MaxChunks {
		ev.Chunks = ev.Chunks[:cfg.MaxChunks]
	}
	endChunk()
	return nil
}

// retrievalLatency models the wall-clock cost of phase 3 and 4: one SERP
// round-trip per query, one fetch per candidate (amortised: fetches are
// pipelined), and a cross-encoder pass per candidate.
func (p *Pipeline) retrievalLatency(f *dataset.Fact, nQueries, nCandidates int) time.Duration {
	secs := 0.20*float64(nQueries) + // SERP round-trips
		0.004*float64(nCandidates) + // pipelined fetch + parse
		0.0045*float64(nCandidates) // cross-encoder scoring
	secs = det.Jitter(secs+0.25, 0.15, "rag-latency", f.ID)
	return time.Duration(secs * float64(time.Second))
}

// isSKGSource reports whether the host belongs to S_KG, the set of original
// KG source pages (Wikipedia for DBpedia/FactBench facts).
func isSKGSource(host string) bool {
	return host == "en.wikipedia.org"
}

// GenerationCost models the offline cost of building the RAG dataset for
// one fact (paper Table 3): LLM question generation, SERP retrieval, and
// webpage fetching.
type GenerationCost struct {
	QuestionGenTime   time.Duration
	QuestionGenTokens int
	SERPTime          time.Duration
	FetchTime         time.Duration
}

// CostFor returns the simulated per-fact generation cost, calibrated to the
// paper's averages (9.60 s / 672.58 tokens question generation, 3.60 s SERP
// retrieval, 350 s document fetching).
func CostFor(f *dataset.Fact) GenerationCost {
	qt := det.Gaussian(9.60, 1.4, "cost-qt", f.ID)
	tok := det.Gaussian(672.58, 85, "cost-tok", f.ID)
	st := det.Gaussian(3.60, 0.5, "cost-serp", f.ID)
	ft := det.Gaussian(350, 40, "cost-fetch", f.ID)
	if qt < 1 {
		qt = 1
	}
	if tok < 100 {
		tok = 100
	}
	if st < 0.5 {
		st = 0.5
	}
	if ft < 30 {
		ft = 30
	}
	return GenerationCost{
		QuestionGenTime:   time.Duration(qt * float64(time.Second)),
		QuestionGenTokens: int(tok),
		SERPTime:          time.Duration(st * float64(time.Second)),
		FetchTime:         time.Duration(ft * float64(time.Second)),
	}
}
