// Package search implements the retrieval substrate of FactCheck: an
// inverted-index search engine over each fact's synthetic document pool —
// served from immutable, epoch-versioned snapshots swapped atomically
// behind a pointer, so warm reads touch no mutex — and the paper's mock
// web-search API (§4.1), an HTTP service with SERP-style endpoints
// returning identical results across runs, plus a client so the RAG
// pipeline can run either in-process or over HTTP.
package search

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"factcheck/internal/chunk"
	"factcheck/internal/corpus"
	"factcheck/internal/dataset"
	"factcheck/internal/det"
	"factcheck/internal/index"
	"factcheck/internal/obs"
	"factcheck/internal/text"
)

// queryHist times every Search call. Resolved once; recording is a single
// atomic add, preserving the warm path's zero-alloc, mutex-free property.
var queryHist = obs.Layer("search_query")

// SERPItem is one ranked search result, mirroring what a Google SERP entry
// carries (URL, title, rank). Scores are engine-internal relevance values.
type SERPItem struct {
	DocID string  `json:"doc_id"`
	URL   string  `json:"url"`
	Host  string  `json:"host"`
	Title string  `json:"title"`
	Rank  int     `json:"rank"`
	Score float64 `json:"score"`
}

// DocPayload is a fetched document: the mock equivalent of downloading a
// result URL and extracting its text.
type DocPayload struct {
	DocID string `json:"doc_id"`
	URL   string `json:"url"`
	Host  string `json:"host"`
	Title string `json:"title"`
	Text  string `json:"text"`
	Empty bool   `json:"empty"`
}

// Searcher is the retrieval interface consumed by the RAG pipeline. Both
// the in-process Engine and the HTTP mock-API Client implement it.
type Searcher interface {
	// Search returns up to n ranked results for the query within the given
	// fact's retrieval pool (the mock of issuing the query to Google with
	// lr=lang_en, hl=en, gl=us, num=n).
	Search(factID, query string, n int) ([]SERPItem, error)
	// Fetch retrieves a result document's content.
	Fetch(docID string) (DocPayload, error)
}

// Warmer is implemented by searchers that can materialise per-fact state
// (document pool, inverted index) ahead of queries. Prefetch stages use it
// to build index shards before model fan-out needs them.
type Warmer interface {
	// Warm materialises the fact's pool and index; it is safe to call
	// concurrently and redundantly.
	Warm(factID string) error
}

// PoolSource supplies per-fact document pools. corpus.Generator is the
// production implementation; tests substitute instrumented sources to prove
// scheduling properties (e.g. that unrelated facts materialise
// concurrently).
type PoolSource interface {
	// Materialize generates the fact's full pool — metadata, body text and
	// document embeddings — in pool order.
	Materialize(f *dataset.Fact) []corpus.Materialized
}

// DefaultSERPSize is the paper's n_max = 100 results per query.
const DefaultSERPSize = 100

// Typed retrieval errors, so the HTTP layer can map client mistakes
// (malformed IDs) and missing resources to distinct statuses.
var (
	ErrUnknownFact    = errors.New("unknown fact")
	ErrMalformedDocID = errors.New("malformed doc id")
	ErrUnknownDoc     = errors.New("unknown document")
)

// MaxCachedFacts bounds the materialised facts held by a snapshot, since
// full-benchmark runs touch millions of documents. Eviction happens at
// publish time, under the writer lock: when a new pool pushes the snapshot
// over budget, the publisher drops the pools with the oldest last-use
// generation (ties broken by fact ID, so eviction order is deterministic).
// In-flight materialisations live outside the snapshot and are never
// evicted, so the singleflight guarantee holds.
const MaxCachedFacts = 512

// Engine is the in-process search engine. All materialised state lives in
// an immutable snapshot reachable through one atomic pointer (RCU): warm
// reads — Search, Fetch, FetchEvidence — load the pointer, index into
// immutable maps and go, acquiring no mutex. Writers (materialisation
// misses and live ingestion) serialise on a single mutex, build a fresh
// snapshot beside the live one and publish it with one pointer store;
// readers on the old snapshot finish undisturbed.
type Engine struct {
	gen   PoolSource
	facts map[string]*dataset.Fact

	// snap is the live snapshot. Never mutated after publication.
	snap atomic.Pointer[snapshot]

	// mu serialises snapshot publication: materialisation bookkeeping,
	// ingestion folds and eviction. Never taken on the warm read path.
	mu sync.Mutex
	// inflight holds materialisations in progress (singleflight): the
	// first caller for a fact owns generation and indexing, concurrent
	// callers block on that entry's done channel only.
	inflight map[string]*factEntry
	// log is the full ingestion history per fact, in arrival order. A
	// pool materialised (or re-materialised after eviction) replays it on
	// top of the generated base, so an incrementally built corpus is
	// byte-identical to the same corpus built cold.
	log map[string][]*pooledDoc
	// factDigests chains a content digest over each fact's ingested
	// documents (0 = pristine). Folded into the per-dataset corpus
	// digests that join result fingerprints.
	factDigests map[string]uint64

	hits, misses, evicted atomic.Int64

	// arenas pools per-query top-k scratch state (accumulators, heap,
	// candidate stamps), so warm queries allocate nothing.
	arenas sync.Pool
	// retrieval accumulates pruning counters across all queries.
	retrieval retrievalCounters
}

// snapshot is one immutable epoch of the fact store. The maps are built
// beside the live snapshot and never written after the pointer store;
// unchanged maps are shared structurally between consecutive snapshots.
type snapshot struct {
	// gen is the publication sequence number — the clock the sampled LRU
	// scheme reads. It advances on every publish (materialisation or
	// ingestion), so "last used at generation g" totally orders pools by
	// recency without any read-side list maintenance.
	gen uint64
	// pools holds the materialised facts.
	pools map[string]*factPool
	// epochs counts ingestion batches applied per fact (0 = pristine).
	epochs map[string]uint64
	// digests is the per-dataset corpus content digest (0 = pristine),
	// an XOR fold over per-fact ingestion chains: order-independent
	// across facts, order-sensitive within one fact's stream.
	digests map[dataset.Name]uint64
}

// retrievalCounters aggregates the pruned path's work counters.
type retrievalCounters struct {
	queries         atomic.Int64
	postingsTouched atomic.Int64
	blocksSkipped   atomic.Int64
	docsScored      atomic.Int64
}

// arena checks a pooled top-k arena out; release returns it.
func (e *Engine) arena() *index.Arena {
	if a, ok := e.arenas.Get().(*index.Arena); ok {
		return a
	}
	return &index.Arena{}
}

func (e *Engine) release(a *index.Arena) { e.arenas.Put(a) }

// factEntry is one in-flight materialisation. pool is written once by the
// owner before done is closed; waiters read it only after <-done.
type factEntry struct {
	done chan struct{}
	pool *factPool
}

// factPool is a fully materialised fact: the pool-ordered documents, an
// O(1) fetch table, and the inverted index. Everything except the two
// lazily-computed caches (scan vectors, sentence splits) and the lastUsed
// clock is immutable after construction. scanVecs lazily holds the dense
// embedding of every document for ScanSearch, the linear-scan reference
// path; the production path never materialises them.
type factPool struct {
	docs []*pooledDoc
	byID map[string]*pooledDoc
	idx  *index.Index
	// epoch is the fact's ingestion epoch this pool was built at.
	epoch uint64

	// lastUsed is the snapshot generation of the pool's most recent use —
	// the lock-free LRU approximation. Readers store the current
	// generation only when it differs from the stored one, so a warm
	// phase issues one cheap atomic store per pool per epoch, not per
	// query; eviction compares generations at publish time.
	lastUsed atomic.Uint64

	scanOnce sync.Once
	scanVecs []text.Vector
}

// pooledDoc is one doc-table row: the document, its body, the full
// "Title + body" rerank-candidate string (body aliases its tail, so the
// concatenation costs no extra memory), the sparse embedding precomputed by
// corpus.Materialize, and the lazily built sentence split serving sliding
// windows of any size. The split is built only for fetched documents, so
// the extra memory stays bounded by the fetch traffic within the
// MaxCachedFacts budget.
type pooledDoc struct {
	doc  *corpus.Document
	full string // Title + " " + body
	text string // body; substring of full
	vec  text.SparseVector

	splitOnce sync.Once
	split     *chunk.Split
}

// sentenceSplit returns the document's sentence split, computing it on
// first use (safe for concurrent fetchers).
func (d *pooledDoc) sentenceSplit() *chunk.Split {
	d.splitOnce.Do(func() { d.split = chunk.NewSplit(d.text) })
	return d.split
}

// NewEngine builds an engine over the documents of the given datasets.
func NewEngine(gen PoolSource, ds ...*dataset.Dataset) *Engine {
	e := &Engine{
		gen:         gen,
		facts:       map[string]*dataset.Fact{},
		inflight:    map[string]*factEntry{},
		log:         map[string][]*pooledDoc{},
		factDigests: map[string]uint64{},
	}
	for _, d := range ds {
		for _, f := range d.Facts {
			e.facts[f.ID] = f
		}
	}
	e.snap.Store(&snapshot{
		pools:   map[string]*factPool{},
		epochs:  map[string]uint64{},
		digests: map[dataset.Name]uint64{},
	})
	return e
}

// Fact resolves a fact by ID (exported for the mock API server).
func (e *Engine) Fact(id string) (*dataset.Fact, bool) {
	f, ok := e.facts[id]
	return f, ok
}

// FactIDs returns all known fact IDs in sorted order.
func (e *Engine) FactIDs() []string {
	out := make([]string, 0, len(e.facts))
	for id := range e.facts {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// pool returns the fact's materialised pool. The warm path is lock-free:
// one atomic snapshot load, one immutable map lookup, and at most one
// atomic store to refresh the pool's LRU clock. Misses fall to the
// serialised slow path.
func (e *Engine) pool(factID string) (*factPool, error) {
	sn := e.snap.Load()
	if p, ok := sn.pools[factID]; ok {
		e.hits.Add(1)
		if p.lastUsed.Load() != sn.gen {
			p.lastUsed.Store(sn.gen)
		}
		return p, nil
	}
	return e.poolSlow(factID)
}

// poolSlow materialises a missing pool and publishes a snapshot holding
// it. Generation and indexing run outside the writer lock: concurrent
// callers for the same fact coalesce on the entry's done channel
// (singleflight), while callers for other facts — and all warm readers —
// proceed unblocked.
func (e *Engine) poolSlow(factID string) (*factPool, error) {
	e.mu.Lock()
	// Re-check under the lock: the pool may have been published while we
	// waited for the writer mutex.
	if p, ok := e.snap.Load().pools[factID]; ok {
		e.mu.Unlock()
		e.hits.Add(1)
		return p, nil
	}
	if en, ok := e.inflight[factID]; ok {
		e.mu.Unlock()
		e.hits.Add(1)
		<-en.done
		return en.pool, nil
	}
	f, ok := e.facts[factID]
	if !ok {
		e.mu.Unlock()
		return nil, fmt.Errorf("search: %w %q", ErrUnknownFact, factID)
	}
	en := &factEntry{done: make(chan struct{})}
	e.inflight[factID] = en
	e.misses.Add(1)
	appended := e.log[factID] // immutable prefix: ingest only appends
	epoch := e.snap.Load().epochs[factID]
	e.mu.Unlock()

	p := e.materialize(f, appended, epoch)

	e.mu.Lock()
	// Ingestion may have appended documents while we materialised outside
	// the lock; fold the missed suffix before publishing, so the snapshot
	// never goes backwards in epoch.
	if cur := e.snap.Load().epochs[factID]; cur != epoch {
		p = foldPool(p, e.log[factID][len(appended):], cur)
	}
	e.publish(factID, p)
	delete(e.inflight, factID)
	e.mu.Unlock()

	en.pool = p
	close(en.done)
	return p, nil
}

// publish installs the pool into a fresh snapshot, evicting over-budget
// pools, and swaps it live. Callers hold e.mu.
func (e *Engine) publish(factID string, p *factPool) {
	old := e.snap.Load()
	pools := make(map[string]*factPool, len(old.pools)+1)
	for k, v := range old.pools {
		pools[k] = v
	}
	pools[factID] = p
	next := &snapshot{
		gen:     old.gen + 1,
		pools:   pools,
		epochs:  old.epochs,
		digests: old.digests,
	}
	p.lastUsed.Store(next.gen)
	e.evicted.Add(evictOver(pools))
	e.snap.Store(next)
}

// evictOver drops least-recently-used pools until the map fits the budget,
// breaking generation ties by fact ID so eviction order is deterministic.
// The map is not yet published, so mutation is safe.
func evictOver(pools map[string]*factPool) int64 {
	var n int64
	for len(pools) > MaxCachedFacts {
		victim := ""
		var vGen uint64
		for id, p := range pools {
			g := p.lastUsed.Load()
			if victim == "" || g < vGen || (g == vGen && id < victim) {
				victim, vGen = id, g
			}
		}
		delete(pools, victim)
		n++
	}
	return n
}

// materialize generates the fact's pool from the source, replays its
// ingestion log on top, and builds the inverted index from the embeddings
// the source computed (one kernel pass per document).
func (e *Engine) materialize(f *dataset.Fact, appended []*pooledDoc, epoch uint64) *factPool {
	ms := e.gen.Materialize(f)
	n := len(ms) + len(appended)
	p := &factPool{
		docs:  make([]*pooledDoc, 0, n),
		byID:  make(map[string]*pooledDoc, n),
		epoch: epoch,
	}
	// The generated rows share one allocation: a pool is published and
	// evicted as a whole.
	rows := make([]pooledDoc, len(ms))
	for i, m := range ms {
		full := m.Doc.Title + " " + m.Text
		rows[i] = pooledDoc{
			doc:  m.Doc,
			full: full,
			text: full[len(m.Doc.Title)+1:],
			vec:  m.Vec,
		}
		p.docs = append(p.docs, &rows[i])
		p.byID[m.Doc.ID] = &rows[i]
	}
	for _, d := range appended {
		p.docs = append(p.docs, d)
		p.byID[d.doc.ID] = d
	}
	p.idx = buildIndex(p.docs)
	// The generated rows read their vectors from the index's forward store,
	// so the pool holds each vector once. Ingested rows keep their own:
	// every pool version built from the ingestion log shares them.
	for i := range rows {
		rows[i].vec = p.idx.Vec(i)
	}
	return p
}

// buildIndex indexes the pool's documents in pool order.
func buildIndex(docs []*pooledDoc) *index.Index {
	b := index.NewBuilder(len(docs))
	nnz := 0
	for _, d := range docs {
		nnz += d.vec.NNZ()
	}
	b.Grow(nnz)
	for _, d := range docs {
		b.AddVec(d.doc.ID, d.vec)
	}
	return b.Build()
}

// foldPool extends a pool with newly ingested documents, rebuilding the
// index over the combined doc sequence. Appending to the same builder
// sequence a cold build would see keeps the incremental index
// byte-identical to a from-scratch materialisation.
func foldPool(p *factPool, appended []*pooledDoc, epoch uint64) *factPool {
	docs := make([]*pooledDoc, len(p.docs), len(p.docs)+len(appended))
	copy(docs, p.docs)
	byID := make(map[string]*pooledDoc, len(p.byID)+len(appended))
	for k, v := range p.byID {
		byID[k] = v
	}
	np := &factPool{docs: docs, byID: byID, epoch: epoch}
	for _, d := range appended {
		np.docs = append(np.docs, d)
		np.byID[d.doc.ID] = d
	}
	np.idx = buildIndex(np.docs)
	return np
}

// Warm implements Warmer: it materialises the fact's pool and index so
// later queries hit a warm snapshot. Prefetch stages call it once per fact
// ahead of model fan-out.
func (e *Engine) Warm(factID string) error {
	_, err := e.pool(factID)
	return err
}

// serpJitterScale is the magnitude of the deterministic SERP perturbation,
// shared by the production path (which pre-hashes the query prefix) and
// the scan reference.
const serpJitterScale = 0.05

// serpJitter is the deterministic per-(query,doc) score perturbation:
// SERPs rank by more than lexical relevance (authority, freshness).
func serpJitter(query, docID string) float64 {
	return serpJitterScale * det.Uniform("serp", query, docID)
}

// Search implements Searcher. Ranking is cosine relevance of the query to
// title+body with a small deterministic tie-break jitter, mimicking the
// opaque ordering of a web SERP. Scoring runs over the impact-ordered
// block postings with max-score/WAND early termination (index.TopKPruned):
// blocks provably unable to reach the heap floor are never read, and the
// jitter magnitude is folded into every upper bound, so results stay
// byte-identical to the exhaustive paths (see IndexedSearch/ScanSearch).
func (e *Engine) Search(factID, query string, n int) ([]SERPItem, error) {
	start := time.Now()
	if n <= 0 {
		n = DefaultSERPSize
	}
	p, err := e.pool(factID)
	if err != nil {
		queryHist.Observe(time.Since(start))
		return nil, err
	}
	qv := text.SparseEmbed(query)
	// One partial hash covers the ("serp", query) prefix for the whole
	// pool; each document extends it with its ID only. Values are identical
	// to serpJitter(query, docID).
	key := det.NewKey("serp", query)
	a := e.arena()
	// key.Uniform is in [0,1), so the jitter never exceeds serpJitterScale
	// — the perturbation bound the pruned path folds into its skips.
	hits := p.idx.TopKPruned(qv, n, func(docID string) float64 {
		return serpJitterScale * key.Uniform(docID)
	}, serpJitterScale, a)
	out := serpItems(p, hits)
	e.retrieval.queries.Add(1)
	e.retrieval.postingsTouched.Add(int64(a.Stats.PostingsTouched))
	e.retrieval.blocksSkipped.Add(int64(a.Stats.BlocksSkipped))
	e.retrieval.docsScored.Add(int64(a.Stats.DocsScored))
	e.release(a)
	queryHist.Observe(time.Since(start))
	return out, nil
}

// IndexedSearch is the exhaustive posting-list ranking the pruned path
// replaced: term-at-a-time accumulation over every posting of every query
// dimension, bounded-heap selection. Kept as the mid-rung of the golden
// differential ladder (Search == IndexedSearch == ScanSearch, byte for
// byte) and as the bench baseline the pruning win is measured against.
func (e *Engine) IndexedSearch(factID, query string, n int) ([]SERPItem, error) {
	if n <= 0 {
		n = DefaultSERPSize
	}
	p, err := e.pool(factID)
	if err != nil {
		return nil, err
	}
	qv := text.SparseEmbed(query)
	key := det.NewKey("serp", query)
	a := e.arena()
	hits := p.idx.TopKSparse(qv, n, func(docID string) float64 {
		return serpJitterScale * key.Uniform(docID)
	}, a)
	out := serpItems(p, hits)
	e.release(a)
	return out, nil
}

// serpItems converts arena-backed hits into wire-form SERP items (copied
// out, so the arena can be released).
func serpItems(p *factPool, hits []index.Hit) []SERPItem {
	out := make([]SERPItem, len(hits))
	for i, h := range hits {
		d := p.docs[h.Doc].doc
		out[i] = SERPItem{
			DocID: d.ID,
			URL:   d.URL,
			Host:  d.Host,
			Title: d.Title,
			Rank:  i + 1,
			Score: h.Score,
		}
	}
	return out
}

// ScanSearch is the retired linear-scan ranking, kept as the differential
// reference for the indexed path: cosine of the query against every pool
// document's dense embedding, full sort, truncate. Golden tests assert
// Search == ScanSearch byte for byte, and the bench suite compares their
// cost. Dense vectors are materialised lazily on first use and cached per
// pool, so repeated calls measure steady-state scan cost as the old engine
// paid it.
func (e *Engine) ScanSearch(factID, query string, n int) ([]SERPItem, error) {
	if n <= 0 {
		n = DefaultSERPSize
	}
	p, err := e.pool(factID)
	if err != nil {
		return nil, err
	}
	p.scanOnce.Do(func() {
		p.scanVecs = make([]text.Vector, len(p.docs))
		for i, d := range p.docs {
			p.scanVecs[i] = text.Embed(d.full)
		}
	})
	qv := text.Embed(query)
	type scored struct {
		d *pooledDoc
		s float64
	}
	items := make([]scored, 0, len(p.docs))
	for i, d := range p.docs {
		s := text.Cosine(qv, p.scanVecs[i])
		s += serpJitter(query, d.doc.ID)
		items = append(items, scored{d: d, s: s})
	}
	sort.SliceStable(items, func(i, j int) bool {
		if items[i].s != items[j].s {
			return items[i].s > items[j].s
		}
		return items[i].d.doc.ID < items[j].d.doc.ID
	})
	if len(items) > n {
		items = items[:n]
	}
	out := make([]SERPItem, len(items))
	for i, it := range items {
		out[i] = SERPItem{
			DocID: it.d.doc.ID,
			URL:   it.d.doc.URL,
			Host:  it.d.doc.Host,
			Title: it.d.doc.Title,
			Rank:  i + 1,
			Score: it.s,
		}
	}
	return out, nil
}

// Fetch implements Searcher with an O(1) doc-table lookup.
func (e *Engine) Fetch(docID string) (DocPayload, error) {
	d, err := e.lookup(docID)
	if err != nil {
		return DocPayload{}, err
	}
	return d.payload(), nil
}

// DocEvidence is a fetched document together with its precomputed scoring
// state: the full "Title + body" rerank-candidate string, the sparse
// embedding of that string (computed once at materialisation), and access
// to the shared sentence split behind sliding-window chunking. It is what
// the vector-aware RAG pipeline consumes instead of re-embedding and
// re-splitting every candidate per fact.
type DocEvidence struct {
	DocPayload
	// Full is Title + " " + Text, the exact candidate string document
	// rerankers score (Text aliases its tail; no extra copy).
	Full string
	// Vec is the precomputed sparse embedding of Full, bit-identical to
	// text.SparseEmbed(Full).
	Vec text.SparseVector

	pooled *pooledDoc
}

// Chunks returns the document's sliding windows of `window` sentences from
// the doc table's cached sentence split — output-identical to
// chunk.Sliding(DocID, Text, window).
func (d DocEvidence) Chunks(window int) []chunk.Chunk {
	return d.pooled.sentenceSplit().Windows(d.DocID, window)
}

// ChunkVecs returns the sparse embeddings of the document's windows of
// `window` sentences, built from the split's single kernel pass; entry i
// is bit-identical to text.SparseEmbed(Chunks(window)[i].Text).
func (d DocEvidence) ChunkVecs(window int) []text.SparseVector {
	return d.pooled.sentenceSplit().WindowVecs(window)
}

// EvidenceFetcher is implemented by searchers whose doc table carries
// precomputed per-document scoring state. The in-process Engine implements
// it; the HTTP client does not (vectors don't travel over the mock API), so
// consumers fall back to Fetch plus on-the-fly embedding.
type EvidenceFetcher interface {
	// FetchEvidence retrieves a document with its precomputed vector and
	// chunk state.
	FetchEvidence(docID string) (DocEvidence, error)
}

// FetchEvidence implements EvidenceFetcher.
func (e *Engine) FetchEvidence(docID string) (DocEvidence, error) {
	d, err := e.lookup(docID)
	if err != nil {
		return DocEvidence{}, err
	}
	return DocEvidence{
		DocPayload: d.payload(),
		Full:       d.full,
		Vec:        d.vec,
		pooled:     d,
	}, nil
}

// lookup resolves a doc ID to its doc-table row.
func (e *Engine) lookup(docID string) (*pooledDoc, error) {
	factID, ok := factIDOfDoc(docID)
	if !ok {
		return nil, fmt.Errorf("search: %w %q", ErrMalformedDocID, docID)
	}
	p, err := e.pool(factID)
	if err != nil {
		return nil, err
	}
	d, ok := p.byID[docID]
	if !ok {
		return nil, fmt.Errorf("search: %w %q", ErrUnknownDoc, docID)
	}
	return d, nil
}

// payload builds the wire-form document.
func (d *pooledDoc) payload() DocPayload {
	return DocPayload{
		DocID: d.doc.ID,
		URL:   d.doc.URL,
		Host:  d.doc.Host,
		Title: d.doc.Title,
		Text:  d.text,
		Empty: d.doc.Empty,
	}
}

// Stats summarises the snapshot's state and the pruned retrieval path's
// cumulative work counters.
type Stats struct {
	// Facts is the number of known facts; CachedFacts of them are currently
	// materialised (in-flight materialisations included).
	Facts       int   `json:"facts"`
	CachedFacts int   `json:"cached_facts"`
	IndexedDocs int   `json:"indexed_docs"`
	Postings    int   `json:"postings"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Evicted     int64 `json:"evicted"`
	// Epoch is the snapshot publication sequence number; IngestedDocs
	// counts live-ingested documents across all facts.
	Epoch        uint64 `json:"epoch"`
	IngestedDocs int    `json:"ingested_docs"`
	// SearchQueries counts Search calls (the pruned production path);
	// PostingsTouched, BlocksSkipped and DocsScored accumulate its pruning
	// counters — the asymptotic story of every query served so far.
	SearchQueries   int64 `json:"search_queries"`
	PostingsTouched int64 `json:"postings_touched"`
	BlocksSkipped   int64 `json:"blocks_skipped"`
	DocsScored      int64 `json:"docs_scored"`
}

// Stats returns a point-in-time snapshot of the store. In-flight
// materialisations count as cached facts but contribute no document or
// posting counts (the snapshot never blocks on them).
func (e *Engine) Stats() Stats {
	sn := e.snap.Load()
	st := Stats{
		Facts:           len(e.facts),
		CachedFacts:     len(sn.pools),
		Epoch:           sn.gen,
		Hits:            e.hits.Load(),
		Misses:          e.misses.Load(),
		Evicted:         e.evicted.Load(),
		SearchQueries:   e.retrieval.queries.Load(),
		PostingsTouched: e.retrieval.postingsTouched.Load(),
		BlocksSkipped:   e.retrieval.blocksSkipped.Load(),
		DocsScored:      e.retrieval.docsScored.Load(),
	}
	for _, p := range sn.pools {
		st.IndexedDocs += p.idx.Docs()
		st.Postings += p.idx.Postings()
	}
	e.mu.Lock()
	st.CachedFacts += len(e.inflight)
	for _, l := range e.log {
		st.IngestedDocs += len(l)
	}
	e.mu.Unlock()
	return st
}

// factIDOfDoc strips the "-dNNNN" suffix corpus.Generator appends. It
// requires a non-empty fact ID followed by a "-d" marker and at least one
// digit, rejecting malformed IDs such as "", "x-", "x-q1", "x-d" and IDs
// with a trailing dash.
func factIDOfDoc(docID string) (string, bool) {
	i := len(docID) - 1
	for i >= 0 && docID[i] != '-' {
		i--
	}
	// Need a non-empty fact ID before the dash, a 'd' after it, and ≥1
	// digit after the 'd'.
	if i <= 0 || i+2 >= len(docID) || docID[i+1] != 'd' {
		return "", false
	}
	for j := i + 2; j < len(docID); j++ {
		if docID[j] < '0' || docID[j] > '9' {
			return "", false
		}
	}
	return docID[:i], true
}
