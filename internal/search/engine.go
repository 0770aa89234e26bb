// Package search implements the retrieval substrate of FactCheck: an
// inverted-index search engine over each fact's synthetic document pool —
// served from immutable, epoch-versioned snapshots swapped atomically
// behind a pointer, so warm reads touch no mutex — and the paper's mock
// web-search API (§4.1), an HTTP service with SERP-style endpoints
// returning identical results across runs, plus a client so the RAG
// pipeline can run either in-process or over HTTP. In-process, the
// pipeline selects and reads rows of one pinned pool snapshot (Pool),
// ranking hits (Pool.Rank) only where their order is read; the wire-form
// SERP items, always ranked, are built only where results leave the
// process.
package search

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
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

// Searcher is the wire-form retrieval interface: SERP items and fetched
// documents, the shapes that cross the mock API. The HTTP mock-API Client
// implements it, and so does the Engine, which serves GET /search through
// it. The RAG pipeline consumes it over HTTP and through wrappers; with
// the Engine itself it reads pool rows by reference instead (PoolSearcher).
type Searcher interface {
	// Search returns up to n ranked results for the query within the given
	// fact's retrieval pool (the mock of issuing the query to Google with
	// lr=lang_en, hl=en, gl=us, num=n).
	Search(factID, query string, n int) ([]SERPItem, error)
	// Fetch retrieves a result document's content.
	Fetch(docID string) (DocPayload, error)
}

// PoolSource supplies per-fact document pools. corpus.Generator is the
// production implementation; tests substitute instrumented sources to prove
// scheduling properties (e.g. that unrelated facts materialise
// concurrently).
type PoolSource interface {
	// Materialize generates the fact's compact pool: one row per document,
	// in sequence order, over the pool's distinct variant texts and their
	// embeddings.
	Materialize(f *dataset.Fact) *corpus.Pool
	// PoolSize returns len(Materialize(f).Rows) without generating the
	// pool.
	PoolSize(f *dataset.Fact) int
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

// poolShards is the number of shards a snapshot's pool table is split
// into. A publish copies only the shards it changes (about
// MaxCachedFacts/poolShards entries each), not the whole table.
const poolShards = 64

// Engine is the in-process search engine. All materialised state lives in
// an immutable snapshot reachable through one atomic pointer (RCU): warm
// reads — Pool, Search, Fetch, FetchEvidence — load the pointer, index into
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
	log map[string][]*ingestedDoc
	// factDigests chains a content digest over each fact's ingested
	// documents (0 = pristine). Folded into the per-dataset corpus
	// digests that join result fingerprints.
	factDigests map[string]uint64

	// evict picks eviction victims; guarded by mu.
	evict evictor

	hits, misses, evicted atomic.Int64

	// retrieval accumulates top-k work counters across all queries.
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
	pools poolTable
	// epochs counts ingestion batches applied per fact (0 = pristine).
	epochs map[string]uint64
	// digests is the per-dataset corpus content digest (0 = pristine),
	// an XOR fold over per-fact ingestion chains: order-independent
	// across facts, order-sensitive within one fact's stream.
	digests map[dataset.Name]uint64
}

// poolTable is a snapshot's fact-ID -> pool table, split into shards by a
// hash of the fact ID. Published shards are immutable; a writer edits a
// copy of the table value, whose shard array is copied whole (poolShards
// map pointers) while each shard map is copied only when first written.
type poolTable struct {
	shards [poolShards]map[string]*factPool
	// n is the number of pools across all shards.
	n int
	// copied marks the shards this edit has already copied (bit i for
	// shard i); zero in every published table.
	copied uint64
}

// poolShard maps a fact ID to its shard: FNV-1a, inline so the warm read
// path allocates nothing.
func poolShard(factID string) int {
	h := uint32(2166136261)
	for i := 0; i < len(factID); i++ {
		h ^= uint32(factID[i])
		h *= 16777619
	}
	return int(h % poolShards)
}

// get returns the fact's pool.
func (t *poolTable) get(factID string) (*factPool, bool) {
	p, ok := t.shards[poolShard(factID)][factID]
	return p, ok
}

// writable returns shard i of an unpublished table, copying it from the
// published table it was cloned from on first use.
func (t *poolTable) writable(i int) map[string]*factPool {
	if t.copied&(1<<i) == 0 {
		old := t.shards[i]
		m := make(map[string]*factPool, len(old)+1)
		for k, v := range old {
			m[k] = v
		}
		t.shards[i] = m
		t.copied |= 1 << i
	}
	return t.shards[i]
}

// put installs or replaces the fact's pool in an unpublished table.
func (t *poolTable) put(factID string, p *factPool) {
	m := t.writable(poolShard(factID))
	if _, ok := m[factID]; !ok {
		t.n++
	}
	m[factID] = p
}

// del removes the fact's pool from an unpublished table.
func (t *poolTable) del(factID string) {
	m := t.writable(poolShard(factID))
	if _, ok := m[factID]; ok {
		delete(m, factID)
		t.n--
	}
}

// retrievalCounters aggregates the top-k work counters.
type retrievalCounters struct {
	queries         atomic.Int64
	postingsTouched atomic.Int64
	docsScored      atomic.Int64
}

// arenas pools per-query top-k scratch state (accumulators, scores, sort
// keys), so warm queries allocate nothing. It is shared by all engines: a
// sync.Pool stays registered with the runtime until the second garbage
// collection after its last use, so a pool inside an Engine would keep the
// engine, with the world and pools it references, alive that long after
// its owner dropped it.
var arenas sync.Pool

// arena checks a pooled top-k arena out; release returns it.
func (e *Engine) arena() *index.Arena {
	if a, ok := arenas.Get().(*index.Arena); ok {
		return a
	}
	return &index.Arena{}
}

func (e *Engine) release(a *index.Arena) { arenas.Put(a) }

// factEntry is one in-flight materialisation. pool is written once by the
// owner before done is closed; waiters read it only after <-done.
type factEntry struct {
	done chan struct{}
	pool *factPool
}

// factPool is a fully materialised fact: its rows, the distinct texts
// (variants) they read, and the inverted index over those texts.
// Everything except the lazily built sentence splits and the lastUsed
// clock is immutable after construction. A row's doc ID and URL are
// derived from the fact ID and its sequence number when asked for, and a
// doc ID resolves to its row through that number (see row), so the pool
// holds no per-document string.
type factPool struct {
	factID string
	// slug is the URL path segment of the fact's subject.
	slug string
	// rows are the generated documents: row i has sequence number i.
	rows []corpus.Row
	// vars are the generated variants and splits their sentence splits;
	// every pool version folded from this one shares both.
	vars   []corpus.Variant
	splits []lazySplit
	// ingested holds the live-ingested documents in arrival order, rows
	// len(rows) onwards; each is its own variant.
	ingested []*ingestedDoc
	// rowDoc maps every row to its indexed document: a generated row to its
	// variant, ingested row len(rows)+j to document len(vars)+j.
	rowDoc []int32
	idx    *index.Index
	// epoch is the fact's ingestion epoch this pool was built at.
	epoch uint64

	// lastUsed is the snapshot generation of the pool's most recent use —
	// the lock-free LRU approximation. Readers raise it to the current
	// generation only when it is older, so a warm phase issues one cheap
	// atomic update per pool per epoch, not per query, and it never falls;
	// eviction compares generations at publish time.
	lastUsed atomic.Uint64
}

// lazySplit is a variant's sentence split serving sliding windows of any
// size, built on first use (safe for concurrent fetchers). Splits are
// built only for fetched documents, so the extra memory stays bounded by
// the fetch traffic within the MaxCachedFacts budget.
type lazySplit struct {
	once  sync.Once
	split *chunk.Split
}

func (s *lazySplit) get(body string) *chunk.Split {
	s.once.Do(func() { s.split = chunk.NewSplit(body) })
	return s.split
}

// ingestedDoc is one live-ingested document: its sequence number, its
// wire metadata and its own variant.
type ingestedDoc struct {
	seq       int
	url, host string
	empty     bool
	v         corpus.Variant
	split     lazySplit
}

// len returns the number of rows.
func (p *factPool) len() int { return len(p.rows) + len(p.ingested) }

// seq returns the row's sequence number.
func (p *factPool) seq(row int) int {
	if row < len(p.rows) {
		return row
	}
	return p.ingested[row-len(p.rows)].seq
}

// variant returns the row's text and sentence split.
func (p *factPool) variant(row int) (*corpus.Variant, *lazySplit) {
	if row < len(p.rows) {
		v := p.rows[row].Variant
		return &p.vars[v], &p.splits[v]
	}
	d := p.ingested[row-len(p.rows)]
	return &d.v, &d.split
}

// id returns the row's doc ID.
func (p *factPool) id(row int) string { return corpus.DocID(p.factID, p.seq(row)) }

// host returns the row's host.
func (p *factPool) host(row int) string {
	if row < len(p.rows) {
		return corpus.HostName(p.rows[row].Host)
	}
	return p.ingested[row-len(p.rows)].host
}

// usable reports whether the row carries evidence: its extraction did not
// fail and its body is non-empty.
func (p *factPool) usable(row int) bool {
	v, _ := p.variant(row)
	if row < len(p.rows) {
		return !p.rows[row].Empty && v.Text != ""
	}
	return !p.ingested[row-len(p.rows)].empty && v.Text != ""
}

// cmpIDs compares the doc IDs of rows a and b without building them. The
// IDs share the "<fact ID>-d" prefix, so they compare as their sequence
// digits, which order as the numbers while both have four digits.
func (p *factPool) cmpIDs(a, b int) int {
	sa, sb := p.seq(a), p.seq(b)
	if sa < 10000 && sb < 10000 {
		return cmp.Compare(sa, sb)
	}
	return strings.Compare(corpus.SeqDigits(sa), corpus.SeqDigits(sb))
}

// payload builds the row's wire-form document.
func (p *factPool) payload(row int) DocPayload {
	v, _ := p.variant(row)
	d := DocPayload{DocID: p.id(row), Title: v.Title, Text: v.Text}
	if row < len(p.rows) {
		r := p.rows[row]
		d.Host = corpus.HostName(r.Host)
		d.URL = corpus.DocURL(d.Host, p.slug, row)
		d.Empty = r.Empty
	} else {
		in := p.ingested[row-len(p.rows)]
		d.Host, d.URL, d.Empty = in.host, in.url, in.empty
	}
	return d
}

// NewEngine builds an engine over the documents of the given datasets.
func NewEngine(gen PoolSource, ds ...*dataset.Dataset) *Engine {
	e := &Engine{
		gen:         gen,
		facts:       map[string]*dataset.Fact{},
		inflight:    map[string]*factEntry{},
		log:         map[string][]*ingestedDoc{},
		factDigests: map[string]uint64{},
	}
	for _, d := range ds {
		for _, f := range d.Facts {
			e.facts[f.ID] = f
		}
	}
	e.snap.Store(&snapshot{
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
	if p, ok := sn.pools.get(factID); ok {
		e.hits.Add(1)
		for g := p.lastUsed.Load(); g < sn.gen && !p.lastUsed.CompareAndSwap(g, sn.gen); g = p.lastUsed.Load() {
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
	if p, ok := e.snap.Load().pools.get(factID); ok {
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
// pools, and swaps it live. Only the shards the pool and any eviction
// victims land in are copied. Callers hold e.mu.
func (e *Engine) publish(factID string, p *factPool) {
	old := e.snap.Load()
	pools := old.pools
	pools.put(factID, p)
	next := &snapshot{
		gen:     old.gen + 1,
		epochs:  old.epochs,
		digests: old.digests,
	}
	p.lastUsed.Store(next.gen)
	e.evicted.Add(e.evict.evictOver(&pools))
	pools.copied = 0
	next.pools = pools
	e.snap.Store(next)
}

// evictor drops least-recently-used pools in (last-use generation, fact
// ID) order without scanning the whole table for every victim. One scan
// queues every cached pool in that order; later evictions pop the queue
// while its head still carries the generation it was queued with.
// Generations only rise and pools published after the scan carry higher
// ones, so an unchanged head is still the table's minimum: the victims and
// their order are exactly those of a full scan per victim. A changed head
// empties the queue, and the eviction scans again.
type evictor struct {
	queue []evictCand
}

// evictCand is one queued pool and the generation it was queued with.
type evictCand struct {
	gen uint64
	id  string
}

// evictOver drops pools until the table fits the budget and returns how
// many it dropped. The table is not yet published, so mutation is safe.
func (ev *evictor) evictOver(pools *poolTable) int64 {
	var n int64
	for pools.n > MaxCachedFacts {
		id, ok := ev.pop(pools)
		if !ok {
			ev.scan(pools)
			id = ev.queue[0].id
			ev.queue = ev.queue[1:]
		}
		pools.del(id)
		n++
	}
	return n
}

// pop dequeues the head if its pool's generation is unchanged. Heads
// whose pool has left the table are dropped on the way.
func (ev *evictor) pop(pools *poolTable) (string, bool) {
	for len(ev.queue) > 0 {
		c := ev.queue[0]
		p, ok := pools.get(c.id)
		if ok && p.lastUsed.Load() != c.gen {
			ev.queue = ev.queue[:0]
			return "", false
		}
		ev.queue = ev.queue[1:]
		if ok {
			return c.id, true
		}
	}
	return "", false
}

// scan queues every pool of the table by (generation, fact ID).
func (ev *evictor) scan(pools *poolTable) {
	q := ev.queue[:0]
	for _, shard := range pools.shards {
		for id, p := range shard {
			q = append(q, evictCand{gen: p.lastUsed.Load(), id: id})
		}
	}
	slices.SortFunc(q, func(a, b evictCand) int {
		if c := cmp.Compare(a.gen, b.gen); c != 0 {
			return c
		}
		return strings.Compare(a.id, b.id)
	})
	ev.queue = q
}

// materialize generates the fact's compact pool from the source, replays
// its ingestion log on top, and builds the inverted index over the
// variants' embeddings.
func (e *Engine) materialize(f *dataset.Fact, appended []*ingestedDoc, epoch uint64) *factPool {
	cp := e.gen.Materialize(f)
	p := &factPool{
		factID: f.ID,
		slug:   cp.Slug,
		rows:   cp.Rows,
		vars:   cp.Variants,
		splits: make([]lazySplit, len(cp.Variants)),
		epoch:  epoch,
	}
	p.index(appended)
	return p
}

// index installs the pool's ingested documents and builds its row map and
// its index: the generated variants in order, then one document per
// ingested row.
func (p *factPool) index(ingested []*ingestedDoc) {
	p.ingested = ingested
	p.rowDoc = make([]int32, p.len())
	for i, r := range p.rows {
		p.rowDoc[i] = int32(r.Variant)
	}
	for j := range ingested {
		p.rowDoc[len(p.rows)+j] = int32(len(p.vars) + j)
	}
	p.idx = index.Build(len(p.vars)+len(ingested), func(d int) text.SparseVector {
		if d < len(p.vars) {
			return p.vars[d].Vec
		}
		return ingested[d-len(p.vars)].v.Vec
	})
}

// foldPool extends a pool with newly ingested documents: the new version
// shares the generated rows and variants and re-indexes, so it equals the
// pool a cold materialisation at the new epoch builds.
func foldPool(p *factPool, appended []*ingestedDoc, epoch uint64) *factPool {
	np := &factPool{
		factID: p.factID,
		slug:   p.slug,
		rows:   p.rows,
		vars:   p.vars,
		splits: p.splits,
		epoch:  epoch,
	}
	ingested := make([]*ingestedDoc, 0, len(p.ingested)+len(appended))
	np.index(append(append(ingested, p.ingested...), appended...))
	return np
}

// Warm materialises the fact's pool and index so later queries hit a warm
// snapshot; it is safe to call concurrently and redundantly.
func (e *Engine) Warm(factID string) error {
	_, err := e.pool(factID)
	return err
}

// Search implements Searcher: Pool plus Pool.Search, converted to
// wire-form SERP items. A fact that fails to resolve is still timed into
// the search_query histogram, so it counts one observation per call.
func (e *Engine) Search(factID, query string, n int) ([]SERPItem, error) {
	start := time.Now()
	pl, err := e.Pool(factID)
	if err != nil {
		queryHist.Observe(time.Since(start))
		return nil, err
	}
	hits := pl.Search(query, n, nil)
	pl.Rank(hits)
	out := make([]SERPItem, len(hits))
	for i, h := range hits {
		d := pl.p.payload(h.Row)
		out[i] = SERPItem{
			DocID: d.DocID,
			URL:   d.URL,
			Host:  d.Host,
			Title: d.Title,
			Rank:  i + 1,
			Score: h.Score,
		}
	}
	return out, nil
}

// PoolSearcher is implemented by searchers that hand out in-process pool
// snapshots. The Engine implements it; the HTTP client does not, so the
// RAG pipeline reads rows in place only when retrieval runs in-process.
type PoolSearcher interface {
	// Pool returns a handle on the fact's current pool snapshot.
	Pool(factID string) (Pool, error)
}

// Pool is a read handle on one immutable snapshot of a fact's document
// pool. Every read through it — searches and row accessors — sees the
// corpus epoch the snapshot was built at, however many ingestions land
// meanwhile. Rows are pool positions in [0, Len()).
type Pool struct {
	e *Engine
	p *factPool
}

// Hit is one row of a pool snapshot with its score for a query.
type Hit = index.Hit

// Pool implements PoolSearcher. It counts one store hit (or miss) per
// call, however many searches and reads run on the handle.
func (e *Engine) Pool(factID string) (Pool, error) {
	p, err := e.pool(factID)
	if err != nil {
		return Pool{}, err
	}
	return Pool{e: e, p: p}, nil
}

// serpJitterScale is the magnitude of the deterministic per-(query, doc)
// SERP perturbation, serpJitterScale·det.Uniform("serp", query, docID):
// SERPs rank by more than lexical relevance (authority, freshness).
const serpJitterScale = 0.05

// Search appends the pool's top n rows for the query to dst (n <= 0 means
// DefaultSERPSize) and returns it. Relevance is the cosine of the query
// to title+body with a small deterministic tie-break jitter, mimicking the
// opaque ordering of a web SERP: the cosine of the query against every
// row's text plus serpJitterScale·det.Uniform("serp", query, docID). The
// hits are the first n rows under (score desc, doc ID asc), appended as a
// set in ascending row order; Rank orders them as the SERP lists them.
// The cosine is accumulated once per distinct variant text
// (index.Index.TopK), not once per row. With a dst of capacity n the call
// allocates the same whatever n is: no result is copied beyond dst.
func (pl Pool) Search(query string, n int, dst []Hit) []Hit {
	start := time.Now()
	if n <= 0 {
		n = DefaultSERPSize
	}
	p := pl.p
	// One partial hash covers ("serp", query) and the rows' shared
	// "<fact ID>-d" ID prefix; each row extends it with its sequence
	// digits only. Values equal det.Uniform("serp", query, docID).
	key := det.NewKey("serp", query).Cont(p.factID).Cont("-d")
	e := pl.e
	a := e.arena()
	dst = p.idx.TopK(text.SparseEmbed(query), n, p.rowDoc, func(row int) float64 {
		return serpJitterScale * key.Uniform(corpus.SeqDigits(p.seq(row)))
	}, p.cmpIDs, dst, a)
	e.retrieval.queries.Add(1)
	e.retrieval.postingsTouched.Add(int64(a.Stats.PostingsTouched))
	e.retrieval.docsScored.Add(int64(a.Stats.DocsScored))
	e.release(a)
	queryHist.Observe(time.Since(start))
	return dst
}

// Rank orders hits of the snapshot by (score desc, doc ID asc), the order
// of a SERP page: Search's hits, ranked, are the page Engine.Search
// serves. The order is total, since a pool's doc IDs are unique.
func (pl Pool) Rank(hits []Hit) { slices.SortFunc(hits, pl.cmp) }

// RankTop returns the first k hits of Rank's order, ranked, without
// sorting the rest: hits[:k] ends up holding them, and hits[k:] the others
// in no particular order. With at most k hits it ranks them all.
func (pl Pool) RankTop(hits []Hit, k int) []Hit {
	top := hits[:min(max(k, 0), len(hits))]
	pl.Rank(top)
	for i := len(top); i < len(hits) && len(top) > 0; i++ {
		// A better hit displaces the worst kept one and sinks into place.
		if j := len(top) - 1; pl.cmp(hits[i], top[j]) < 0 {
			hits[i], top[j] = top[j], hits[i]
			for ; j > 0 && pl.cmp(top[j], top[j-1]) < 0; j-- {
				top[j], top[j-1] = top[j-1], top[j]
			}
		}
	}
	return top
}

// cmp is Rank's order: score desc, then doc ID asc.
func (pl Pool) cmp(a, b Hit) int {
	switch {
	case a.Score > b.Score:
		return -1
	case a.Score < b.Score:
		return 1
	}
	return pl.p.cmpIDs(a.Row, b.Row)
}

// Len returns the number of rows in the snapshot.
func (pl Pool) Len() int { return pl.p.len() }

// ID returns the row's doc ID.
func (pl Pool) ID(row int) string { return pl.p.id(row) }

// Host returns the row's host.
func (pl Pool) Host(row int) string { return pl.p.host(row) }

// Usable reports whether the row carries evidence: its extraction did not
// fail and its body is non-empty.
func (pl Pool) Usable(row int) bool { return pl.p.usable(row) }

// Variant returns the number of the row's text among the snapshot's
// NumVariants distinct texts. Rows of one variant share Vec and Full.
func (pl Pool) Variant(row int) int { return int(pl.p.rowDoc[row]) }

// NumVariants returns the number of distinct texts the rows read.
func (pl Pool) NumVariants() int { return pl.p.idx.Docs() }

// Vec returns the row's precomputed sparse embedding of Full, bit-identical
// to text.SparseEmbed(Full(row)). It aliases the pool: do not modify it.
func (pl Pool) Vec(row int) text.SparseVector {
	v, _ := pl.p.variant(row)
	return v.Vec
}

// Full returns the row's "Title + body" rerank-candidate string.
func (pl Pool) Full(row int) string {
	v, _ := pl.p.variant(row)
	return v.Full
}

// Payload returns the row's wire-form document, as Fetch returns it.
func (pl Pool) Payload(row int) DocPayload { return pl.p.payload(row) }

// Chunks returns the row's sliding windows of `window` sentences from its
// variant's cached sentence split — output-identical to
// chunk.Sliding(ID(row), body, window).
func (pl Pool) Chunks(row, window int) []chunk.Chunk {
	v, sp := pl.p.variant(row)
	return sp.get(v.Text).Windows(pl.p.id(row), window)
}

// Fetch implements Searcher with an O(1) row lookup.
func (e *Engine) Fetch(docID string) (DocPayload, error) {
	p, row, err := e.lookup(docID)
	if err != nil {
		return DocPayload{}, err
	}
	return p.payload(row), nil
}

// DocEvidence is a fetched document together with its precomputed scoring
// state: the full "Title + body" rerank-candidate string, the sparse
// embedding of that string (computed once at materialisation), and access
// to the shared sentence split behind sliding-window chunking. It is
// wire-side only: the RAG pipeline uses it over searchers that wrap the
// Engine without exposing PoolSearcher, instead of re-embedding and
// re-splitting every candidate per fact; over the Engine itself it reads
// the same state from pool rows (Pool.Vec, Pool.Full, Pool.Chunks).
type DocEvidence struct {
	DocPayload
	// Full is Title + " " + Text, the exact candidate string document
	// rerankers score (Text aliases its tail; no extra copy).
	Full string
	// Vec is the precomputed sparse embedding of Full, bit-identical to
	// text.SparseEmbed(Full).
	Vec text.SparseVector

	split *lazySplit
}

// Chunks returns the document's sliding windows of `window` sentences from
// its variant's cached sentence split — output-identical to
// chunk.Sliding(DocID, Text, window).
func (d DocEvidence) Chunks(window int) []chunk.Chunk {
	return d.split.get(d.Text).Windows(d.DocID, window)
}

// EvidenceFetcher is implemented by wire-side searchers whose doc table
// carries precomputed per-document scoring state: the Engine and wrappers
// around it that hide PoolSearcher. The HTTP client does not implement it
// (vectors don't travel over the mock API), so consumers fall back to
// Fetch plus on-the-fly embedding.
type EvidenceFetcher interface {
	// FetchEvidence retrieves a document with its precomputed vector and
	// chunk state.
	FetchEvidence(docID string) (DocEvidence, error)
}

// FetchEvidence implements EvidenceFetcher.
func (e *Engine) FetchEvidence(docID string) (DocEvidence, error) {
	p, row, err := e.lookup(docID)
	if err != nil {
		return DocEvidence{}, err
	}
	v, sp := p.variant(row)
	return DocEvidence{
		DocPayload: p.payload(row),
		Full:       v.Full,
		Vec:        v.Vec,
		split:      sp,
	}, nil
}

// lookup resolves a doc ID to its pool and row.
func (e *Engine) lookup(docID string) (*factPool, int, error) {
	factID, seq, ok := parseDocID(docID)
	if !ok {
		return nil, 0, fmt.Errorf("search: %w %q", ErrMalformedDocID, docID)
	}
	p, err := e.pool(factID)
	if err != nil {
		return nil, 0, err
	}
	row, ok := p.row(docID[len(factID)+len("-d"):], seq)
	if !ok {
		return nil, 0, fmt.Errorf("search: %w %q", ErrUnknownDoc, docID)
	}
	return p, row, nil
}

// row returns the row whose doc ID ends in the sequence digits digits,
// which spell seq (-1 when they overflow). Generated documents sit at
// their sequence number; ingested ones follow in sequence order from the
// first ingested document's number. Comparing the digits with the row's
// own rejects every other spelling of a number (extra or missing zero
// padding).
func (p *factPool) row(digits string, seq int) (int, bool) {
	i := seq
	if seq >= len(p.rows) && len(p.ingested) > 0 {
		i = len(p.rows) + seq - p.ingested[0].seq
		if i < len(p.rows) {
			return 0, false
		}
	}
	if i < 0 || i >= p.len() || corpus.SeqDigits(p.seq(i)) != digits {
		return 0, false
	}
	return i, true
}

// Stats summarises the snapshot's state and the retrieval kernel's
// cumulative work counters.
type Stats struct {
	// Facts is the number of known facts; CachedFacts of them are currently
	// materialised (in-flight materialisations included).
	Facts       int `json:"facts"`
	CachedFacts int `json:"cached_facts"`
	// IndexedDocs counts the cached pools' documents; Postings counts
	// their indexes' postings, one set per distinct variant text.
	IndexedDocs int `json:"indexed_docs"`
	Postings    int `json:"postings"`
	// Hits and Misses count pool reads that found the fact's pool
	// materialised (or in flight) and that materialised it: one per Pool,
	// Search, Fetch or FetchEvidence call, so one per in-process RAG
	// retrieval.
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Evicted int64 `json:"evicted"`
	// Epoch is the snapshot publication sequence number; IngestedDocs
	// counts live-ingested documents across all facts.
	Epoch        uint64 `json:"epoch"`
	IngestedDocs int    `json:"ingested_docs"`
	// SearchQueries counts top-k queries (Pool.Search, which Search runs);
	// PostingsTouched accumulates the variant postings they read and
	// DocsScored the rows they scored.
	SearchQueries   int64 `json:"search_queries"`
	PostingsTouched int64 `json:"postings_touched"`
	DocsScored      int64 `json:"docs_scored"`
}

// Stats returns a point-in-time snapshot of the store. In-flight
// materialisations count as cached facts but contribute no document or
// posting counts (the snapshot never blocks on them).
func (e *Engine) Stats() Stats {
	sn := e.snap.Load()
	st := Stats{
		Facts:           len(e.facts),
		CachedFacts:     sn.pools.n,
		Epoch:           sn.gen,
		Hits:            e.hits.Load(),
		Misses:          e.misses.Load(),
		Evicted:         e.evicted.Load(),
		SearchQueries:   e.retrieval.queries.Load(),
		PostingsTouched: e.retrieval.postingsTouched.Load(),
		DocsScored:      e.retrieval.docsScored.Load(),
	}
	for _, shard := range sn.pools.shards {
		for _, p := range shard {
			st.IndexedDocs += p.len()
			st.Postings += p.idx.Postings()
		}
	}
	e.mu.Lock()
	st.CachedFacts += len(e.inflight)
	for _, l := range e.log {
		st.IngestedDocs += len(l)
	}
	e.mu.Unlock()
	return st
}

// maxDocSeq bounds the sequence numbers parseDocID reports; larger
// numbers name no document.
const maxDocSeq = 1 << 40

// parseDocID splits the "-dNNNN" suffix corpus.DocID appends off a doc ID,
// returning the fact ID and the sequence number (-1 when it exceeds
// maxDocSeq). It requires a non-empty fact ID followed by a "-d" marker
// and at least one digit, rejecting malformed IDs such as "", "x-",
// "x-q1", "x-d" and IDs with a trailing dash.
func parseDocID(docID string) (factID string, seq int, ok bool) {
	i := len(docID) - 1
	for i >= 0 && docID[i] != '-' {
		i--
	}
	// Need a non-empty fact ID before the dash, a 'd' after it, and ≥1
	// digit after the 'd'.
	if i <= 0 || i+2 >= len(docID) || docID[i+1] != 'd' {
		return "", 0, false
	}
	for j := i + 2; j < len(docID); j++ {
		c := docID[j]
		if c < '0' || c > '9' {
			return "", 0, false
		}
		if seq >= 0 {
			seq = seq*10 + int(c-'0')
			if seq > maxDocSeq {
				seq = -1
			}
		}
	}
	return docID[:i], seq, true
}
