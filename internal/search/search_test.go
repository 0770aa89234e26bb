package search

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"factcheck/internal/corpus"
	"factcheck/internal/dataset"
	"factcheck/internal/verbalize"
	"factcheck/internal/world"
)

func fixture(t *testing.T) (*Engine, *dataset.Dataset) {
	t.Helper()
	w := world.New(world.SmallConfig())
	d := dataset.Build(w, dataset.FactBench, 0.2)
	gen := corpus.NewGenerator(w)
	return NewEngine(gen, d), d
}

func TestSearchReturnsRankedResults(t *testing.T) {
	e, d := fixture(t)
	f := d.Facts[0]
	q := verbalize.Sentence(f)
	items, err := e.Search(f.ID, q, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) == 0 {
		t.Fatal("no results")
	}
	if len(items) > 20 {
		t.Fatalf("got %d results, want <= 20", len(items))
	}
	for i, it := range items {
		if it.Rank != i+1 {
			t.Errorf("rank %d at position %d", it.Rank, i)
		}
		if i > 0 && items[i].Score > items[i-1].Score {
			t.Errorf("scores not descending at %d", i)
		}
		if it.DocID == "" || it.URL == "" || it.Host == "" {
			t.Errorf("result %d missing fields: %+v", i, it)
		}
	}
}

func TestSearchDeterministic(t *testing.T) {
	e, d := fixture(t)
	f := d.Facts[1]
	a, _ := e.Search(f.ID, "some query", 10)
	b, _ := e.Search(f.ID, "some query", 10)
	if len(a) != len(b) {
		t.Fatal("result counts differ")
	}
	for i := range a {
		if a[i].DocID != b[i].DocID {
			t.Fatalf("result %d differs", i)
		}
	}
}

func TestSearchUnknownFact(t *testing.T) {
	e, _ := fixture(t)
	if _, err := e.Search("nope-000001", "q", 10); err == nil {
		t.Fatal("expected error for unknown fact")
	}
}

func TestSearchRelevantFirst(t *testing.T) {
	e, d := fixture(t)
	f := d.Facts[2]
	q := verbalize.Sentence(f)
	items, err := e.Search(f.ID, q, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Top results for the assertion query should mention the subject.
	top := items[0]
	if !strings.Contains(top.Title, f.Subject.Label) {
		t.Errorf("top result title %q does not mention subject %q", top.Title, f.Subject.Label)
	}
}

func TestFetch(t *testing.T) {
	e, d := fixture(t)
	f := d.Facts[0]
	items, _ := e.Search(f.ID, "anything", 5)
	doc, err := e.Fetch(items[0].DocID)
	if err != nil {
		t.Fatal(err)
	}
	if doc.DocID != items[0].DocID || doc.URL != items[0].URL {
		t.Error("fetched doc metadata mismatch")
	}
	if doc.Empty && doc.Text != "" {
		t.Error("empty doc carries text")
	}
}

func TestFetchErrors(t *testing.T) {
	e, d := fixture(t)
	tests := []struct {
		docID   string
		wantMsg string
	}{
		{"malformed", "malformed doc id"},
		{"", "malformed doc id"},
		{"x-", "malformed doc id"},
		{"x-q1", "malformed doc id"},
		{"x-d", "malformed doc id"},
		{d.Facts[0].ID + "-d9999-", "malformed doc id"}, // trailing dash
		{"unknown-000001-d0001", "unknown fact"},
		{d.Facts[0].ID + "-d99999", "unknown document"}, // valid fact, out-of-pool doc
	}
	for _, tc := range tests {
		_, err := e.Fetch(tc.docID)
		if err == nil {
			t.Errorf("Fetch(%q) succeeded, want %q error", tc.docID, tc.wantMsg)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantMsg) {
			t.Errorf("Fetch(%q) error = %v, want it to mention %q", tc.docID, err, tc.wantMsg)
		}
	}
}

func TestFactIDOfDoc(t *testing.T) {
	tests := []struct {
		in   string
		want string
		seq  int
		ok   bool
	}{
		{"factbench-000105-d0100", "factbench-000105", 100, true},
		{"yago-000001-d0", "yago-000001", 0, true},
		{"x-d7", "x", 7, true},
		{"x-d00001", "x", 1, true},                       // non-canonical padding still parses
		{"x-d1099511627776", "x", 1 << 40, true},         // maxDocSeq itself
		{"x-d1099511627777", "x", -1, true},              // past maxDocSeq
		{"x-d99999999999999999999999999", "x", -1, true}, // overflows int64
		{"", "", 0, false},                               // empty
		{"nodashsuffix", "", 0, false},                   // no dash at all
		{"x-", "", 0, false},                             // dash with nothing after
		{"x-q1", "", 0, false},                           // non-d marker
		{"x-d", "", 0, false},                            // marker with no digits
		{"x-dxyz", "", 0, false},                         // marker with non-digit suffix
		{"x-d01-", "", 0, false},                         // trailing dash
		{"-d0001", "", 0, false},                         // empty fact id
		{"fact-x9999", "", 0, false},
	}
	for _, tc := range tests {
		id, seq, ok := parseDocID(tc.in)
		if id != tc.want || seq != tc.seq || ok != tc.ok {
			t.Errorf("parseDocID(%q) = (%q, %d, %v), want (%q, %d, %v)", tc.in, id, seq, ok, tc.want, tc.seq, tc.ok)
		}
	}
}

// TestSearchIndexedMatchesScan is the golden differential ladder: for
// several facts and queries, the variant index path (Search) and the
// retired per-document linear scan (ScanSearch) must agree byte for byte —
// same documents, same order, same float64 scores. The kernel's own
// references are pinned by internal/index's ladder.
func TestSearchIndexedMatchesScan(t *testing.T) {
	e, d := fixture(t)
	if len(d.Facts) < 3 {
		t.Fatalf("fixture has %d facts, need >= 3", len(d.Facts))
	}
	for _, f := range d.Facts[:3] {
		queries := []string{
			verbalize.Sentence(f),
			"who founded the company",
			f.Subject.Label,
			"completely unrelated noise query",
			"the record " + f.Object.Label,
		}
		for _, q := range queries {
			for _, n := range []int{1, 10, DefaultSERPSize, 10000} {
				checkSearchMatchesScan(t, e, f.ID, q, n)
			}
		}
	}
}

// checkSearchMatchesScan asserts Search == ScanSearch for one query.
func checkSearchMatchesScan(t *testing.T, e *Engine, factID, q string, n int) {
	t.Helper()
	got, err := e.Search(factID, q, n)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := e.ScanSearch(factID, q, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(scan) {
		t.Fatalf("fact %s q=%q n=%d: Search %d, scan %d results", factID, q, n, len(got), len(scan))
	}
	for i := range scan {
		if got[i] != scan[i] {
			t.Fatalf("fact %s q=%q n=%d result %d:\nSearch %+v\nscan   %+v", factID, q, n, i, got[i], scan[i])
		}
	}
}

// TestSearchWithIngestionMatchesScan extends the differential ladder to
// pools holding ingested rows — some repeating a generated document's text
// and each other's, so ties cross the generated and ingested rows — folded
// into warm pools and replayed into cold ones, and to a pool whose
// sequence numbers pass 10,000, where doc-ID order leaves numeric order.
func TestSearchWithIngestionMatchesScan(t *testing.T) {
	w := world.New(world.SmallConfig())
	d := dataset.Build(w, dataset.FactBench, 0.2)
	big := corpus.NewGenerator(w)
	big.MeanDocs *= 40
	big.StdDocs *= 40
	big.MaxDocs *= 40
	// edge's pool is the largest one short of sequence number 10,000.
	var edge *dataset.Fact
	for _, f := range d.Facts {
		if n := big.PoolSize(f); n < 10000 && (edge == nil || n > big.PoolSize(edge)) {
			edge = f
		}
	}
	if n := big.PoolSize(edge); n < 9000 {
		t.Fatalf("largest 40× pool short of 10,000 documents holds only %d", n)
	}
	for _, tc := range []struct {
		gen   *corpus.Generator
		facts []*dataset.Fact
	}{
		{corpus.NewGenerator(w), d.Facts[:2]},
		{big, []*dataset.Fact{edge}},
	} {
		// The first fact's ingestion folds into its warm pool; any other
		// fact's replays when it materialises.
		e := NewEngine(tc.gen, d)
		if err := e.Warm(tc.facts[0].ID); err != nil {
			t.Fatal(err)
		}
		for batch := 0; batch < 3; batch++ {
			var docs []IngestDoc
			for _, f := range tc.facts {
				cp := tc.gen.Materialize(f)
				copied := cp.Variants[cp.Rows[batch].Variant]
				docs = append(docs, streamBatch(tc.gen, f, 4*batch, 4)...)
				docs = append(docs,
					IngestDoc{FactID: f.ID, Title: copied.Title, Text: copied.Text},
					IngestDoc{FactID: f.ID, Title: "Same page", Text: "Same words."},
					IngestDoc{FactID: f.ID, Title: "Same page", Text: "Same words."})
			}
			if _, err := e.Ingest(docs); err != nil {
				t.Fatal(err)
			}
		}
		// Carry every pool's ingested sequence numbers past 10,000.
		for _, f := range tc.facts {
			var bulk []IngestDoc
			for seq := ingestBase(tc.gen.PoolSize(f)) + 18; seq < 10010; seq++ {
				bulk = append(bulk, IngestDoc{FactID: f.ID, Title: "Bulk page", Text: fmt.Sprintf("Bulk words %d.", seq%7)})
			}
			if _, err := e.Ingest(bulk); err != nil {
				t.Fatal(err)
			}
		}
		for _, f := range tc.facts {
			for _, q := range []string{verbalize.Sentence(f), "Same page Same words", f.Subject.Label, "noise"} {
				for _, n := range []int{1, 10, DefaultSERPSize, 100000} {
					checkSearchMatchesScan(t, e, f.ID, q, n)
				}
			}
			pl, err := e.Pool(f.ID)
			if err != nil {
				t.Fatal(err)
			}
			for a := 0; a < pl.Len(); a += 1 + a/50 {
				for b := pl.Len() - 1; b >= 0; b -= 1 + b/50 {
					if got, want := pl.p.cmpIDs(a, b), strings.Compare(pl.ID(a), pl.ID(b)); got != want {
						t.Fatalf("cmpIDs(%s, %s) = %d, want %d", pl.ID(a), pl.ID(b), got, want)
					}
				}
			}
		}
	}
}

// TestRetrievalCounters asserts the retrieval counters surfaced via
// Engine.Stats move when queries run: each query reads each distinct
// variant's postings once and ranks every row.
func TestRetrievalCounters(t *testing.T) {
	e, d := fixture(t)
	f := d.Facts[0]
	before := e.Stats()
	if before.SearchQueries != 0 || before.PostingsTouched != 0 {
		t.Fatalf("fresh engine has non-zero retrieval counters: %+v", before)
	}
	for i := 0; i < 5; i++ {
		q := verbalize.Sentence(f)
		if _, err := e.Search(f.ID, fmt.Sprintf("%s %d", q, i), 3); err != nil {
			t.Fatal(err)
		}
	}
	after := e.Stats()
	if after.SearchQueries != 5 {
		t.Errorf("SearchQueries = %d, want 5", after.SearchQueries)
	}
	if after.PostingsTouched <= 0 || after.DocsScored <= 0 {
		t.Errorf("retrieval counters did not move: %+v", after)
	}
	if after.DocsScored != 5*int64(after.IndexedDocs) {
		t.Errorf("DocsScored = %d, want every one of the %d rows ranked per query", after.DocsScored, after.IndexedDocs)
	}
	if after.PostingsTouched > 5*int64(after.Postings) {
		t.Errorf("PostingsTouched = %d, more than the %d postings per query", after.PostingsTouched, after.Postings)
	}
}

// barrierSource proves materialisations of distinct facts run concurrently:
// each Materialize call signals arrival and then blocks until released, so
// if the engine serialised materialisation (the old global-mutex behaviour)
// the second arrival would never happen.
type barrierSource struct {
	PoolSource
	arrived chan string
	release chan struct{}
}

func (b *barrierSource) Materialize(f *dataset.Fact) *corpus.Pool {
	b.arrived <- f.ID
	<-b.release
	return b.PoolSource.Materialize(f)
}

// TestMaterializeConcurrentFacts is the regression test for the old engine
// holding one global mutex across pool generation: two different facts must
// be able to materialise at the same time.
func TestMaterializeConcurrentFacts(t *testing.T) {
	w := world.New(world.SmallConfig())
	d := dataset.Build(w, dataset.FactBench, 0.2)
	src := &barrierSource{
		PoolSource: corpus.NewGenerator(w),
		arrived:    make(chan string, 2),
		release:    make(chan struct{}),
	}
	e := NewEngine(src, d)

	var wg sync.WaitGroup
	for _, f := range d.Facts[:2] {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			if _, err := e.Search(id, "q", 5); err != nil {
				t.Error(err)
			}
		}(f.ID)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-src.arrived:
		case <-time.After(10 * time.Second):
			t.Fatal("second materialisation never started: materialisations are serialised")
		}
	}
	close(src.release)
	wg.Wait()
}

// TestSingleflightMaterialization asserts concurrent searches for the SAME
// fact trigger exactly one materialisation.
func TestSingleflightMaterialization(t *testing.T) {
	w := world.New(world.SmallConfig())
	d := dataset.Build(w, dataset.FactBench, 0.2)
	var calls atomic.Int64
	src := &countingSource{PoolSource: corpus.NewGenerator(w), calls: &calls}
	e := NewEngine(src, d)
	f := d.Facts[0]

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Search(f.ID, "q", 5); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("fact materialised %d times, want 1 (singleflight)", n)
	}
}

type countingSource struct {
	PoolSource
	calls *atomic.Int64
}

func (c *countingSource) Materialize(f *dataset.Fact) *corpus.Pool {
	c.calls.Add(1)
	return c.PoolSource.Materialize(f)
}

func TestEngineCacheEviction(t *testing.T) {
	e, d := fixture(t)
	for _, f := range d.Facts {
		if _, err := e.Search(f.ID, "q", 1); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	// The published snapshot never exceeds the budget: eviction happens at
	// publish time, before the pointer store.
	if st.CachedFacts > MaxCachedFacts {
		t.Fatalf("store grew to %d facts, cap %d", st.CachedFacts, MaxCachedFacts)
	}
	if sn := e.snap.Load(); sn.pools.n != st.CachedFacts {
		t.Errorf("snapshot holds %d pools but stats report %d cached facts", sn.pools.n, st.CachedFacts)
	}
	if len(d.Facts) > MaxCachedFacts && st.Evicted == 0 {
		t.Errorf("%d facts searched over cap %d but nothing evicted", len(d.Facts), MaxCachedFacts)
	}
	// Evicted facts must still be searchable (re-materialised on demand).
	if _, err := e.Search(d.Facts[0].ID, "q", 1); err != nil {
		t.Fatalf("evicted fact no longer searchable: %v", err)
	}
}

// TestEvictOver unit-tests publish-time eviction: pools with the oldest
// last-use generation go first, generation ties break deterministically by
// fact ID, and recently used pools survive.
func TestEvictOver(t *testing.T) {
	mk := func(gen uint64) *factPool {
		p := &factPool{}
		p.lastUsed.Store(gen)
		return p
	}
	var pools poolTable
	// MaxCachedFacts+2 pools: two must go. f0000 and f0001 share the oldest
	// generation with f0002; the ID tie-break drops the lexicographically
	// smallest first.
	for i := 0; i < MaxCachedFacts+2; i++ {
		gen := uint64(10)
		if i < 3 {
			gen = 1
		}
		pools.put(fmt.Sprintf("f%04d", i), mk(gen))
	}
	var ev evictor
	if n := ev.evictOver(&pools); n != 2 {
		t.Fatalf("evicted %d pools, want 2", n)
	}
	if _, ok := pools.get("f0000"); ok {
		t.Error("oldest pool f0000 survived")
	}
	if _, ok := pools.get("f0001"); ok {
		t.Error("second-oldest pool f0001 survived")
	}
	if _, ok := pools.get("f0002"); !ok {
		t.Error("f0002 evicted although only two slots were over budget")
	}
	if pools.n != MaxCachedFacts {
		t.Errorf("pools.n = %d, want %d", pools.n, MaxCachedFacts)
	}
	total := 0
	for _, shard := range pools.shards {
		total += len(shard)
	}
	if total != MaxCachedFacts {
		t.Errorf("shards hold %d pools, want %d", total, MaxCachedFacts)
	}
}

// TestPoolReadRefreshesClock asserts the warm read path refreshes the
// pool's last-used generation to the snapshot's, so publish-time eviction
// sees recent readers.
func TestPoolReadRefreshesClock(t *testing.T) {
	e, d := fixture(t)
	f0, f1 := d.Facts[0], d.Facts[1]
	if err := e.Warm(f0.ID); err != nil {
		t.Fatal(err)
	}
	if err := e.Warm(f1.ID); err != nil { // advances the snapshot generation
		t.Fatal(err)
	}
	sn := e.snap.Load()
	p0, _ := sn.pools.get(f0.ID)
	if p0.lastUsed.Load() == sn.gen {
		t.Fatal("f0's clock already current; fixture lost its staleness")
	}
	if _, err := e.Search(f0.ID, "q", 1); err != nil {
		t.Fatal(err)
	}
	if got := p0.lastUsed.Load(); got != sn.gen {
		t.Errorf("after warm read, lastUsed = %d, want snapshot gen %d", got, sn.gen)
	}
}

func TestEngineStats(t *testing.T) {
	e, d := fixture(t)
	if st := e.Stats(); st.CachedFacts != 0 || st.IndexedDocs != 0 {
		t.Fatalf("fresh engine stats non-zero: %+v", st)
	}
	f := d.Facts[0]
	if _, err := e.Search(f.ID, "q", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Search(f.ID, "q2", 1); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.CachedFacts != 1 {
		t.Errorf("CachedFacts = %d, want 1", st.CachedFacts)
	}
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", st.Hits, st.Misses)
	}
	if st.Facts != len(d.Facts) {
		t.Errorf("Facts = %d, want %d", st.Facts, len(d.Facts))
	}
	// The indexed-doc count must equal the fact's pool size.
	all, err := e.Search(f.ID, "q", 100000)
	if err != nil {
		t.Fatal(err)
	}
	if st.IndexedDocs != len(all) {
		t.Errorf("IndexedDocs = %d, want pool size %d", st.IndexedDocs, len(all))
	}
}

func TestWarm(t *testing.T) {
	e, d := fixture(t)
	f := d.Facts[0]
	if err := e.Warm(f.ID); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.CachedFacts != 1 || st.IndexedDocs == 0 {
		t.Errorf("Warm did not materialise: %+v", st)
	}
	if err := e.Warm("nope-000001"); err == nil {
		t.Error("Warm accepted unknown fact")
	}
}

// --- mock API over HTTP ---

func apiServer(t *testing.T) (*httptest.Server, *Engine, *dataset.Dataset) {
	t.Helper()
	e, d := fixture(t)
	srv := httptest.NewServer(NewAPI(e).Handler())
	t.Cleanup(srv.Close)
	return srv, e, d
}

func TestAPISearchAndFetch(t *testing.T) {
	srv, eng, d := apiServer(t)
	c := NewClient(srv.URL)
	f := d.Facts[0]

	items, err := c.Search(f.ID, "test query", 7)
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := eng.Search(f.ID, "test query", 7)
	if len(items) != len(direct) {
		t.Fatalf("HTTP results %d != engine results %d", len(items), len(direct))
	}
	for i := range items {
		if items[i].DocID != direct[i].DocID {
			t.Fatalf("HTTP result %d differs from engine", i)
		}
	}

	doc, err := c.Fetch(items[0].DocID)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := eng.Fetch(items[0].DocID)
	if doc.Text != want.Text {
		t.Error("fetched text differs between HTTP and engine")
	}
}

func TestAPIFactIDs(t *testing.T) {
	srv, eng, _ := apiServer(t)
	c := NewClient(srv.URL)
	ids, err := c.FactIDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(eng.FactIDs()) {
		t.Fatalf("HTTP fact ids %d != engine %d", len(ids), len(eng.FactIDs()))
	}
}

func TestAPIErrorStatuses(t *testing.T) {
	srv, _, d := apiServer(t)
	get := func(path string) int {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if s := get("/search"); s != http.StatusBadRequest {
		t.Errorf("missing params: status %d, want 400", s)
	}
	if s := get("/search?fact_id=unknown-1&q=x"); s != http.StatusNotFound {
		t.Errorf("unknown fact: status %d, want 404", s)
	}
	if s := get("/search?fact_id=" + d.Facts[0].ID + "&q=x&num=bogus"); s != http.StatusBadRequest {
		t.Errorf("bad num: status %d, want 400", s)
	}
	if s := get("/document?doc_id=unknown-000001-d0001"); s != http.StatusNotFound {
		t.Errorf("unknown doc: status %d, want 404", s)
	}
	if s := get("/healthz"); s != http.StatusOK {
		t.Errorf("healthz: status %d, want 200", s)
	}
}

func TestClientErrorMessage(t *testing.T) {
	srv, _, _ := apiServer(t)
	c := NewClient(srv.URL)
	_, err := c.Search("unknown-fact-1", "q", 5)
	if err == nil || !strings.Contains(err.Error(), "unknown fact") {
		t.Errorf("client error = %v, want server message propagated", err)
	}
}

// TestAPIDocumentErrorJSON asserts the /document handler distinguishes
// malformed doc IDs (400) from missing ones (404), always with a JSON error
// body.
func TestAPIDocumentErrorJSON(t *testing.T) {
	srv, _, d := apiServer(t)
	tests := []struct {
		path       string
		wantStatus int
		wantMsg    string
	}{
		{"/document?doc_id=malformed", http.StatusBadRequest, "malformed doc id"},
		{"/document?doc_id=x-q1", http.StatusBadRequest, "malformed doc id"},
		{"/document?doc_id=unknown-000001-d0001", http.StatusNotFound, "unknown fact"},
		{"/document?doc_id=" + d.Facts[0].ID + "-d99999", http.StatusNotFound, "unknown document"},
		{"/document", http.StatusBadRequest, "doc_id is required"},
	}
	for _, tc := range tests {
		resp, err := http.Get(srv.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]string
		decodeErr := json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s: status %d, want %d", tc.path, resp.StatusCode, tc.wantStatus)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: content-type %q, want application/json", tc.path, ct)
		}
		if decodeErr != nil {
			t.Errorf("%s: error body is not JSON: %v", tc.path, decodeErr)
			continue
		}
		if !strings.Contains(body["error"], tc.wantMsg) {
			t.Errorf("%s: error %q, want it to mention %q", tc.path, body["error"], tc.wantMsg)
		}
	}
}

// TestAPIStats exercises the /stats endpoint over HTTP.
func TestAPIStats(t *testing.T) {
	srv, eng, d := apiServer(t)
	if _, err := eng.Search(d.Facts[0].ID, "q", 3); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/stats status %d", resp.StatusCode)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.CachedFacts != 1 || st.Facts != len(d.Facts) {
		t.Errorf("stats = %+v, want 1 cached fact of %d", st, len(d.Facts))
	}
}
