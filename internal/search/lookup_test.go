package search

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"factcheck/internal/corpus"
	"factcheck/internal/dataset"
	"factcheck/internal/world"
)

// largeGenerator returns a generator whose pools are ten times the
// published size, so some facts' generated pools pass ingestSeqBase.
func largeGenerator(w *world.World) *corpus.Generator {
	g := corpus.NewGenerator(w)
	g.MeanDocs *= 10
	g.StdDocs *= 10
	g.MaxDocs *= 10
	return g
}

// largeFacts returns up to n facts whose generated pools under g hold more
// than ingestSeqBase documents.
func largeFacts(t testing.TB, g *corpus.Generator, d *dataset.Dataset, n int) []*dataset.Fact {
	t.Helper()
	var out []*dataset.Fact
	for _, f := range d.Facts {
		if g.PoolSize(f) > ingestSeqBase {
			out = append(out, f)
			if len(out) == n {
				return out
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("no fact has a pool above ingestSeqBase")
	}
	return out
}

// TestIngestIntoLargePoolKeepsIDsUnique is the regression test for a doc-ID
// collision: ingestion numbered its documents from ingestSeqBase (1000), so
// a generated pool of 1,000 or more documents already held the IDs its
// first ingested documents received, and Fetch of "…-d1000" answered with
// the ingested document. Ingestion now numbers from the pool's size when
// the pool reaches past ingestSeqBase.
func TestIngestIntoLargePoolKeepsIDsUnique(t *testing.T) {
	w := world.New(world.SmallConfig())
	d := dataset.Build(w, dataset.FactBench, 0.2)
	g := largeGenerator(w)
	f := largeFacts(t, g, d, 1)[0]
	cp := g.Materialize(f)
	n := len(cp.Rows)

	for _, warm := range []bool{true, false} {
		e := NewEngine(g, d)
		if warm {
			if err := e.Warm(f.ID); err != nil {
				t.Fatal(err)
			}
		}
		res, err := e.Ingest([]IngestDoc{{FactID: f.ID, Title: "Fresh", Text: "Fresh coverage."}})
		if err != nil {
			t.Fatal(err)
		}
		if want := corpus.DocID(f.ID, n); res.DocIDs[0] != want {
			t.Errorf("warm=%v: ingested ID = %s, want %s (the pool's size)", warm, res.DocIDs[0], want)
		}
		got, err := e.Fetch(corpus.DocID(f.ID, ingestSeqBase))
		if err != nil {
			t.Fatal(err)
		}
		r := cp.Rows[ingestSeqBase]
		v := cp.Variants[r.Variant]
		if got.Title != v.Title || got.Text != v.Text || got.URL != corpus.DocURL(corpus.HostName(r.Host), cp.Slug, ingestSeqBase) {
			t.Errorf("warm=%v: Fetch(-d%d) = %+v, want the generated document", warm, ingestSeqBase, got)
		}
		in, err := e.Fetch(res.DocIDs[0])
		if err != nil || in.Title != "Fresh" {
			t.Errorf("warm=%v: Fetch(%s) = %+v, %v, want the ingested document", warm, res.DocIDs[0], in, err)
		}
		if st := e.Stats(); st.IndexedDocs != n+1 {
			t.Errorf("warm=%v: IndexedDocs = %d, want %d", warm, st.IndexedDocs, n+1)
		}
		p, _ := e.snap.Load().pools.get(f.ID)
		seen := map[string]bool{}
		for row := 0; row < p.len(); row++ {
			if id := p.id(row); seen[id] {
				t.Fatalf("warm=%v: duplicate doc ID %s", warm, id)
			} else {
				seen[id] = true
			}
		}
	}
}

// TestIngestIDsAtPublishedPoolSizes pins the ingested IDs of published-size
// pools: those pools never reach ingestSeqBase, so ingestion keeps
// numbering from it.
func TestIngestIDsAtPublishedPoolSizes(t *testing.T) {
	if g := corpus.NewGenerator(nil); g.MaxDocs >= ingestSeqBase {
		t.Fatalf("MaxDocs %d reaches ingestSeqBase %d", g.MaxDocs, ingestSeqBase)
	}
	e, d := fixture(t)
	f := d.Facts[0]
	res, err := e.Ingest([]IngestDoc{{FactID: f.ID, Title: "a", Text: "b"}, {FactID: f.ID, Title: "c", Text: "d"}})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{f.ID + "-d1000", f.ID + "-d1001"}; !reflect.DeepEqual(res.DocIDs, want) {
		t.Errorf("ingested IDs = %v, want %v", res.DocIDs, want)
	}
}

// lookupFixture is an engine over published-size pools and one over
// ten-times pools, each with ingested documents folded into warm pools and
// replayed into cold ones, and a byID map of every row's derived ID.
type lookupFixture struct {
	engines []*Engine
	factIDs []string
	byID    []map[string]poolRow // per engine
}

// poolRow is one row of one pool.
type poolRow struct {
	p   *factPool
	row int
}

func newLookupFixture(t testing.TB) *lookupFixture {
	t.Helper()
	w := world.New(world.SmallConfig())
	d := dataset.Build(w, dataset.FactBench, 0.2)
	gens := []*corpus.Generator{corpus.NewGenerator(w), largeGenerator(w)}
	factSets := [][]*dataset.Fact{d.Facts[:3], largeFacts(t, gens[1], d, 2)}
	fx := &lookupFixture{}
	for i, g := range gens {
		facts := factSets[i]
		e := NewEngine(g, &dataset.Dataset{Name: d.Name, Facts: facts, World: w})
		// facts[0] folds ingestion into a warm pool, facts[1] replays it
		// on materialisation, and facts[2] (if any) stays pristine.
		if err := e.Warm(facts[0].ID); err != nil {
			t.Fatal(err)
		}
		for batch := 0; batch < 2; batch++ {
			var docs []IngestDoc
			for _, f := range facts[:2] {
				docs = append(docs, streamBatch(gens[0], f, 2*batch, 2)...)
			}
			if _, err := e.Ingest(docs); err != nil {
				t.Fatal(err)
			}
		}
		byID := map[string]poolRow{}
		for _, f := range facts {
			p, err := e.pool(f.ID)
			if err != nil {
				t.Fatal(err)
			}
			for row := 0; row < p.len(); row++ {
				byID[p.id(row)] = poolRow{p, row}
			}
			fx.factIDs = append(fx.factIDs, f.ID)
		}
		fx.engines = append(fx.engines, e)
		fx.byID = append(fx.byID, byID)
	}
	return fx
}

// check compares lookup of docID with the map oracle on every engine.
func (fx *lookupFixture) check(t *testing.T, docID string) {
	for i, e := range fx.engines {
		p, row, err := e.lookup(docID)
		want, ok := fx.byID[i][docID]
		switch {
		case ok && (err != nil || p != want.p || row != want.row):
			t.Fatalf("engine %d: lookup(%q) = row %d, %v; map has row %d", i, docID, row, err, want.row)
		case !ok && err == nil:
			t.Fatalf("engine %d: lookup(%q) found %s; map has no such ID", i, docID, p.id(row))
		case !ok && !errors.Is(err, ErrMalformedDocID) && !errors.Is(err, ErrUnknownFact) && !errors.Is(err, ErrUnknownDoc):
			t.Fatalf("engine %d: lookup(%q) error %v is not a typed lookup error", i, docID, err)
		}
	}
}

// TestDocLookupMatchesMap resolves every pool document, generated and
// ingested, through the sequence-indexed lookup and compares it with the
// map oracle; FuzzDocLookupMatchesMap covers the IDs that name nothing.
func TestDocLookupMatchesMap(t *testing.T) {
	fx := newLookupFixture(t)
	for i := range fx.engines {
		for id := range fx.byID[i] {
			fx.check(t, id)
		}
	}
}

// FuzzDocLookupMatchesMap compares the sequence-indexed doc lookup with a
// byID map oracle over generated and ingested pools, including pools above
// ingestSeqBase documents, on IDs built from a known fact ID and an
// arbitrary suffix, and on arbitrary strings.
func FuzzDocLookupMatchesMap(f *testing.F) {
	fx := newLookupFixture(f)
	for _, s := range []string{
		"-d0000", "-d0001", "-d00001", "-d1", "-d0999", "-d1000", "-d01000", "-d1001", "-d1003",
		"-d1004", "-d1353", "-d2000", "-d9999", "-d99999999999999999999999999", "-d18446744073709551617",
		"-d", "-d-1", "-d0001\x00", "-d0001 ", " -d0001", "-d١", "-x0001", "", "-d0000-d0001",
	} {
		for i := range fx.factIDs {
			f.Add(uint8(i), s)
		}
	}
	f.Add(uint8(0), "nodash")
	f.Fuzz(func(t *testing.T, fact uint8, suffix string) {
		fx.check(t, fx.factIDs[int(fact)%len(fx.factIDs)]+suffix)
		fx.check(t, suffix)
	})
}

// TestPublishCopiesOneShard asserts that publishing into a full cache
// copies the shard the new pool lands in and the eviction victim's shard,
// not the whole 512-entry table, and that a warm lookup stays free of
// allocations.
func TestPublishCopiesOneShard(t *testing.T) {
	e, d := fixture(t)
	// publish expects the writer lock; nothing else runs on e meanwhile.
	e.mu.Lock()
	for i := 0; i < MaxCachedFacts; i++ {
		e.publish(fmt.Sprintf("fake-%06d", i), &factPool{})
	}
	if n := e.snap.Load().pools.n; n != MaxCachedFacts {
		t.Fatalf("cache holds %d pools, want %d", n, MaxCachedFacts)
	}

	old := e.snap.Load()
	e.publish("fake-new", &factPool{})
	next := e.snap.Load()
	copied, entries := 0, 0
	for i := range next.pools.shards {
		if reflect.ValueOf(next.pools.shards[i]).Pointer() != reflect.ValueOf(old.pools.shards[i]).Pointer() {
			copied++
			entries += len(next.pools.shards[i])
		}
	}
	if next.pools.n != MaxCachedFacts || e.evicted.Load() != 1 {
		t.Fatalf("after publish: %d pools, %d evicted; want %d and 1", next.pools.n, e.evicted.Load(), MaxCachedFacts)
	}
	if copied < 1 || copied > 2 || entries >= MaxCachedFacts/8 {
		t.Errorf("publish copied %d shards holding %d entries; want the new pool's and the victim's shard only", copied, entries)
	}

	// Allocation bound: a publish into the full cache allocates under a
	// quarter of what copying the 512-entry map cost.
	full := map[string]*factPool{}
	for i := 0; i < MaxCachedFacts; i++ {
		full[fmt.Sprintf("fake-%06d", i)] = &factPool{}
	}
	const rounds = 64
	copyBytes := allocBytes(func() {
		for i := 0; i < rounds; i++ {
			m := make(map[string]*factPool, len(full)+1)
			for k, v := range full {
				m[k] = v
			}
		}
	})
	pools := make([]*factPool, rounds)
	for i := range pools {
		pools[i] = &factPool{}
	}
	publishBytes := allocBytes(func() {
		for i := 0; i < rounds; i++ {
			e.publish(fmt.Sprintf("round-%06d", i), pools[i])
		}
	})
	if publishBytes*4 > copyBytes {
		t.Errorf("publish allocated %d B per round; copying the 512-entry map costs %d B", publishBytes/rounds, copyBytes/rounds)
	}

	e.mu.Unlock()

	// A warm lookup allocates nothing.
	f := d.Facts[0]
	if err := e.Warm(f.ID); err != nil {
		t.Fatal(err)
	}
	id := corpus.DocID(f.ID, 0)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := e.lookup(id); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm lookup allocates %.1f times", allocs)
	}
}

// allocBytes returns the bytes fn allocates on the heap.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
