package rag

import (
	"reflect"
	"strconv"
	"sync"
	"testing"

	"factcheck/internal/corpus"
	"factcheck/internal/dataset"
	"factcheck/internal/search"
	"factcheck/internal/world"
)

// wireSearcher keeps the engine's EvidenceFetcher but hides its
// PoolSearcher, so a pipeline over it takes the wire path: SERP items,
// then one FetchEvidence per candidate.
type wireSearcher struct{ e *search.Engine }

func (w wireSearcher) Search(factID, query string, n int) ([]search.SERPItem, error) {
	return w.e.Search(factID, query, n)
}

func (w wireSearcher) Fetch(docID string) (search.DocPayload, error) { return w.e.Fetch(docID) }

func (w wireSearcher) FetchEvidence(docID string) (search.DocEvidence, error) {
	return w.e.FetchEvidence(docID)
}

// fetchSearcher hides both PoolSearcher and EvidenceFetcher, as the HTTP
// client does, so a pipeline over it fetches every candidate with plain
// Fetch and embeds and splits it itself.
type fetchSearcher struct{ e *search.Engine }

func (w fetchSearcher) Search(factID, query string, n int) ([]search.SERPItem, error) {
	return w.e.Search(factID, query, n)
}

func (w fetchSearcher) Fetch(docID string) (search.DocPayload, error) { return w.e.Fetch(docID) }

var (
	_ search.PoolSearcher    = (*search.Engine)(nil)
	_ search.EvidenceFetcher = wireSearcher{}
)

// TestRetrieveByReferenceMatchesWire is the differential test of the
// by-reference path: over every fact of the small world's three datasets
// and under each config, Evidence ranked in place from pool rows must
// equal both wire paths' (FetchEvidence, and plain Fetch with the
// candidate embedded and split on the fly), nil Docs included when
// nothing is selected.
func TestRetrieveByReferenceMatchesWire(t *testing.T) {
	if _, ok := any(wireSearcher{}).(search.PoolSearcher); ok {
		t.Fatal("wireSearcher exposes PoolSearcher")
	}
	if _, ok := any(fetchSearcher{}).(search.EvidenceFetcher); ok {
		t.Fatal("fetchSearcher exposes EvidenceFetcher")
	}
	w := world.New(world.SmallConfig())
	var ds []*dataset.Dataset
	for _, n := range []dataset.Name{dataset.FactBench, dataset.YAGO, dataset.DBpedia} {
		ds = append(ds, dataset.Build(w, n, 0.05))
	}
	e := search.NewEngine(corpus.NewGenerator(w), ds...)
	configs := map[string]func(*Config){
		"default":        func(*Config) {},
		"FilterSKG off":  func(c *Config) { c.FilterSKG = false },
		"CandidateCap 5": func(c *Config) { c.CandidateCap = 5 },
		"SelectedDocs 1": func(c *Config) { c.SelectedDocs = 1 },
		"SelectedDocs 0": func(c *Config) { c.SelectedDocs = 0 },
		"SERPSize 7":     func(c *Config) { c.SERPSize = 7 },
		"Window 1":       func(c *Config) { c.Window = 1 },
		"Window 5":       func(c *Config) { c.Window = 5 },
		"CandidateCap 7": func(c *Config) { c.CandidateCap = 7 },
		"SelectedDocs 2": func(c *Config) { c.SelectedDocs = 2 },
		"Tau 0.1, SelectedQuestions 5": func(c *Config) {
			c.Tau = 0.1
			c.SelectedQuestions = 5
		},
	}
	for name, mutate := range configs {
		byRef, wire, fetch := New(e), New(wireSearcher{e}), New(fetchSearcher{e})
		mutate(&byRef.Config)
		mutate(&wire.Config)
		mutate(&fetch.Config)
		for _, d := range ds {
			for _, f := range d.Facts {
				got, err := byRef.Retrieve(f)
				if err != nil {
					t.Fatal(err)
				}
				for path, p := range map[string]*Pipeline{"FetchEvidence": wire, "Fetch": fetch} {
					want, err := p.Retrieve(f)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s, fact %s: by-reference evidence differs from the %s wire path:\nby-ref: %+v\nwire:   %+v", name, f.ID, path, got, want)
					}
				}
				if name == "SelectedDocs 0" && got.Docs != nil {
					t.Fatalf("fact %s: nothing selected, Docs = %#v, want nil", f.ID, got.Docs)
				}
			}
		}
	}
}

// TestRetrieveSeesOneEpoch: a retrieval reads one pool snapshot, so while
// documents are ingested into a fact one at a time, every evidence
// observed for it equals the cold retrieval at exactly one epoch.
func TestRetrieveSeesOneEpoch(t *testing.T) {
	const docs = 8
	w := world.New(world.SmallConfig())
	d := dataset.Build(w, dataset.FactBench, 0.05)
	gen := corpus.NewGenerator(w)
	f := d.Facts[0]
	// Short SERPs, and documents that each echo one query, make a
	// retrieval whose queries straddle an ingestion differ from every
	// epoch's cold one.
	pipeline := func(e *search.Engine) *Pipeline {
		p := New(e)
		p.Config.SERPSize = 5
		return p
	}
	cold, err := pipeline(search.NewEngine(gen, d)).Retrieve(f)
	if err != nil {
		t.Fatal(err)
	}
	ingest := func(e *search.Engine, i int) {
		q := cold.Queries[i%len(cold.Queries)]
		doc := search.IngestDoc{FactID: f.ID, Title: q, Text: q + " " + q + " Source " + strconv.Itoa(i) + "."}
		if _, err := e.Ingest([]search.IngestDoc{doc}); err != nil {
			t.Error(err)
		}
	}

	// refs[k] is the cold retrieval after the first k documents.
	refs := make([]*Evidence, docs+1)
	for k := range refs {
		e := search.NewEngine(gen, d)
		for i := 0; i < k; i++ {
			ingest(e, i)
		}
		ev, err := pipeline(e).Retrieve(f)
		if err != nil {
			t.Fatal(err)
		}
		refs[k] = ev
		for j := 0; j < k; j++ {
			if reflect.DeepEqual(refs[j], ev) {
				t.Fatalf("epochs %d and %d retrieve equal evidence; the test cannot tell them apart", j, k)
			}
		}
	}

	// Each ingestion waits until a retrieval has begun, so documents land
	// while retrievals are in flight. Where an ingestion lands is timing
	// dependent, so a few rounds run on fresh engines.
	for round := 0; round < 4; round++ {
		e := search.NewEngine(gen, d)
		p := pipeline(e)
		began := make(chan struct{})
		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(done)
			for i := 0; i < docs; i++ {
				<-began
				ingest(e, i)
			}
		}()
		check := func(final bool) {
			p.Invalidate(f.ID)
			if !final {
				select {
				case began <- struct{}{}:
				default:
				}
			}
			ev, err := p.Retrieve(f)
			if err != nil {
				t.Fatal(err)
			}
			matches := 0
			for _, ref := range refs {
				if reflect.DeepEqual(ev, ref) {
					matches++
				}
			}
			if matches != 1 {
				t.Fatalf("a retrieval matches %d of the %d epochs' cold evidence", matches, len(refs))
			}
			if final && !reflect.DeepEqual(ev, refs[docs]) {
				t.Fatal("after ingestion the retrieval does not match the last epoch")
			}
		}
		for running := true; running; {
			select {
			case <-done:
				running = false
			default:
				check(false)
			}
		}
		wg.Wait()
		check(true)
	}
}
