package rag

import (
	"sync"
	"sync/atomic"
	"testing"

	"factcheck/internal/corpus"
	"factcheck/internal/dataset"
	"factcheck/internal/llm"
	"factcheck/internal/search"
	"factcheck/internal/world"
)

func pipeline(t *testing.T) (*Pipeline, *dataset.Dataset) {
	t.Helper()
	w := world.New(world.SmallConfig())
	d := dataset.Build(w, dataset.FactBench, 0.1)
	gen := corpus.NewGenerator(w)
	return New(search.NewEngine(gen, d)), d
}

func TestDefaultConfigMatchesPaperTable4(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Tau != 0.5 {
		t.Errorf("tau = %v, want 0.5", cfg.Tau)
	}
	if cfg.SelectedQuestions != 3 {
		t.Errorf("selected questions = %d, want 3", cfg.SelectedQuestions)
	}
	if cfg.SelectedDocs != 10 {
		t.Errorf("k_d = %d, want 10", cfg.SelectedDocs)
	}
	if cfg.Window != 3 {
		t.Errorf("window = %d, want 3", cfg.Window)
	}
	if cfg.SERPSize != 100 {
		t.Errorf("SERP size = %d, want 100", cfg.SERPSize)
	}
	if !cfg.FilterSKG {
		t.Error("SKG filter off by default")
	}
}

func TestRetrievePhases(t *testing.T) {
	p, d := pipeline(t)
	f := d.Facts[0]
	ev, err := p.Retrieve(f)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Sentence == "" {
		t.Error("phase 1 produced no sentence")
	}
	if len(ev.Questions) < 2 {
		t.Errorf("phase 2 produced %d questions", len(ev.Questions))
	}
	for _, q := range ev.Questions {
		if q.Score <= 0 || q.Score >= 1 {
			t.Errorf("question score %f out of range", q.Score)
		}
	}
	// Queries: the sentence plus at most SelectedQuestions questions.
	if len(ev.Queries) < 1 || len(ev.Queries) > 1+p.Config.SelectedQuestions {
		t.Errorf("issued %d queries", len(ev.Queries))
	}
	if ev.Queries[0] != ev.Sentence {
		t.Error("first query is not the transformed triple")
	}
	if len(ev.Docs) > p.Config.SelectedDocs {
		t.Errorf("selected %d docs, cap %d", len(ev.Docs), p.Config.SelectedDocs)
	}
	if len(ev.Chunks) > p.Config.MaxChunks {
		t.Errorf("%d chunks, cap %d", len(ev.Chunks), p.Config.MaxChunks)
	}
	if ev.Latency <= 0 {
		t.Error("no retrieval latency recorded")
	}
}

func TestRetrieveFiltersSKGAndEmpty(t *testing.T) {
	p, d := pipeline(t)
	filteredSomething := false
	for _, f := range d.Facts[:40] {
		ev, err := p.Retrieve(f)
		if err != nil {
			t.Fatal(err)
		}
		if ev.FilteredSKG > 0 {
			filteredSomething = true
		}
		for _, doc := range ev.Docs {
			if doc.Host == "en.wikipedia.org" {
				t.Fatalf("SKG document %s not filtered", doc.DocID)
			}
			if doc.Empty || doc.Text == "" {
				t.Fatalf("empty document %s selected", doc.DocID)
			}
		}
	}
	if !filteredSomething {
		t.Error("source filter never triggered across 40 facts")
	}
}

func TestRetrieveCache(t *testing.T) {
	p, d := pipeline(t)
	f := d.Facts[1]
	a, err := p.Retrieve(f)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Retrieve(f)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("second retrieve did not hit the cache")
	}
	p.ClearCache()
	c, err := p.Retrieve(f)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("cache not cleared")
	}
	if len(c.Chunks) != len(a.Chunks) {
		t.Error("re-retrieval not deterministic")
	}
}

func TestQuestionThresholdRespected(t *testing.T) {
	p, d := pipeline(t)
	for _, f := range d.Facts[:20] {
		ev, err := p.Retrieve(f)
		if err != nil {
			t.Fatal(err)
		}
		// Every issued question query must have scored >= tau.
		scoreOf := map[string]float64{}
		for _, q := range ev.Questions {
			scoreOf[q.Text] = q.Score
		}
		for _, q := range ev.Queries[1:] {
			if s, ok := scoreOf[q]; !ok || s < p.Config.Tau {
				t.Fatalf("query %q below threshold (%.2f)", q, s)
			}
		}
	}
}

func TestChunksComeFromSelectedDocs(t *testing.T) {
	p, d := pipeline(t)
	ev, err := p.Retrieve(d.Facts[0])
	if err != nil {
		t.Fatal(err)
	}
	sel := map[string]bool{}
	for _, doc := range ev.Docs {
		sel[doc.DocID] = true
	}
	for _, c := range ev.Chunks {
		if !sel[c.DocID] {
			t.Fatalf("chunk from unselected doc %s", c.DocID)
		}
	}
	texts := ev.ChunkTexts()
	if len(texts) != len(ev.Chunks) {
		t.Error("ChunkTexts length mismatch")
	}
}

func TestEvidenceStanceAlignsWithGold(t *testing.T) {
	// Across many facts, selected chunks should support true facts and
	// refute corrupted ones (FactBench has discriminative evidence).
	p, d := pipeline(t)
	var trueSup, trueRef, falseSup, falseRef int
	for _, f := range d.Facts {
		ev, err := p.Retrieve(f)
		if err != nil {
			t.Fatal(err)
		}
		claim := llm.Claim{
			SubjectLabel: f.Subject.Label,
			ObjectLabel:  f.Object.Label,
			Phrase:       f.Relation.Phrase,
		}
		for _, c := range ev.Chunks {
			switch llm.ReadStance(&claim, c.Text) {
			case 1:
				if f.Gold {
					trueSup++
				} else {
					falseSup++
				}
			case -1:
				if f.Gold {
					trueRef++
				} else {
					falseRef++
				}
			}
		}
	}
	if trueSup <= trueRef {
		t.Errorf("true facts: support %d <= refute %d", trueSup, trueRef)
	}
	if falseRef <= falseSup {
		t.Errorf("false facts: refute %d <= support %d", falseRef, falseSup)
	}
}

func TestCostForCalibration(t *testing.T) {
	_, d := pipeline(t)
	var qt, st, ft, tok float64
	n := 0
	for _, f := range d.Facts {
		c := CostFor(f)
		qt += c.QuestionGenTime.Seconds()
		st += c.SERPTime.Seconds()
		ft += c.FetchTime.Seconds()
		tok += float64(c.QuestionGenTokens)
		n++
	}
	fn := float64(n)
	if m := qt / fn; m < 8.5 || m > 10.5 {
		t.Errorf("mean question-gen time = %.2f, want ~9.6", m)
	}
	if m := tok / fn; m < 600 || m > 750 {
		t.Errorf("mean question-gen tokens = %.1f, want ~672", m)
	}
	if m := st / fn; m < 3 || m > 4.2 {
		t.Errorf("mean SERP time = %.2f, want ~3.6", m)
	}
	if m := ft / fn; m < 320 || m > 380 {
		t.Errorf("mean fetch time = %.1f, want ~350", m)
	}
}

// countingSearcher counts Search calls so tests can observe how many
// retrievals actually hit the backend.
type countingSearcher struct {
	search.Searcher
	searches atomic.Int64
}

func (c *countingSearcher) Search(factID, query string, n int) ([]search.SERPItem, error) {
	c.searches.Add(1)
	return c.Searcher.Search(factID, query, n)
}

func TestConcurrentRetrieveSingleflight(t *testing.T) {
	w := world.New(world.SmallConfig())
	d := dataset.Build(w, dataset.FactBench, 0.1)
	cs := &countingSearcher{Searcher: search.NewEngine(corpus.NewGenerator(w), d)}
	p := New(cs)
	f := d.Facts[0]

	// Measure the backend calls of one uncached retrieval.
	if _, err := p.Retrieve(f); err != nil {
		t.Fatal(err)
	}
	perRetrieval := cs.searches.Load()
	if perRetrieval == 0 {
		t.Fatal("retrieval issued no searches")
	}
	p.ClearCache()
	cs.searches.Store(0)

	// N concurrent callers on the same fact must coalesce into exactly one
	// retrieval and all observe the identical evidence pointer.
	const callers = 16
	var (
		start sync.WaitGroup
		wg    sync.WaitGroup
		gate  = make(chan struct{})
		evs   [callers]*Evidence
		errs  [callers]error
	)
	start.Add(callers)
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			start.Done()
			<-gate
			evs[i], errs[i] = p.Retrieve(f)
		}(i)
	}
	start.Wait()
	close(gate)
	wg.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if evs[i] != evs[0] {
			t.Fatal("concurrent callers observed different evidence")
		}
	}
	if got := cs.searches.Load(); got != perRetrieval {
		t.Fatalf("%d callers triggered %d backend searches, want %d (one retrieval)",
			callers, got, perRetrieval)
	}
}

func TestConcurrentRetrieveManyFacts(t *testing.T) {
	p, d := pipeline(t)
	n := len(d.Facts)
	if n > 24 {
		n = 24
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 3*n)
	for round := 0; round < 3; round++ {
		for _, f := range d.Facts[:n] {
			wg.Add(1)
			go func(f *dataset.Fact) {
				defer wg.Done()
				if _, err := p.Retrieve(f); err != nil {
					errCh <- err
				}
			}(f)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func TestWarmPopulatesCache(t *testing.T) {
	p, d := pipeline(t)
	f := d.Facts[3]
	if err := p.Warm(f); err != nil {
		t.Fatal(err)
	}
	a, err := p.Retrieve(f)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := p.Retrieve(f)
	if a != b {
		t.Error("Warm did not populate the cache")
	}
}
