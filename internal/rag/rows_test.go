package rag

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"factcheck/internal/corpus"
	"factcheck/internal/dataset"
	"factcheck/internal/search"
	"factcheck/internal/text"
	"factcheck/internal/world"
)

// rankedRows is phases 3–4 of retrieveRows as they ran while every SERP
// came ranked: each query's hits sorted by (score desc, doc ID asc), the
// new candidates appended in that order and the list cut at CandidateCap.
// It is the oracle for retrieveRows, which ranks only the best rows of the
// query whose candidates cross the cap, and only the k_d best scored.
func rankedRows(cfg Config, pool search.Pool, ev *Evidence, score func(text.SparseVector, string) float64) {
	byRank := func(a, b search.Hit) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		}
		return strings.Compare(pool.ID(a.Row), pool.ID(b.Row))
	}
	seen := map[int]bool{}
	var rows []int
	for _, q := range ev.Queries {
		hits := pool.Search(q, cfg.SERPSize, nil)
		slices.SortFunc(hits, byRank)
		for _, h := range hits {
			if seen[h.Row] {
				continue
			}
			seen[h.Row] = true
			if cfg.FilterSKG && isSKGSource(pool.Host(h.Row)) {
				ev.FilteredSKG++
				continue
			}
			rows = append(rows, h.Row)
		}
	}
	ev.Candidates = len(rows)
	if len(rows) > cfg.CandidateCap {
		rows = rows[:cfg.CandidateCap]
	}
	var scored []search.Hit
	for _, r := range rows {
		if pool.Usable(r) {
			scored = append(scored, search.Hit{Row: r, Score: score(pool.Vec(r), pool.Full(r))})
		}
	}
	slices.SortFunc(scored, byRank)
	if len(scored) > cfg.SelectedDocs {
		scored = scored[:cfg.SelectedDocs]
	}
	for _, h := range scored {
		ev.Docs = append(ev.Docs, pool.Payload(h.Row))
		ev.Chunks = append(ev.Chunks, pool.Chunks(h.Row, cfg.Window)...)
	}
	if len(ev.Chunks) > cfg.MaxChunks {
		ev.Chunks = ev.Chunks[:cfg.MaxChunks]
	}
}

// freshCounts returns, per query, the candidates it adds: the rows no
// earlier query returned that the S_KG filter passes.
func freshCounts(cfg Config, pool search.Pool, queries []string) []int {
	seen := map[int]bool{}
	counts := make([]int, len(queries))
	for i, q := range queries {
		for _, h := range pool.Search(q, cfg.SERPSize, nil) {
			if seen[h.Row] {
				continue
			}
			seen[h.Row] = true
			if !cfg.FilterSKG || !isSKGSource(pool.Host(h.Row)) {
				counts[i]++
			}
		}
	}
	return counts
}

// smallWorldEngine is an engine over every fact of the small world's three
// datasets at the scale the differential tests use, built once.
var smallWorldEngine = sync.OnceValues(func() (*search.Engine, []*dataset.Fact) {
	w := world.New(world.SmallConfig())
	var ds []*dataset.Dataset
	var facts []*dataset.Fact
	for _, n := range []dataset.Name{dataset.FactBench, dataset.YAGO, dataset.DBpedia} {
		d := dataset.Build(w, n, 0.05)
		ds = append(ds, d)
		facts = append(facts, d.Facts...)
	}
	return search.NewEngine(corpus.NewGenerator(w), ds...), facts
})

// rowsMatchRanked runs phases 3–4 for the fact under cfg through
// retrieveRows and through the ranked oracle, from the same phases 1–2,
// and fails unless the two Evidence values are equal.
func rowsMatchRanked(t testing.TB, e *search.Engine, f *dataset.Fact, cfg Config, label string) {
	t.Helper()
	p := &Pipeline{Searcher: e, Config: cfg}
	full, err := p.Retrieve(f)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := e.Pool(f.ID)
	if err != nil {
		t.Fatal(err)
	}
	score := docRanker.ScoreBatch(text.SparseEmbed(full.Sentence), full.Sentence)
	got := &Evidence{Sentence: full.Sentence, Queries: full.Queries}
	if err := p.retrieveRows(context.Background(), f, got, e, score); err != nil {
		t.Fatal(err)
	}
	want := &Evidence{Sentence: full.Sentence, Queries: full.Queries}
	rankedRows(cfg, pool, want, score)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s, fact %s: retrieveRows differs from the ranked oracle:\ngot:  %+v\nwant: %+v", label, f.ID, got, want)
	}
}

// TestRetrieveRowsMatchesRanked pins retrieveRows, which ranks only the
// best rows of the query whose candidates cross CandidateCap and only the
// k_d best scored candidates, to the always-ranked oracle
// over every small-world fact: with the cap cutting inside each query in
// turn, cutting nowhere, and at the paper's default, with the S_KG filter
// on and off.
func TestRetrieveRowsMatchesRanked(t *testing.T) {
	e, facts := smallWorldEngine()
	cuts := map[int]int{} // query index -> cases cut inside it
	for _, filter := range []bool{true, false} {
		for _, f := range facts {
			cfg := DefaultConfig()
			cfg.FilterSKG = filter
			label := fmt.Sprintf("FilterSKG %v, default cap", filter)
			rowsMatchRanked(t, e, f, cfg, label)

			ev, err := (&Pipeline{Searcher: e, Config: cfg}).Retrieve(f)
			if err != nil {
				t.Fatal(err)
			}
			pool, err := e.Pool(f.ID)
			if err != nil {
				t.Fatal(err)
			}
			counts := freshCounts(cfg, pool, ev.Queries)
			before := 0
			for qi, n := range counts {
				if n >= 2 {
					cfg.CandidateCap = before + n/2
					rowsMatchRanked(t, e, f, cfg, fmt.Sprintf("FilterSKG %v, cap %d cuts query %d", filter, cfg.CandidateCap, qi))
					cuts[qi]++
				}
				before += n
			}
			for _, c := range []int{before, before + 1, 0} {
				cfg.CandidateCap = c
				rowsMatchRanked(t, e, f, cfg, fmt.Sprintf("FilterSKG %v, cap %d cuts no query", filter, c))
			}
		}
	}
	for qi := 0; qi <= 3; qi++ {
		if cuts[qi] == 0 {
			t.Errorf("no case cut inside query %d (cuts per query: %v)", qi, cuts)
		}
	}
}

// FuzzRetrieveRowsMatchesRanked lets the fuzzer pick the fact, the
// candidate cap, the SERP size, the kept documents and the S_KG filter;
// retrieveRows must equal the always-ranked oracle.
func FuzzRetrieveRowsMatchesRanked(f *testing.F) {
	f.Add(uint16(0), int16(120), uint8(100), uint8(10), true)
	f.Add(uint16(7), int16(130), uint8(100), uint8(10), false)
	f.Add(uint16(31), int16(60), uint8(40), uint8(3), true)
	f.Add(uint16(90), int16(5), uint8(7), uint8(0), true)
	f.Fuzz(func(t *testing.T, fact uint16, capacity int16, serp, selected uint8, filter bool) {
		if capacity < 0 || capacity > 400 || serp == 0 || serp > 200 || selected > 30 {
			t.Skip()
		}
		e, facts := smallWorldEngine()
		cfg := DefaultConfig()
		cfg.CandidateCap = int(capacity)
		cfg.SERPSize = int(serp)
		cfg.SelectedDocs = int(selected)
		cfg.FilterSKG = filter
		rowsMatchRanked(t, e, facts[int(fact)%len(facts)], cfg, fmt.Sprintf("%+v", cfg))
	})
}
