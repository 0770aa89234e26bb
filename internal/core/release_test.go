package core

import (
	"context"
	"maps"
	"reflect"
	"sync"
	"testing"

	"factcheck/internal/consensus"
	"factcheck/internal/dataset"
	"factcheck/internal/llm"
	"factcheck/internal/search"
	"factcheck/internal/strategy"
)

// countingSearcher is the engine as a search.PoolSearcher (so retrieval
// keeps its by-reference path) that counts each fact's retrievals: the
// pipeline takes one pool handle per retrieval.
type countingSearcher struct {
	*search.Engine
	mu    sync.Mutex
	calls map[string]int
}

func (c *countingSearcher) Pool(factID string) (search.Pool, error) {
	c.mu.Lock()
	c.calls[factID]++
	c.mu.Unlock()
	return c.Engine.Pool(factID)
}

func (c *countingSearcher) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, k := range c.calls {
		n += k
	}
	return n
}

// releaseRun is one Run with its retrievals counted and its releases
// recorded, per fact ID.
type releaseRun struct {
	b         *Benchmark
	rs        *ResultSet
	retrieved map[string]int
	released  map[string]int
	searcher  *countingSearcher
}

func runRecordingReleases(t *testing.T, cfg Config, opts ...RunOption) *releaseRun {
	t.Helper()
	b := NewBenchmark(cfg)
	cs := &countingSearcher{Engine: b.Engine, calls: map[string]int{}}
	b.Pipeline.Searcher = cs
	r := &releaseRun{b: b, released: map[string]int{}, searcher: cs}
	var mu sync.Mutex
	verifiers := map[llm.Method]strategy.Verifier{}
	for _, method := range b.Config.Methods {
		v, err := b.Verifier(method)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := v.(strategy.Prefetcher); ok {
			v = recordingPrefetcher{Verifier: v, log: func(string) {}, release: func(f *dataset.Fact) {
				mu.Lock()
				r.released[f.ID]++
				mu.Unlock()
			}}
		}
		verifiers[method] = v
	}
	var ro runOptions
	for _, o := range opts {
		o(&ro)
	}
	rs, err := b.run(context.Background(), verifiers, ro)
	if err != nil {
		t.Fatal(err)
	}
	r.rs = rs
	r.retrieved = maps.Clone(cs.calls)
	return r
}

// tiedRAGFacts returns the facts whose open-model RAG votes in rs tie
// under consensus.Majority, and checks that every dataset has both tied
// and untied facts.
func tiedRAGFacts(t *testing.T, b *Benchmark, rs *ResultSet) map[string]bool {
	t.Helper()
	tied := map[string]bool{}
	for _, dn := range b.Config.Datasets {
		models := openModels(b.Config.Models)
		perFact, err := rs.PerFact(dn, llm.MethodRAG, models)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for i, outs := range perFact {
			var votes []consensus.Vote
			for j, o := range outs {
				votes = append(votes, consensus.Vote{Model: models[j], Verdict: o.Verdict})
			}
			if _, tie := consensus.Majority(votes); tie {
				tied[b.Datasets[dn].Facts[i].ID] = true
				n++
			}
		}
		if n == 0 || n == len(perFact) {
			t.Fatalf("%s: %d of %d RAG facts tie; the release rule is untested", dn, n, len(perFact))
		}
	}
	return tied
}

// checkReleases checks one run: every fact was retrieved exactly once and
// released exactly when its votes do not tie; consensus in both modes then
// retrieves nothing; and the evidence left cached is exactly the tied
// facts'. It returns the consensus report.
func checkReleases(t *testing.T, name string, r *releaseRun) *ConsensusReport {
	t.Helper()
	tied := tiedRAGFacts(t, r.b, r.rs)
	for _, dn := range r.b.Config.Datasets {
		for _, f := range r.b.Datasets[dn].Facts {
			if n := r.retrieved[f.ID]; n != 1 {
				t.Errorf("%s: fact %s retrieved %d times, want 1", name, f.ID, n)
			}
			want := 1
			if tied[f.ID] {
				want = 0
			}
			if n := r.released[f.ID]; n != want {
				t.Errorf("%s: fact %s (tied %v) released %d times, want %d", name, f.ID, tied[f.ID], n, want)
			}
		}
	}

	var rep *ConsensusReport
	for _, mode := range []consensus.Mode{consensus.ModeEager, consensus.ModeAdaptive} {
		before := r.searcher.total()
		var err error
		if rep, err = r.b.RunAllConsensusMode(context.Background(), r.rs, mode); err != nil {
			t.Fatal(err)
		}
		if n := r.searcher.total() - before; n != 0 {
			t.Errorf("%s: %s consensus made %d retrievals, want 0", name, mode, n)
		}
	}

	// A fact is still cached when retrieving it again takes no pool.
	for _, dn := range r.b.Config.Datasets {
		for _, f := range r.b.Datasets[dn].Facts {
			before := r.searcher.total()
			if _, err := r.b.Pipeline.Retrieve(f); err != nil {
				t.Fatal(err)
			}
			if cached := r.searcher.total() == before; cached != tied[f.ID] {
				t.Errorf("%s: fact %s cached %v after Run, tied %v", name, f.ID, cached, tied[f.ID])
			}
		}
	}
	return rep
}

// TestRunReleasesEvidence checks that Run retrieves each fact once,
// releases its evidence once every pending model has verified it, and
// keeps exactly the facts whose open-model votes tie, which consensus's
// arbiters re-verify without retrieving. A resumed run whose store holds
// two of a dataset's RAG cells decides ties with the cached votes and
// matches a cold run, and one and eight workers agree.
func TestRunReleasesEvidence(t *testing.T) {
	cfg := TestConfig()
	cfg.Parallelism = 1
	one := runRecordingReleases(t, cfg)
	repOne := checkReleases(t, "par 1", one)

	cfg.Parallelism = 8
	eight := runRecordingReleases(t, cfg)
	checkReleases(t, "par 8", eight)
	if !reflect.DeepEqual(one.rs.Outcomes, eight.rs.Outcomes) || !maps.Equal(one.released, eight.released) || !maps.Equal(one.retrieved, eight.retrieved) {
		t.Error("par 1 and par 8 differ in outcomes, releases or retrievals")
	}

	// Two open models' RAG cells on FactBench come from the store; the
	// tie rule must still count their votes.
	prefill := TestConfig()
	prefill.Datasets = []dataset.Name{dataset.FactBench}
	prefill.Methods = []llm.Method{llm.MethodRAG}
	prefill.Models = []string{llm.Gemma2, llm.Mistral}
	st := NewMemoryStore()
	if _, err := NewBenchmark(prefill).Run(context.Background(), WithStore(st)); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 2 {
		t.Fatalf("prefilled store holds %d cells, want 2", st.Len())
	}
	cfg.Parallelism = 2
	resumed := runRecordingReleases(t, cfg, WithStore(st))
	repResumed := checkReleases(t, "resumed", resumed)
	if !reflect.DeepEqual(one.rs.Outcomes, resumed.rs.Outcomes) {
		t.Error("resumed outcomes differ from a cold run")
	}
	if a, b := one.b.Table6(repOne)+one.b.Table7(repOne), resumed.b.Table6(repResumed)+resumed.b.Table7(repResumed); a != b {
		t.Errorf("resumed consensus tables differ from a cold run:\n%s\nvs\n%s", b, a)
	}
}

// TestTiedEvidenceSurvivesEviction runs the small grid, then retrieves
// every fact again as the daemon would, unpinned, so that the bounded
// evidence cache overflows and evicts. The tied facts' evidence is pinned:
// consensus's arbiters still find every tied fact's evidence and retrieve
// nothing.
func TestTiedEvidenceSurvivesEviction(t *testing.T) {
	cfg := TestConfig()
	cfg.Parallelism = 2
	r := runRecordingReleases(t, cfg)
	tied := tiedRAGFacts(t, r.b, r.rs)
	if st := r.b.Pipeline.Stats(); st.Pinned != len(tied) || st.Cached != len(tied) {
		t.Fatalf("after Run: %+v, want exactly the %d tied facts pinned", st, len(tied))
	}
	facts := 0
	for _, dn := range r.b.Config.Datasets {
		for _, f := range r.b.Datasets[dn].Facts {
			if _, err := r.b.Pipeline.Retrieve(f); err != nil {
				t.Fatal(err)
			}
			facts++
		}
	}
	st := r.b.Pipeline.Stats()
	if facts-len(tied) <= search.MaxCachedFacts || st.Evicted == 0 {
		t.Fatalf("%d untied facts over a bound of %d evicted %d entries; the bound is untested", facts-len(tied), search.MaxCachedFacts, st.Evicted)
	}
	if st.Pinned != len(tied) || st.Cached-st.Pinned != st.Bounded || st.Bounded > search.MaxCachedFacts {
		t.Fatalf("after re-retrieving every fact: %+v, want %d pinned and at most %d bounded", st, len(tied), search.MaxCachedFacts)
	}
	for _, mode := range []consensus.Mode{consensus.ModeEager, consensus.ModeAdaptive} {
		before := r.searcher.total()
		if _, err := r.b.RunAllConsensusMode(context.Background(), r.rs, mode); err != nil {
			t.Fatal(err)
		}
		if n := r.searcher.total() - before; n != 0 {
			t.Errorf("%s consensus made %d retrievals after evictions, want 0", mode, n)
		}
	}
}

// TestRunCellsRetrievesOnce runs two RAG cells of a dataset larger than
// the bounded evidence cache in one RunCells call: every fact is retrieved
// once for both models and released afterwards, and each cell's outcomes
// equal a RunCell of it alone.
func TestRunCellsRetrievesOnce(t *testing.T) {
	b := NewBenchmark(Config{Scale: 1, Small: true, Parallelism: 2, Datasets: []dataset.Name{dataset.FactBench}})
	cs := &countingSearcher{Engine: b.Engine, calls: map[string]int{}}
	b.Pipeline.Searcher = cs
	facts := b.Datasets[dataset.FactBench].Facts
	if len(facts) <= search.MaxCachedFacts {
		t.Fatalf("%d facts do not exceed the evidence bound %d", len(facts), search.MaxCachedFacts)
	}
	cells := []Cell{
		{Dataset: dataset.FactBench, Method: llm.MethodRAG, Model: llm.Gemma2},
		{Dataset: dataset.FactBench, Method: llm.MethodRAG, Model: llm.Mistral},
	}
	outs, err := b.RunCells(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range facts {
		if n := cs.calls[f.ID]; n != 1 {
			t.Fatalf("fact %s retrieved %d times for two cells, want 1", f.ID, n)
		}
	}
	if st := b.Pipeline.Stats(); st.Cached != 0 {
		t.Fatalf("after RunCells: %+v, want every fact released", st)
	}
	for i, c := range cells {
		want, err := b.RunCell(context.Background(), c.Dataset, c.Method, c.Model)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(outs[i], want) {
			t.Fatalf("%s: RunCells outcomes differ from RunCell's", c.Model)
		}
	}
}
