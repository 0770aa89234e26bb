package search

import (
	"container/list"
	"fmt"
	"sync"
	"testing"

	"factcheck/internal/corpus"
	"factcheck/internal/dataset"
	"factcheck/internal/det"
	"factcheck/internal/text"
	"factcheck/internal/verbalize"
	"factcheck/internal/world"
)

// mutexedFrontend reproduces the retired warm read path over the very same
// materialised pools: a sharded mutex map with an LRU touch (list
// move-to-front) per hit, and an RWMutex-guarded query-vector memo. The
// scoring tail is identical to the engine's, so the gap between
// BenchmarkSearchWarmParallel/mutexed and /snapshot isolates exactly what
// this PR removed from the hot path — lock acquisitions — rather than any
// difference in ranking work.
type mutexedFrontend struct {
	e      *Engine
	shards [8]mutexedShard
	qvMu   sync.RWMutex
	qv     map[string]text.SparseVector
}

type mutexedShard struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	order   *list.List // front = most recently used
}

func newMutexedFrontend(e *Engine, facts []*dataset.Fact) (*mutexedFrontend, error) {
	m := &mutexedFrontend{e: e, qv: map[string]text.SparseVector{}}
	for i := range m.shards {
		m.shards[i].entries = map[string]*list.Element{}
		m.shards[i].order = list.New()
	}
	sn := e.snap.Load()
	for _, f := range facts {
		p, ok := sn.pools.get(f.ID)
		if !ok {
			return nil, fmt.Errorf("pool %s not warmed", f.ID)
		}
		s := &m.shards[det.Hash64("shard", f.ID)%uint64(len(m.shards))]
		s.entries[f.ID] = s.order.PushFront(p)
	}
	return m, nil
}

// mutexedMemoBound is the retired query-vector memo's admission bound,
// kept so the baseline reproduces the front end it measured.
const mutexedMemoBound = 4096

func (m *mutexedFrontend) queryVec(q string) text.SparseVector {
	m.qvMu.RLock()
	v, ok := m.qv[q]
	m.qvMu.RUnlock()
	if ok {
		return v
	}
	v = text.SparseEmbed(q)
	m.qvMu.Lock()
	if len(m.qv) < mutexedMemoBound {
		m.qv[q] = v
	}
	m.qvMu.Unlock()
	return v
}

func (m *mutexedFrontend) search(factID, query string, n int) ([]SERPItem, error) {
	s := &m.shards[det.Hash64("shard", factID)%uint64(len(m.shards))]
	s.mu.Lock()
	el, ok := s.entries[factID]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("search: %w %q", ErrUnknownFact, factID)
	}
	s.order.MoveToFront(el)
	p := el.Value.(*factPool)
	s.mu.Unlock()
	qv := m.queryVec(query)
	key := det.NewKey("serp", query).Cont(p.factID).Cont("-d")
	a := m.e.arena()
	hits := p.idx.TopK(qv, n, p.rowDoc, func(row int) float64 {
		return serpJitterScale * key.Uniform(corpus.SeqDigits(p.seq(row)))
	}, p.cmpIDs, nil, a)
	Pool{e: m.e, p: p}.Rank(hits)
	out := make([]SERPItem, len(hits))
	for i, h := range hits {
		d := p.payload(h.Row)
		out[i] = SERPItem{DocID: d.DocID, URL: d.URL, Host: d.Host, Title: d.Title, Rank: i + 1, Score: h.Score}
	}
	m.e.release(a)
	return out, nil
}

// BenchmarkSearchWarmParallel measures steady-state SERP throughput over
// warm pools under the two front-end designs; run with -cpu 1,8 to see the
// single-stream cost and the contention picture. At one proc the designs
// are near-identical (a lock with no waiters is cheap); at eight the
// mutexed variant serialises on shard locks and the qv RWMutex while the
// snapshot variant's reads share immutable state and scale with cores.
func BenchmarkSearchWarmParallel(b *testing.B) {
	w := world.New(world.SmallConfig())
	d := dataset.Build(w, dataset.FactBench, 0.2)
	e := NewEngine(corpus.NewGenerator(w), d)
	facts := d.Facts
	if len(facts) > 16 {
		facts = facts[:16]
	}
	queries := []string{
		"who founded the company",
		"award winner record",
		"married in the capital",
		"regional registry profile",
	}
	for _, f := range facts {
		if _, err := e.Search(f.ID, queries[0], 1); err != nil {
			b.Fatal(err)
		}
	}
	mf, err := newMutexedFrontend(e, facts)
	if err != nil {
		b.Fatal(err)
	}

	// k = 10 keeps the scoring tail short so the run measures the front
	// end (pool lookup, LRU accounting, query-vector memo) rather than
	// drowning it in per-query ranking work.
	run := func(search func(factID, query string, n int) ([]SERPItem, error)) func(*testing.B) {
		return func(b *testing.B) {
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					f := facts[i%len(facts)]
					q := queries[i%len(queries)]
					i++
					if _, err := search(f.ID, q, 10); err != nil {
						b.Error(err)
						return
					}
				}
			})
		}
	}
	b.Run("mutexed", run(mf.search))
	b.Run("snapshot", run(e.Search))
}

// corpusScaleEngine builds a standalone search engine whose per-fact pools
// follow scale× the paper's size distribution (mean ≈155·scale docs), so
// the scan and indexed asymptotics separate as the corpus grows, plus the
// fact-derived queries the RAG pipeline issues (the claim sentence and its
// entity labels) for the four benched facts. Pools, and the scan
// reference's dense vectors, are materialised outside the timer.
func corpusScaleEngine(b *testing.B, scale int) (*Engine, [][2]string) {
	b.Helper()
	w := world.New(world.SmallConfig())
	d := dataset.Build(w, dataset.FactBench, 0.2)
	gen := corpus.NewGenerator(w)
	gen.MeanDocs *= float64(scale)
	gen.StdDocs *= float64(scale)
	gen.MaxDocs *= scale
	e := NewEngine(gen, d)
	facts := d.Facts
	if len(facts) > 4 {
		facts = facts[:4]
	}
	var jobs [][2]string
	for _, f := range facts {
		if _, err := e.Search(f.ID, "warm", 1); err != nil {
			b.Fatal(err)
		}
		if _, err := e.ScanSearch(f.ID, "warm", 1); err != nil {
			b.Fatal(err)
		}
		sentence := verbalize.Sentence(f)
		for _, q := range []string{
			sentence,
			f.Subject.Label + " " + f.Object.Label,
			"evidence about " + sentence,
			"the record " + f.Object.Label,
		} {
			jobs = append(jobs, [2]string{f.ID, q})
		}
	}
	return e, jobs
}

// searchScaleBench runs steady-state SERP queries over one ranking path at
// 1× and 10× corpus scale. BenchmarkSearchIndexed in internal/index runs
// the exhaustive index path over the same pools and queries.
func searchScaleBench(b *testing.B, search func(e *Engine, factID, query string, n int) ([]SERPItem, error)) {
	for _, scale := range []int{1, 10} {
		b.Run(fmt.Sprintf("corpus%dx", scale), func(b *testing.B) {
			e, jobs := corpusScaleEngine(b, scale)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := jobs[i%len(jobs)]
				if _, err := search(e, j[0], j[1], DefaultSERPSize); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSearchScan times the retired linear-scan ranking (O(pool·dims)
// cosine + full sort).
func BenchmarkSearchScan(b *testing.B) { searchScaleBench(b, (*Engine).ScanSearch) }

// BenchmarkSearch times the production path: each distinct variant's
// cosine accumulated once over its postings, then every row ranked.
func BenchmarkSearch(b *testing.B) { searchScaleBench(b, (*Engine).Search) }
