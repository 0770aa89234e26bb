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
		p, ok := sn.pools[f.ID]
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
	key := det.NewKey("serp", query)
	a := m.e.arena()
	hits := p.idx.TopKPruned(qv, n, func(docID string) float64 {
		return serpJitterScale * key.Uniform(docID)
	}, serpJitterScale, a)
	out := serpItems(p, hits)
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
