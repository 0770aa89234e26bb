package rag

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"factcheck/internal/corpus"
	"factcheck/internal/dataset"
	"factcheck/internal/det"
	"factcheck/internal/search"
	"factcheck/internal/world"
)

// shardIndex is the shard evidenceCache.shard picks for id.
func shardIndex(id string) int {
	return int(det.Hash64("rag-shard", id) % evidenceShards)
}

// idsInShard returns n fact IDs with the given prefix that all map to
// shard.
func idsInShard(prefix string, shard, n int) []string {
	var ids []string
	for i := 0; len(ids) < n; i++ {
		id := fmt.Sprintf("%s-%06d", prefix, i)
		if shardIndex(id) == shard {
			ids = append(ids, id)
		}
	}
	return ids
}

// fakeRetrieve counts its calls and returns fresh evidence named after id.
type fakeRetrieve struct{ calls atomic.Int64 }

func (r *fakeRetrieve) get(c *evidenceCache, id string, pin bool) (*Evidence, error) {
	return c.get(context.Background(), id, pin, func() (*Evidence, error) {
		r.calls.Add(1)
		return &Evidence{Sentence: id}, nil
	})
}

// cacheModel is the reference the cache is checked against: which facts
// are held and whether they are pinned, plus each shard's unpinned facts
// in completion order, of which at most evidenceShardCap stay.
type cacheModel struct {
	pinned  map[string]bool // held facts; the value says pinned
	fifo    [evidenceShards][]string
	evicted uint64
}

func (m *cacheModel) unqueue(id string) {
	q := m.fifo[shardIndex(id)]
	for i, x := range q {
		if x == id {
			m.fifo[shardIndex(id)] = append(q[:i], q[i+1:]...)
			return
		}
	}
}

// get applies one successful retrieval and reports whether it hit.
func (m *cacheModel) get(id string, pin bool) bool {
	pinned, hit := m.pinned[id]
	switch {
	case hit && pin && !pinned:
		m.pinned[id] = true
		m.unqueue(id)
	case !hit && pin:
		m.pinned[id] = true
	case !hit:
		s := shardIndex(id)
		if len(m.fifo[s]) == evidenceShardCap {
			delete(m.pinned, m.fifo[s][0])
			m.fifo[s] = m.fifo[s][1:]
			m.evicted++
		}
		m.pinned[id] = false
		m.fifo[s] = append(m.fifo[s], id)
	}
	return hit
}

func (m *cacheModel) invalidate(id string) {
	if pinned, ok := m.pinned[id]; ok {
		delete(m.pinned, id)
		if !pinned {
			m.unqueue(id)
		}
	}
}

func (m *cacheModel) stats() Stats {
	st := Stats{Cached: len(m.pinned), Evicted: m.evicted}
	for _, p := range m.pinned {
		if p {
			st.Pinned++
		}
	}
	for _, q := range m.fifo {
		st.Bounded += len(q)
	}
	return st
}

// TestEvidenceCacheMatchesModel runs random sequences of retrievals,
// warms, failed retrievals, invalidations and clears against the cache
// and against cacheModel. After each operation the hit or miss, the
// counts and the bound agree: unpinned facts never exceed
// search.MaxCachedFacts. The fact universe is three times the bound, so
// shards overflow and evict.
func TestEvidenceCacheMatchesModel(t *testing.T) {
	errRetrieve := errors.New("retrieval failed")
	for seed := uint64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		var c evidenceCache
		m := &cacheModel{pinned: map[string]bool{}}
		universe := 3 * search.MaxCachedFacts
		for op := 0; op < 4000; op++ {
			id := fmt.Sprintf("f-%05d", rng.IntN(universe))
			desc := ""
			switch r := rng.IntN(100); {
			case r < 80:
				pin := r >= 60
				computed := false
				ev, err := c.get(context.Background(), id, pin, func() (*Evidence, error) {
					computed = true
					return &Evidence{Sentence: id}, nil
				})
				if err != nil || ev.Sentence != id {
					t.Fatalf("seed %d op %d: get(%s) = %v, %v", seed, op, id, ev, err)
				}
				if hit := m.get(id, pin); hit == computed {
					t.Fatalf("seed %d op %d: get(%s, pin %v) retrieved %v, model hit %v", seed, op, id, pin, computed, hit)
				}
				desc = fmt.Sprintf("get(%s, pin %v)", id, pin)
			case r < 85:
				// A failed retrieval caches nothing; one on a held fact
				// never runs.
				_, held := m.pinned[id]
				_, err := c.get(context.Background(), id, false, func() (*Evidence, error) { return nil, errRetrieve })
				if held != (err == nil) {
					t.Fatalf("seed %d op %d: failing get(%s) on held %v returned %v", seed, op, id, held, err)
				}
				desc = fmt.Sprintf("failing get(%s)", id)
			case r < 99:
				c.invalidate(id)
				m.invalidate(id)
				desc = fmt.Sprintf("invalidate(%s)", id)
			default:
				c.clear()
				m.pinned = map[string]bool{}
				m.fifo = [evidenceShards][]string{}
				desc = "clear"
			}
			got, want := c.stats(), m.stats()
			if got != want {
				t.Fatalf("seed %d op %d: after %s stats %+v, model %+v", seed, op, desc, got, want)
			}
			if unpinned := got.Cached - got.Pinned; unpinned != got.Bounded || unpinned > search.MaxCachedFacts {
				t.Fatalf("seed %d op %d: %d unpinned entries, %d bounded, bound %d", seed, op, unpinned, got.Bounded, search.MaxCachedFacts)
			}
		}
	}
}

// TestEvidenceCacheKeepsPinnedAndInFlight fills one shard far past its
// bound while it holds pinned entries and one retrieval in flight: neither
// is evicted, a caller arriving mid-flight joins the retrieval, and once
// it completes the in-flight entry counts against the bound like any
// other.
func TestEvidenceCacheKeepsPinnedAndInFlight(t *testing.T) {
	var c evidenceCache
	var r fakeRetrieve
	const shard = 5
	pinned := idsInShard("pinned", shard, 4)
	for _, id := range pinned {
		if _, err := r.get(&c, id, true); err != nil {
			t.Fatal(err)
		}
	}

	flying := idsInShard("flying", shard, 1)[0]
	gate := make(chan struct{})
	var flights atomic.Int64
	leader := make(chan *Evidence)
	follow := func() {
		ev, _ := c.get(context.Background(), flying, false, func() (*Evidence, error) {
			flights.Add(1)
			<-gate
			return &Evidence{Sentence: flying}, nil
		})
		leader <- ev
	}
	go follow()
	// Wait until the leader's entry exists, so the flood below runs while
	// it is in flight.
	for c.stats().Cached != len(pinned)+1 {
		runtime.Gosched()
	}

	flood := idsInShard("flood", shard, 3*evidenceShardCap)
	for _, id := range flood {
		if _, err := r.get(&c, id, false); err != nil {
			t.Fatal(err)
		}
	}
	// The in-flight entry is held but not bounded, so the bounded count
	// stays at the shard's cap.
	if got, want := c.stats(), (Stats{Cached: len(pinned) + evidenceShardCap + 1, Pinned: len(pinned), Bounded: evidenceShardCap, Evicted: uint64(len(flood) - evidenceShardCap)}); got != want {
		t.Fatalf("mid-flight stats %+v, want %+v", got, want)
	}
	go follow()
	close(gate)
	a, b := <-leader, <-leader
	if a != b || a.Sentence != flying || flights.Load() != 1 {
		t.Fatalf("in-flight fact retrieved %d times (evidence shared %v), want one shared retrieval", flights.Load(), a == b)
	}

	before := r.calls.Load()
	for _, id := range pinned {
		if _, err := r.get(&c, id, false); err != nil {
			t.Fatal(err)
		}
	}
	if n := r.calls.Load() - before; n != 0 {
		t.Fatalf("%d pinned entries were evicted", n)
	}
	s := c.shard(flying)
	s.mu.Lock()
	queued, held := s.queued, len(s.entries)
	s.mu.Unlock()
	if queued != evidenceShardCap || held != len(pinned)+evidenceShardCap {
		t.Fatalf("shard holds %d entries, %d of them bounded; want %d and %d", held, queued, len(pinned)+evidenceShardCap, evidenceShardCap)
	}
	want := Stats{Cached: len(pinned) + evidenceShardCap, Pinned: len(pinned), Bounded: evidenceShardCap, Evicted: uint64(len(flood) + 1 - evidenceShardCap)}
	if got := c.stats(); got != want {
		t.Fatalf("stats %+v, want %+v", got, want)
	}
}

// TestEvidenceCacheCoalescesUnderEviction holds one retrieval per fact in
// flight while other goroutines flood every shard with bounded entries;
// every caller of a held fact joins its one retrieval.
func TestEvidenceCacheCoalescesUnderEviction(t *testing.T) {
	var c evidenceCache
	const facts, callers = 8, 6
	gate := make(chan struct{})
	var flights [facts]atomic.Int64
	var wg sync.WaitGroup
	got := make([][callers]*Evidence, facts)
	call := func(f, i int) {
		defer wg.Done()
		id := fmt.Sprintf("held-%d", f)
		got[f][i], _ = c.get(context.Background(), id, false, func() (*Evidence, error) {
			flights[f].Add(1)
			<-gate
			return &Evidence{Sentence: id}, nil
		})
	}
	for f := range facts {
		wg.Add(1)
		go call(f, 0)
	}
	for c.stats().Cached != facts {
		runtime.Gosched()
	}
	var flood sync.WaitGroup
	for g := range 4 {
		flood.Add(1)
		go func() {
			defer flood.Done()
			var r fakeRetrieve
			for i := range 2 * search.MaxCachedFacts {
				if _, err := r.get(&c, fmt.Sprintf("flood-%d-%d", g, i), false); err != nil {
					t.Error(err)
				}
			}
		}()
		for f := range facts {
			for i := 1 + g; i < callers; i += 4 {
				wg.Add(1)
				go call(f, i)
			}
		}
	}
	flood.Wait()
	close(gate)
	wg.Wait()
	for f := range facts {
		if n := flights[f].Load(); n != 1 {
			t.Errorf("fact %d retrieved %d times under eviction, want 1", f, n)
		}
		for i := range callers {
			if got[f][i] != got[f][0] || got[f][i] == nil {
				t.Errorf("fact %d caller %d got other evidence", f, i)
			}
		}
	}
	if st := c.stats(); st.Bounded > search.MaxCachedFacts || st.Evicted == 0 {
		t.Errorf("stats %+v: want at most %d bounded entries and some evicted", st, search.MaxCachedFacts)
	}
}

// smallWorld is every dataset of the small world at test scale (676
// facts, more than search.MaxCachedFacts) behind one engine.
func smallWorld(t *testing.T) (*Pipeline, []*dataset.Fact) {
	t.Helper()
	w := world.New(world.SmallConfig())
	var ds []*dataset.Dataset
	var facts []*dataset.Fact
	for _, n := range dataset.AllNames {
		d := dataset.Build(w, n, 0.05)
		ds = append(ds, d)
		facts = append(facts, d.Facts...)
	}
	if len(facts) <= search.MaxCachedFacts {
		t.Fatalf("%d facts do not exceed the bound %d", len(facts), search.MaxCachedFacts)
	}
	return New(search.NewEngine(corpus.NewGenerator(w), ds...)), facts
}

// TestEvidenceCacheBoundsEveryFact retrieves every fact of a small world
// and checks that at most search.MaxCachedFacts entries stay; warmed facts
// stay on top of the bound until Invalidate releases them.
func TestEvidenceCacheBoundsEveryFact(t *testing.T) {
	p, facts := smallWorld(t)
	warmed := facts[:40]
	for _, f := range warmed {
		if err := p.Warm(f); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range facts {
		if _, err := p.Retrieve(f); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.Pinned != len(warmed) || st.Cached-st.Pinned != st.Bounded || st.Bounded > search.MaxCachedFacts {
		t.Fatalf("stats %+v after retrieving %d facts: want %d pinned and at most %d bounded", st, len(facts), len(warmed), search.MaxCachedFacts)
	}
	if want := uint64(len(facts) - st.Cached); st.Evicted != want {
		t.Fatalf("evicted %d, want %d (every fact not held)", st.Evicted, want)
	}
	for _, f := range warmed {
		p.Invalidate(f.ID)
	}
	if st := p.Stats(); st.Pinned != 0 || st.Cached > search.MaxCachedFacts {
		t.Fatalf("stats %+v after releasing the warmed facts", st)
	}
}

// TestEvidenceCacheRetrievesEvictedFactEqually evicts a fact's evidence
// and retrieves it again: a new copy, deep-equal to the first.
func TestEvidenceCacheRetrievesEvictedFactEqually(t *testing.T) {
	p, facts := smallWorld(t)
	for _, f := range facts[:20] {
		first, err := p.Retrieve(f)
		if err != nil {
			t.Fatal(err)
		}
		var r fakeRetrieve
		for _, id := range idsInShard("evict-"+f.ID, shardIndex(f.ID), evidenceShardCap) {
			if _, err := r.get(&p.cache, id, false); err != nil {
				t.Fatal(err)
			}
		}
		again, err := p.Retrieve(f)
		if err != nil {
			t.Fatal(err)
		}
		if again == first {
			t.Fatalf("%s: evidence not evicted", f.ID)
		}
		if !reflect.DeepEqual(again, first) {
			t.Fatalf("%s: evidence retrieved after eviction differs from the first copy", f.ID)
		}
	}
}
