package serve

import (
	"container/list"
	"sync"

	"factcheck/internal/core"
	"factcheck/internal/det"
	"factcheck/internal/strategy"
)

// cacheShards is the shard count of the verdict LRU. Shards spread both
// lock contention and the capacity budget; slots hash by det.Hash64 of the
// full (dataset, method, model, fact) coordinate, so one hot fact's
// verdicts under different models land on different shards.
const cacheShards = 16

// verdictKey addresses one verdict: a grid cell plus a fact ID, pinned to
// the fact's corpus epoch. The LRU keeps one slot per (cell, fact) with the
// epoch stored in it, so a verdict computed over epoch e is only served to
// requests that read epoch e: a bump turns the slot into a miss with no
// synchronised purge, and the ingest builder's sweep reclaims it. The
// singleflight map keys on the whole verdictKey, epoch included.
type verdictKey struct {
	cell   core.Cell
	factID string
	epoch  uint64
}

func (k verdictKey) slot() slotKey { return slotKey{cell: k.cell, factID: k.factID} }

// slotKey addresses one verdict-LRU slot: a (cell, fact) coordinate under
// any epoch.
type slotKey struct {
	cell   core.Cell
	factID string
}

func (k slotKey) shard() uint64 {
	return det.Hash64(string(k.cell.Dataset), string(k.cell.Method), k.cell.Model, k.factID) % cacheShards
}

// verdictCache is a sharded in-memory LRU of single-fact verdicts, the
// fastest layer of the service's lookup stack (LRU -> result store ->
// verify). Whole-cell store snapshots hydrate it on first touch; verdicts
// computed on demand are inserted directly. Each shard holds capacity/16
// slots under its own lock.
type verdictCache struct {
	shards [cacheShards]cacheShard
}

type cacheShard struct {
	mu      sync.Mutex
	cap     int
	entries map[slotKey]*list.Element
	order   *list.List // front = most recently used
}

type cacheEntry struct {
	key   slotKey
	epoch uint64
	out   strategy.Outcome
}

func newVerdictCache(capacity int) *verdictCache {
	per := capacity / cacheShards
	if per < 1 {
		per = 1
	}
	c := &verdictCache{}
	for i := range c.shards {
		c.shards[i] = cacheShard{
			cap:     per,
			entries: map[slotKey]*list.Element{},
			order:   list.New(),
		}
	}
	return c
}

// get hits only when the (cell, fact) slot holds a verdict of k's epoch.
func (c *verdictCache) get(k verdictKey) (strategy.Outcome, bool) {
	sk := k.slot()
	s := &c.shards[sk.shard()]
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[sk]; ok && el.Value.(*cacheEntry).epoch == k.epoch {
		s.order.MoveToFront(el)
		return el.Value.(*cacheEntry).out, true
	}
	return strategy.Outcome{}, false
}

// put stores out in k's slot, unless the slot already holds a verdict of a
// newer epoch: a resolution that read its epoch before a bump never
// overwrites the fresher verdict.
func (c *verdictCache) put(k verdictKey, out strategy.Outcome) {
	sk := k.slot()
	s := &c.shards[sk.shard()]
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[sk]; ok {
		if e := el.Value.(*cacheEntry); e.epoch <= k.epoch {
			e.epoch, e.out = k.epoch, out
			s.order.MoveToFront(el)
		}
		return
	}
	s.entries[sk] = s.order.PushFront(&cacheEntry{key: sk, epoch: k.epoch, out: out})
	if s.order.Len() > s.cap {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.entries, oldest.Value.(*cacheEntry).key)
	}
}

// getStale returns the (cell, fact) verdict under whatever epoch its slot
// holds, the newest one cached — the degraded-serving fallback when fresh
// resolution is unavailable (breaker open, model down). It is one lookup
// and leaves the slot's recency alone.
func (c *verdictCache) getStale(cell core.Cell, factID string) (strategy.Outcome, bool) {
	sk := slotKey{cell: cell, factID: factID}
	s := &c.shards[sk.shard()]
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[sk]; ok {
		return el.Value.(*cacheEntry).out, true
	}
	return strategy.Outcome{}, false
}

// sweepStale removes the fact's slots in the given cells that hold a
// verdict older than epoch, and returns how many it removed. Lookups
// already miss such slots; the sweep reclaims their memory eagerly, one
// lookup per cell, instead of waiting for LRU pressure.
func (c *verdictCache) sweepStale(factID string, epoch uint64, cells []core.Cell) int {
	removed := 0
	for _, cell := range cells {
		sk := slotKey{cell: cell, factID: factID}
		s := &c.shards[sk.shard()]
		s.mu.Lock()
		if el, ok := s.entries[sk]; ok && el.Value.(*cacheEntry).epoch < epoch {
			s.order.Remove(el)
			delete(s.entries, sk)
			removed++
		}
		s.mu.Unlock()
	}
	return removed
}

// len reports the total number of cached verdicts across shards.
func (c *verdictCache) len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}
