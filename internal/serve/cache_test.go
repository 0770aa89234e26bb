package serve

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"factcheck/internal/core"
	"factcheck/internal/dataset"
	"factcheck/internal/llm"
	"factcheck/internal/strategy"
)

func cacheKey(fact string) verdictKey {
	return verdictKey{
		cell:   core.Cell{Dataset: dataset.FactBench, Method: llm.MethodDKA, Model: llm.Gemma2},
		factID: fact,
	}
}

// cacheCells is one dataset's full grid of cells: every method times every
// benchmark model, the cells a fact's verdicts can be cached under.
func cacheCells() []core.Cell {
	var cells []core.Cell
	for _, m := range llm.AllMethods {
		for _, model := range llm.BenchmarkModels {
			cells = append(cells, core.Cell{Dataset: dataset.FactBench, Method: m, Model: model})
		}
	}
	return cells
}

// epochOutcome is a verdict that names its own slot and epoch, so a hit on
// the wrong slot or the wrong epoch shows in its fields: the fact in
// FactID, the cell in Explanation, the epoch in Attempts.
func epochOutcome(k verdictKey) strategy.Outcome {
	return strategy.Outcome{FactID: k.factID, Explanation: fmt.Sprint(k.cell), Attempts: int(k.epoch)}
}

func TestCachePutGetUpdate(t *testing.T) {
	c := newVerdictCache(64)
	k := cacheKey("f1")
	if _, ok := c.get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.put(k, strategy.Outcome{FactID: "f1", Attempts: 1})
	out, ok := c.get(k)
	if !ok || out.Attempts != 1 {
		t.Fatalf("get = %+v, %v", out, ok)
	}
	c.put(k, strategy.Outcome{FactID: "f1", Attempts: 2})
	if out, _ := c.get(k); out.Attempts != 2 {
		t.Fatalf("update lost: %+v", out)
	}
	if c.len() != 1 {
		t.Fatalf("len = %d, want 1", c.len())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// Capacity == shard count -> one slot per shard; two same-shard keys
	// evict the older one.
	c := newVerdictCache(cacheShards)
	k1 := cacheKey("f-0")
	var k2 verdictKey
	found := false
	for i := 1; i < 4096; i++ {
		k := cacheKey(fmt.Sprintf("f-%d", i))
		if k.slot().shard() == k1.slot().shard() {
			k2, found = k, true
			break
		}
	}
	if !found {
		t.Fatal("no same-shard key found")
	}
	c.put(k1, strategy.Outcome{FactID: k1.factID})
	c.put(k2, strategy.Outcome{FactID: k2.factID})
	if _, ok := c.get(k1); ok {
		t.Fatal("oldest entry not evicted at capacity")
	}
	if _, ok := c.get(k2); !ok {
		t.Fatal("newest entry evicted")
	}
}

// TestCacheHitsOnlyAtSlotEpoch: a slot answers requests of its own epoch
// only; the epochs on either side miss and leave it in place.
func TestCacheHitsOnlyAtSlotEpoch(t *testing.T) {
	c := newVerdictCache(64)
	k := cacheKey("f1")
	k.epoch = 5
	c.put(k, epochOutcome(k))
	for _, e := range []uint64{4, 6} {
		miss := k
		miss.epoch = e
		if out, ok := c.get(miss); ok {
			t.Fatalf("get at epoch %d hit the epoch-5 slot: %+v", e, out)
		}
	}
	if out, ok := c.get(k); !ok || out.Attempts != 5 {
		t.Fatalf("get at the slot's epoch = %+v, %v; want the epoch-5 verdict", out, ok)
	}
	if c.len() != 1 {
		t.Fatalf("len = %d, want 1 (one slot per cell and fact)", c.len())
	}
}

// TestCachePutNeverReplacesNewerEpoch: a verdict of an older epoch never
// overwrites the slot's newer one; a newer epoch does replace it.
func TestCachePutNeverReplacesNewerEpoch(t *testing.T) {
	c := newVerdictCache(64)
	k := cacheKey("f1")
	at := func(e uint64) verdictKey { k := k; k.epoch = e; return k }
	c.put(at(5), epochOutcome(at(5)))
	c.put(at(4), epochOutcome(at(4)))
	if _, ok := c.get(at(4)); ok {
		t.Fatal("an epoch-4 put replaced the epoch-5 slot")
	}
	if out, ok := c.get(at(5)); !ok || out.Attempts != 5 {
		t.Fatalf("epoch-5 verdict = %+v, %v after an older put", out, ok)
	}
	c.put(at(6), epochOutcome(at(6)))
	if _, ok := c.get(at(5)); ok {
		t.Fatal("the epoch-5 verdict survived an epoch-6 put")
	}
	if out, ok := c.get(at(6)); !ok || out.Attempts != 6 {
		t.Fatalf("epoch-6 verdict = %+v, %v", out, ok)
	}
	if c.len() != 1 {
		t.Fatalf("len = %d, want 1", c.len())
	}
}

// TestCacheSweepStaleRemovesOnlyTouchedOlderSlots: a sweep removes exactly
// the touched fact's slots older than its epoch and counts them; other
// facts and slots already at (or past) the epoch stay.
func TestCacheSweepStaleRemovesOnlyTouchedOlderSlots(t *testing.T) {
	c := newVerdictCache(1 << 10)
	cells := cacheCells()
	put := func(cell core.Cell, fact string, e uint64) {
		k := verdictKey{cell: cell, factID: fact, epoch: e}
		c.put(k, epochOutcome(k))
	}
	for i, cell := range cells {
		put(cell, "touched", uint64(i%4)) // epochs 0..3
		put(cell, "other", 0)
	}
	want := 0
	for i := range cells {
		if i%4 < 2 {
			want++
		}
	}
	if got := c.sweepStale("touched", 2, cells); got != want {
		t.Fatalf("sweepStale removed %d slots, want %d", got, want)
	}
	for i, cell := range cells {
		e := uint64(i % 4)
		_, ok := c.get(verdictKey{cell: cell, factID: "touched", epoch: e})
		if ok != (e >= 2) {
			t.Errorf("%v epoch %d: present %v after the sweep, want %v", cell, e, ok, e >= 2)
		}
		if _, ok := c.get(verdictKey{cell: cell, factID: "other"}); !ok {
			t.Errorf("%v: the untouched fact's slot was swept", cell)
		}
	}
	if got := c.len(); got != 2*len(cells)-want {
		t.Fatalf("len = %d after the sweep, want %d", got, 2*len(cells)-want)
	}
	if got := c.sweepStale("touched", 2, cells); got != 0 {
		t.Fatalf("a repeated sweep removed %d slots, want 0", got)
	}
}

// TestCacheGetStaleReturnsNewest: the degraded fallback answers with the
// newest verdict cached for the (cell, fact), whatever the requested
// epoch, and misses when nothing is cached.
func TestCacheGetStaleReturnsNewest(t *testing.T) {
	c := newVerdictCache(64)
	k := cacheKey("f1")
	if _, ok := c.getStale(k.cell, k.factID); ok {
		t.Fatal("getStale hit on an empty cache")
	}
	for _, e := range []uint64{1, 3, 2} {
		k.epoch = e
		c.put(k, epochOutcome(k))
	}
	if out, ok := c.getStale(k.cell, k.factID); !ok || out.Attempts != 3 {
		t.Fatalf("getStale = %+v, %v; want the epoch-3 verdict", out, ok)
	}
	if _, ok := c.getStale(k.cell, "f2"); ok {
		t.Fatal("getStale hit for another fact")
	}
}

// TestCacheMatchesReference drives random get/put/sweep/getStale sequences
// against a plain map holding one (epoch, verdict) per slot. The key space
// stays below every shard's capacity, so LRU eviction never fires and the
// two must agree on every answer.
func TestCacheMatchesReference(t *testing.T) {
	type slot struct {
		epoch uint64
		out   strategy.Outcome
	}
	cells := cacheCells()[:3]
	facts := []string{"f0", "f1", "f2", "f3", "f4", "f5"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := newVerdictCache(cacheShards * len(cells) * len(facts))
		ref := map[slotKey]slot{}
		for op := 0; op < 2000; op++ {
			k := verdictKey{
				cell:   cells[rng.Intn(len(cells))],
				factID: facts[rng.Intn(len(facts))],
				epoch:  uint64(rng.Intn(6)),
			}
			switch rng.Intn(4) {
			case 0:
				out, ok := c.get(k)
				r, rok := ref[k.slot()]
				if want := rok && r.epoch == k.epoch; ok != want || (ok && out != r.out) {
					t.Fatalf("seed %d op %d: get(%v) = %+v, %v; reference %+v, %v", seed, op, k, out, ok, r, want)
				}
			case 1:
				out := epochOutcome(k)
				out.PromptTokens = op // tells same-epoch rewrites apart
				c.put(k, out)
				if r, ok := ref[k.slot()]; !ok || r.epoch <= k.epoch {
					ref[k.slot()] = slot{k.epoch, out}
				}
			case 2:
				want := 0
				for _, cell := range cells {
					sk := slotKey{cell: cell, factID: k.factID}
					if r, ok := ref[sk]; ok && r.epoch < k.epoch {
						delete(ref, sk)
						want++
					}
				}
				if got := c.sweepStale(k.factID, k.epoch, cells); got != want {
					t.Fatalf("seed %d op %d: sweepStale(%s, %d) = %d, reference %d", seed, op, k.factID, k.epoch, got, want)
				}
			case 3:
				out, ok := c.getStale(k.cell, k.factID)
				r, rok := ref[k.slot()]
				if ok != rok || (ok && out != r.out) {
					t.Fatalf("seed %d op %d: getStale(%v) = %+v, %v; reference %+v, %v", seed, op, k.slot(), out, ok, r, rok)
				}
			}
			if c.len() != len(ref) {
				t.Fatalf("seed %d op %d: len = %d, reference %d", seed, op, c.len(), len(ref))
			}
		}
	}
}

// TestCacheConcurrentEpochs runs gets, puts, sweeps and stale reads from
// several goroutines over a small, evicting cache. Every verdict names its
// own slot and epoch, so a hit on the wrong epoch or slot shows; run it
// with -race to check the shard locking.
func TestCacheConcurrentEpochs(t *testing.T) {
	c := newVerdictCache(4 * cacheShards)
	cells := cacheCells()[:4]
	facts := []string{"f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7"}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for op := 0; op < 3000; op++ {
				k := verdictKey{
					cell:   cells[rng.Intn(len(cells))],
					factID: facts[rng.Intn(len(facts))],
					epoch:  uint64(rng.Intn(8)),
				}
				switch rng.Intn(4) {
				case 0:
					if out, ok := c.get(k); ok && out != epochOutcome(k) {
						errs <- fmt.Errorf("get(%v) hit %+v", k, out)
						return
					}
				case 1:
					c.put(k, epochOutcome(k))
				case 2:
					c.sweepStale(k.factID, k.epoch, cells)
				case 3:
					if out, ok := c.getStale(k.cell, k.factID); ok &&
						(out.FactID != k.factID || out.Explanation != fmt.Sprint(k.cell)) {
						errs <- fmt.Errorf("getStale(%v) answered for another slot: %+v", k.slot(), out)
						return
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := c.len(); n > 4*cacheShards {
		t.Fatalf("len = %d, over the capacity %d", n, 4*cacheShards)
	}
}

// BenchmarkSweepStale times the ingest builder's per-fact work on a full
// 65,536-slot cache: one sweep of a touched fact's slots, then the puts
// that refill them at the new epoch (which keep the cache full).
func BenchmarkSweepStale(b *testing.B) {
	const capacity = 1 << 16
	cells := cacheCells()
	c := newVerdictCache(capacity)
	facts := make([]string, 2*capacity/len(cells))
	epochs := make([]uint64, len(facts))
	for i := range facts {
		facts[i] = fmt.Sprintf("factbench-%06d", i)
		for _, cell := range cells {
			c.put(verdictKey{cell: cell, factID: facts[i]}, strategy.Outcome{FactID: facts[i]})
		}
	}
	if n := c.len(); n < capacity*9/10 {
		b.Fatalf("cache holds %d slots, want about %d", n, capacity)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(facts)
		epochs[j]++
		c.sweepStale(facts[j], epochs[j], cells)
		for _, cell := range cells {
			c.put(verdictKey{cell: cell, factID: facts[j], epoch: epochs[j]}, strategy.Outcome{FactID: facts[j]})
		}
	}
}
