package search

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"

	"factcheck/internal/det"
)

// evictOverScan is the full-scan evictor the queued one replaced, kept as
// its differential reference: every victim is the table's minimum by
// (last-use generation, fact ID), found by scanning every pool.
func evictOverScan(pools *poolTable) int64 {
	var n int64
	for pools.n > MaxCachedFacts {
		victim := ""
		var vGen uint64
		for _, shard := range pools.shards {
			for id, p := range shard {
				g := p.lastUsed.Load()
				if victim == "" || g < vGen || (g == vGen && id < victim) {
					victim, vGen = id, g
				}
			}
		}
		pools.del(victim)
		n++
	}
	return n
}

// byAge lists the table's fact IDs by (last-use generation, fact ID).
func byAge(pools *poolTable) []string {
	type entry struct {
		gen uint64
		id  string
	}
	var es []entry
	for _, shard := range pools.shards {
		for id, p := range shard {
			es = append(es, entry{p.lastUsed.Load(), id})
		}
	}
	slices.SortFunc(es, func(a, b entry) int {
		if c := cmp.Compare(a.gen, b.gen); c != 0 {
			return c
		}
		return strings.Compare(a.id, b.id)
	})
	ids := make([]string, len(es))
	for i, e := range es {
		ids[i] = e.id
	}
	return ids
}

// TestEvictorMatchesFullScan drives the queued evictor and the full-scan
// reference through the same random sequences of publishes (one or a few
// pools at a time), reads that raise a pool's generation (mostly of the
// oldest pools, whose queue entries they invalidate) and folds that
// replace a pool under the same generation, and requires the two tables
// to hold the same pools after every step.
func TestEvictorMatchesFullScan(t *testing.T) {
	rng := det.Source("evictor-differential")
	for trial := 0; trial < 4; trial++ {
		var queued, scanned poolTable
		var ev evictor
		gen := uint64(0)
		next := 0
		mk := func(g uint64) *factPool {
			p := &factPool{}
			p.lastUsed.Store(g)
			return p
		}
		for step := 0; step < 1500; step++ {
			ids := byAge(&scanned)
			switch op := rng.IntN(10); {
			case op < 3 && len(ids) > 0:
				// A read at the current generation, of one of the oldest
				// pools half the time.
				id := ids[rng.IntN(len(ids))]
				if rng.IntN(2) == 0 {
					id = ids[rng.IntN(min(len(ids), 8))]
				}
				for _, pt := range []*poolTable{&queued, &scanned} {
					p, _ := pt.get(id)
					if p.lastUsed.Load() < gen {
						p.lastUsed.Store(gen)
					}
				}
			case op < 4 && len(ids) > 0:
				// An ingestion fold: a new pool version, same generation.
				id := ids[rng.IntN(len(ids))]
				for _, pt := range []*poolTable{&queued, &scanned} {
					p, _ := pt.get(id)
					pt.put(id, mk(p.lastUsed.Load()))
					pt.copied = 0
				}
			default:
				gen++
				for k := 1 + rng.IntN(3)/2; k > 0; k-- {
					id := fmt.Sprintf("f%06d", (next*7919)%1000003)
					next++
					queued.put(id, mk(gen))
					scanned.put(id, mk(gen))
				}
				a, b := ev.evictOver(&queued), evictOverScan(&scanned)
				queued.copied, scanned.copied = 0, 0
				if a != b {
					t.Fatalf("trial %d step %d: queued evictor dropped %d pools, full scan %d", trial, step, a, b)
				}
			}
			if got, want := byAge(&queued), byAge(&scanned); !slices.Equal(got, want) {
				t.Fatalf("trial %d step %d: tables differ after eviction", trial, step)
			}
		}
	}
}
