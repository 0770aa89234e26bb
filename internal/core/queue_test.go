package core

import (
	"context"
	"slices"
	"sync"
	"testing"

	"factcheck/internal/dataset"
	"factcheck/internal/llm"
	"factcheck/internal/strategy"
)

// queuedSegment is one run of a taskQueue as seen through at, with the
// number of tasks it covers.
type queuedSegment struct {
	*segment
	n int
}

// walkQueue reads every task of q through at, checks that each segment
// hands out fact indices 0..n-1 in order and covers all its facts, and
// returns the segments.
func walkQueue(t *testing.T, name string, q *taskQueue) []queuedSegment {
	t.Helper()
	var segs []queuedSegment
	for ti := 0; ti < q.len(); ti++ {
		s, i := q.at(ti)
		if len(segs) == 0 || segs[len(segs)-1].segment != s {
			segs = append(segs, queuedSegment{segment: s})
		}
		last := &segs[len(segs)-1]
		if i != last.n || i >= len(s.facts) {
			t.Fatalf("%s: task %d is fact %d of its segment, want %d", name, ti, i, last.n)
		}
		last.n++
	}
	for _, s := range segs {
		if s.n != len(s.facts) {
			t.Fatalf("%s: segment covers %d of its %d facts", name, s.n, len(s.facts))
		}
	}
	return segs
}

// TestTaskQueueFusesRAGWork checks the order Run drains the grid in, over
// a cold grid, a grid with scattered cached cells, one where every RAG
// cell of a dataset is cached, one with an empty cell, and a fully cached
// one: every pending (cell, fact) pair appears exactly once; cells that
// read no evidence come first, one plain segment each; then each
// (dataset, prefetching method) with a pending cell has exactly one fused
// segment, listing exactly its pending cells in grid order and voting
// with its open-model cells, cached ones included; a fully cached pair
// has no segment; datasets ascend by size.
func TestTaskQueueFusesRAGWork(t *testing.T) {
	b, _ := benchFixture(t)
	verifiers := map[llm.Method]strategy.Verifier{}
	for _, method := range b.Config.Methods {
		v, err := b.Verifier(method)
		if err != nil {
			t.Fatal(err)
		}
		verifiers[method] = v
	}
	open := openModels(b.Config.Models)
	if len(open) == len(b.Config.Models) {
		t.Fatal("fixture has no closed model; the voter rule is untested")
	}
	size := func(dn dataset.Name) int { return len(b.Datasets[dn].Facts) }
	sizes := map[int]bool{}
	for _, dn := range b.Config.Datasets {
		sizes[size(dn)] = true
	}
	if len(sizes) < 2 {
		t.Fatalf("fixture datasets all hold %d facts; the size order is untested", size(b.Config.Datasets[0]))
	}
	grid := func(cached func(k int, c Cell) bool) []*gridCell {
		var cells []*gridCell
		for _, dn := range b.Config.Datasets {
			for _, method := range b.Config.Methods {
				for _, name := range b.Config.Models {
					c := &gridCell{
						cell:     Cell{Dataset: dn, Method: method, Model: name},
						facts:    b.Datasets[dn].Facts,
						verifier: verifiers[method],
					}
					c.cached = cached(len(cells), c.cell)
					cells = append(cells, c)
				}
			}
		}
		return cells
	}
	withEmpty := grid(func(int, Cell) bool { return false })
	withEmpty[7].facts = nil
	type key struct {
		dn     dataset.Name
		method llm.Method
	}
	for name, cells := range map[string][]*gridCell{
		"cold":       grid(func(int, Cell) bool { return false }),
		"scattered":  grid(func(k int, _ Cell) bool { return k%3 == 1 }),
		"rag-cached": grid(func(_ int, c Cell) bool { return c.Method == llm.MethodRAG && c.Dataset == dataset.YAGO }),
		"empty-cell": withEmpty,
		"warm":       grid(func(int, Cell) bool { return true }),
	} {
		segs := walkQueue(t, name, queue(cells, open))

		// What each (dataset, prefetching method) pair should get: its
		// pending cells and its open-model voters, in grid order.
		pendingRAG := map[key][]*gridCell{}
		voters := map[key][]*gridCell{}
		for _, c := range cells {
			if _, ok := c.verifier.(strategy.Prefetcher); !ok {
				continue
			}
			k := key{c.cell.Dataset, c.cell.Method}
			if !c.cached && len(c.facts) > 0 {
				pendingRAG[k] = append(pendingRAG[k], c)
			}
			if c.cell.Model != llm.GPT4oMini {
				voters[k] = append(voters[k], c)
			}
		}

		// Every pending (cell, fact) pair appears exactly once, and only
		// pending cells are queued.
		queued := map[*gridCell]int{}
		for _, s := range segs {
			for _, c := range s.cells {
				queued[c]++
			}
		}
		for _, c := range cells {
			want := 0
			if !c.cached && len(c.facts) > 0 {
				want = 1
			}
			if queued[c] != want {
				t.Errorf("%s: cell %v queued %d times, want %d", name, c.cell, queued[c], want)
			}
		}

		// Plain segments of cells that read no evidence come first.
		k := 0
		for ; k < len(segs) && segs[k].prefetch == nil; k++ {
			s := segs[k]
			if len(s.cells) != 1 || s.voters != nil {
				t.Errorf("%s: plain segment %d holds %d cells and %d voters", name, k, len(s.cells), len(s.voters))
				continue
			}
			if _, ok := s.cells[0].verifier.(strategy.Prefetcher); ok {
				t.Errorf("%s: RAG cell %v queued as a plain segment", name, s.cells[0].cell)
			}
		}
		head := segs[:k]

		// Then one fused segment per pair with a pending cell.
		fused := map[key]bool{}
		var fusedSizes []int
		for _, s := range segs[k:] {
			if s.prefetch == nil || len(s.cells) == 0 {
				t.Errorf("%s: segment after the fused ones began is not fused (%d cells)", name, len(s.cells))
				continue
			}
			first := s.cells[0]
			kk := key{first.cell.Dataset, first.cell.Method}
			if fused[kk] {
				t.Errorf("%s: %v has two fused segments", name, kk)
			}
			fused[kk] = true
			if !slices.Equal(s.cells, pendingRAG[kk]) {
				t.Errorf("%s: fused segment of %v lists %d cells, want its %d pending ones in grid order", name, kk, len(s.cells), len(pendingRAG[kk]))
			}
			if !slices.Equal(s.voters, voters[kk]) {
				t.Errorf("%s: fused segment of %v votes with %d cells, want its %d open-model cells", name, kk, len(s.voters), len(voters[kk]))
			}
			if &s.facts[0] != &first.facts[0] || s.prefetch != first.verifier.(strategy.Prefetcher) {
				t.Errorf("%s: fused segment of %v prefetches other facts or with another verifier", name, kk)
			}
			fusedSizes = append(fusedSizes, len(s.facts))
		}
		if len(fused) != len(pendingRAG) {
			t.Errorf("%s: %d fused segments for %d method/dataset pairs with pending cells", name, len(fused), len(pendingRAG))
		}

		// Datasets ascend by size in both parts, and plain cells of one
		// dataset keep grid order.
		pos := map[*gridCell]int{}
		for i, c := range cells {
			pos[c] = i
		}
		for i := 1; i < len(head); i++ {
			prev, c := head[i-1].cells[0], head[i].cells[0]
			if len(prev.facts) > len(c.facts) || (len(prev.facts) == len(c.facts) && pos[prev] > pos[c]) {
				t.Errorf("%s: %v queued after %v", name, c.cell, prev.cell)
			}
		}
		if !slices.IsSorted(fusedSizes) {
			t.Errorf("%s: fused segments over %v facts do not ascend", name, fusedSizes)
		}
	}
}

// recordingPrefetcher wraps a prefetching verifier, logs every Prefetch
// call and passes every released fact to release, when set.
type recordingPrefetcher struct {
	strategy.Verifier
	log     func(string)
	release func(*dataset.Fact)
}

func (r recordingPrefetcher) Prefetch(ctx context.Context, f *dataset.Fact) error {
	r.log("prefetch")
	return r.Verifier.(strategy.Prefetcher).Prefetch(ctx, f)
}

func (r recordingPrefetcher) Release(f *dataset.Fact) {
	if r.release != nil {
		r.release(f)
	}
	r.Verifier.(strategy.Prefetcher).Release(f)
}

// TestRunReportsBeforePrefetch drains a grid on one worker and checks that
// the first cell completes before any retrieval starts, and that every
// RAG cell completes after its evidence prefetch.
func TestRunReportsBeforePrefetch(t *testing.T) {
	cfg := storeTestConfig()
	cfg.Parallelism = 1
	b := NewBenchmark(cfg)
	var mu sync.Mutex
	var events []string
	log := func(e string) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}
	verifiers := map[llm.Method]strategy.Verifier{}
	for _, method := range b.Config.Methods {
		v, err := b.Verifier(method)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := v.(strategy.Prefetcher); ok {
			v = recordingPrefetcher{Verifier: v, log: log}
		}
		verifiers[method] = v
	}
	ro := runOptions{progress: func(p Progress) { log(string(p.Cell.Method)) }}
	if _, err := b.run(context.Background(), verifiers, ro); err != nil {
		t.Fatal(err)
	}
	firstPrefetch, firstRAG := -1, -1
	progress := 0
	for i, e := range events {
		switch {
		case e == "prefetch":
			if firstPrefetch < 0 {
				firstPrefetch = i
			}
		default:
			progress++
			if e == string(llm.MethodRAG) && firstRAG < 0 {
				firstRAG = i
			}
		}
	}
	if want := len(cfg.Models) * len(b.Config.Methods); progress != want {
		t.Fatalf("%d progress reports, want %d", progress, want)
	}
	if firstPrefetch < 0 || firstRAG < 0 {
		t.Fatalf("no prefetch (%d) or no RAG cell (%d) in %v", firstPrefetch, firstRAG, events)
	}
	if events[0] == "prefetch" {
		t.Errorf("a prefetch ran before the first cell completed: %v", events[:5])
	}
	if firstRAG < firstPrefetch {
		t.Errorf("a RAG cell completed at event %d, before the first prefetch at %d", firstRAG, firstPrefetch)
	}
}
