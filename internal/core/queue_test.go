package core

import (
	"context"
	"sync"
	"testing"

	"factcheck/internal/dataset"
	"factcheck/internal/llm"
	"factcheck/internal/strategy"
)

// queuedSegment is one run of a taskQueue as seen through at: a span
// (cell nil) or a cell, with the number of tasks it covers.
type queuedSegment struct {
	prefetch strategy.Prefetcher
	cell     *gridCell
	facts    []*dataset.Fact
	n        int
}

// walkQueue reads every task of q through at, checks that each segment
// hands out fact indices 0..n-1 in order, and returns the segments.
func walkQueue(t *testing.T, name string, q *taskQueue) []queuedSegment {
	t.Helper()
	var segs []queuedSegment
	var cur *segment
	for ti := 0; ti < q.len(); ti++ {
		s, i := q.at(ti)
		if s != cur {
			segs = append(segs, queuedSegment{prefetch: s.prefetch, cell: s.cell, facts: s.facts})
			cur = s
		}
		last := &segs[len(segs)-1]
		if i != last.n || i >= len(s.facts) {
			t.Fatalf("%s: task %d is fact %d of its segment, want %d", name, ti, i, last.n)
		}
		last.n++
	}
	return segs
}

// TestTaskQueueStreamsCells checks the order Run drains the grid in, over
// a cold grid, a grid with scattered cached cells, one where every RAG
// cell of a dataset is cached (no prefetch for it), one with an empty
// cell, and a fully cached one: every pending (cell, fact) task appears
// once; cells that read no evidence come before every prefetch span;
// each span is queued only for a method and dataset with pending cells
// and comes right before exactly those cells; datasets ascend by size.
func TestTaskQueueStreamsCells(t *testing.T) {
	b, _ := benchFixture(t)
	verifiers := map[llm.Method]strategy.Verifier{}
	for _, method := range b.Config.Methods {
		v, err := b.Verifier(method)
		if err != nil {
			t.Fatal(err)
		}
		verifiers[method] = v
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
	for name, cells := range map[string][]*gridCell{
		"cold":       grid(func(int, Cell) bool { return false }),
		"scattered":  grid(func(k int, _ Cell) bool { return k%3 == 1 }),
		"rag-cached": grid(func(_ int, c Cell) bool { return c.Method == llm.MethodRAG && c.Dataset == dataset.YAGO }),
		"empty-cell": withEmpty,
		"warm":       grid(func(int, Cell) bool { return true }),
	} {
		segs := walkQueue(t, name, queue(cells))

		// Every pending (cell, fact) task appears exactly once, and only
		// pending cells are queued.
		queued := map[*gridCell]int{}
		for _, s := range segs {
			if s.cell != nil {
				if s.prefetch != nil || s.n != len(s.cell.facts) {
					t.Errorf("%s: cell %v queued with %d of %d facts", name, s.cell.cell, s.n, len(s.cell.facts))
				}
				queued[s.cell]++
			}
		}
		type key struct {
			dn     dataset.Name
			method llm.Method
		}
		pendingRAG := map[key][]*gridCell{}
		for _, c := range cells {
			want := 0
			if !c.cached && len(c.facts) > 0 {
				want = 1
				if _, ok := c.verifier.(strategy.Prefetcher); ok {
					k := key{c.cell.Dataset, c.cell.Method}
					pendingRAG[k] = append(pendingRAG[k], c)
				}
			}
			if queued[c] != want {
				t.Errorf("%s: cell %v queued %d times, want %d", name, c.cell, queued[c], want)
			}
		}

		// Cells that read no evidence come first, then spans each followed
		// at once by the cells of its method and dataset, in grid order.
		k := 0
		for k < len(segs) && segs[k].cell != nil {
			if _, ok := segs[k].cell.verifier.(strategy.Prefetcher); ok {
				t.Errorf("%s: RAG cell %v queued before its prefetch span", name, segs[k].cell.cell)
			}
			k++
		}
		head := segs[:k]
		var spanSizes []int
		spans := map[key]bool{}
		for k < len(segs) {
			span := segs[k]
			if span.cell != nil || span.prefetch == nil {
				t.Errorf("%s: segment %d is cell %v, want a prefetch span", name, k, span.cell.cell)
				break
			}
			k++
			j := k
			for j < len(segs) && segs[j].cell != nil {
				j++
			}
			if j == k {
				t.Errorf("%s: span %d reads no cell", name, k-1)
				continue
			}
			first := segs[k].cell
			kk := key{first.cell.Dataset, first.cell.Method}
			want := pendingRAG[kk]
			if spans[kk] || len(want) != j-k || &span.facts[0] != &first.facts[0] || span.prefetch != first.verifier.(strategy.Prefetcher) {
				t.Errorf("%s: span before %v is not the one prefetch of its %d pending cells", name, first.cell, len(want))
			}
			spans[kk] = true
			for n, s := range segs[k:j] {
				if n < len(want) && s.cell != want[n] {
					t.Errorf("%s: %v follows the span of %v, want %v", name, s.cell.cell, kk, want[n].cell)
				}
			}
			spanSizes = append(spanSizes, len(span.facts))
			k = j
		}
		if len(spans) != len(pendingRAG) {
			t.Errorf("%s: %d spans for %d method/dataset pairs with pending cells", name, len(spans), len(pendingRAG))
		}

		// Datasets ascend by size in both parts, and the cells of one
		// dataset keep grid order.
		pos := map[*gridCell]int{}
		for i, c := range cells {
			pos[c] = i
		}
		for i := 1; i < len(head); i++ {
			prev, c := head[i-1].cell, head[i].cell
			if len(prev.facts) > len(c.facts) || (len(prev.facts) == len(c.facts) && pos[prev] > pos[c]) {
				t.Errorf("%s: %v queued after %v", name, c.cell, prev.cell)
			}
		}
		for i := 1; i < len(spanSizes); i++ {
			if spanSizes[i-1] > spanSizes[i] {
				t.Errorf("%s: spans over %v facts do not ascend", name, spanSizes)
				break
			}
		}
	}
}

// recordingPrefetcher wraps a prefetching verifier and logs every
// Prefetch call.
type recordingPrefetcher struct {
	strategy.Verifier
	log func(string)
}

func (r recordingPrefetcher) Prefetch(ctx context.Context, f *dataset.Fact) error {
	r.log("prefetch")
	return r.Verifier.(strategy.Prefetcher).Prefetch(ctx, f)
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
