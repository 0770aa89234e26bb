package core

import (
	"testing"

	"factcheck/internal/dataset"
	"factcheck/internal/llm"
	"factcheck/internal/strategy"
)

// listTask is one entry of the task list Run built before it derived tasks
// from their index.
type listTask struct {
	prefetch strategy.Prefetcher // nil for verification tasks
	f        *dataset.Fact       // prefetch target
	c        *gridCell           // verification cell
	i        int                 // fact index within c
}

// listTasks is Run's former task-list construction, kept as the reference
// for the order taskQueue derives.
func listTasks(b *Benchmark, verifiers map[llm.Method]strategy.Verifier, cells []*gridCell) []listTask {
	needPrefetch := map[llm.Method]map[dataset.Name]bool{}
	for _, c := range cells {
		if c.cached || len(c.facts) == 0 {
			continue
		}
		ds := needPrefetch[c.cell.Method]
		if ds == nil {
			ds = map[dataset.Name]bool{}
			needPrefetch[c.cell.Method] = ds
		}
		ds[c.cell.Dataset] = true
	}
	var tasks []listTask
	for _, method := range b.Config.Methods {
		p, ok := verifiers[method].(strategy.Prefetcher)
		if !ok {
			continue
		}
		for _, dn := range b.Config.Datasets {
			if !needPrefetch[method][dn] {
				continue
			}
			for _, f := range b.Datasets[dn].Facts {
				tasks = append(tasks, listTask{prefetch: p, f: f})
			}
		}
	}
	for _, c := range cells {
		if c.cached {
			continue
		}
		for i := range c.facts {
			tasks = append(tasks, listTask{c: c, i: i})
		}
	}
	return tasks
}

// TestTaskQueueMatchesList pins the index-derived task queue to the list
// it replaced, task by task: the prefetch block, then the pending cells in
// grid order, over a cold grid, a grid with scattered cached cells, one
// where every RAG cell of a dataset is cached (no prefetch for it), one
// with an empty cell, and a fully cached one.
func TestTaskQueueMatchesList(t *testing.T) {
	b, _ := benchFixture(t)
	verifiers := map[llm.Method]strategy.Verifier{}
	for _, method := range b.Config.Methods {
		v, err := b.Verifier(method)
		if err != nil {
			t.Fatal(err)
		}
		verifiers[method] = v
	}
	grid := func(cached func(k int, c Cell) bool) []*gridCell {
		var cells []*gridCell
		for _, dn := range b.Config.Datasets {
			for _, method := range b.Config.Methods {
				for _, name := range b.Config.Models {
					c := &gridCell{cell: Cell{Dataset: dn, Method: method, Model: name}, facts: b.Datasets[dn].Facts}
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
		want := listTasks(b, verifiers, cells)
		q := b.queue(verifiers, cells)
		if q.len() != len(want) {
			t.Errorf("%s: %d tasks, want %d", name, q.len(), len(want))
			continue
		}
		for ti, w := range want {
			p, c, i := q.at(ti)
			if w.prefetch != nil {
				if p == nil || p.prefetch != w.prefetch || p.facts[i] != w.f {
					t.Errorf("%s: task %d is not the prefetch of %s", name, ti, w.f.ID)
					break
				}
				continue
			}
			if p != nil || c != w.c || i != w.i {
				t.Errorf("%s: task %d is not fact %d of cell %v", name, ti, w.i, w.c.cell)
				break
			}
		}
	}
}
