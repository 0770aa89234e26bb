package core

import (
	"slices"
	"sync"
)

// CellFiller coordinates background whole-cell computations that persist
// to a result store — the mechanism the serving layer uses to turn one
// on-demand verdict into a stored snapshot for every later consumer. It
// owns the fill bookkeeping: fills dedupe per cell, run one batch at a
// time (a cold page or request burst can't stampede many concurrent
// whole-cell computations), failed fills are forgotten so a later request
// retries, and Wait drains in-flight fills for shutdown and tests. A batch
// is every queued cell sharing a dataset and method, so the caller can
// verify them fact by fact and retrieve each fact's evidence once for all
// of them. The compute-and-persist step itself is the caller's run
// function.
type CellFiller struct {
	run func([]Cell) error

	mu      sync.Mutex
	wg      sync.WaitGroup
	sem     chan struct{}
	filling map[Cell]bool
	queued  []Cell // admitted and not yet taken by a batch, oldest first

	closing   chan struct{}
	closeOnce sync.Once
}

// NewCellFiller returns a filler invoking run for each batch of admitted
// cells; run computes the cells and persists them, returning an error to
// allow a retry of the whole batch.
func NewCellFiller(run func([]Cell) error) *CellFiller {
	return &CellFiller{
		run:     run,
		sem:     make(chan struct{}, 1),
		filling: map[Cell]bool{},
		closing: make(chan struct{}),
	}
}

// forget unmarks cells so a later request can schedule them again.
func (f *CellFiller) forget(cells []Cell) {
	f.mu.Lock()
	for _, c := range cells {
		delete(f.filling, c)
	}
	f.mu.Unlock()
}

// take removes c and every other queued cell of c's dataset and method
// from the queue and returns them in admission order: nil when an earlier
// batch already took c.
func (f *CellFiller) take(c Cell) []Cell {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !slices.Contains(f.queued, c) {
		return nil
	}
	var batch []Cell
	f.queued = slices.DeleteFunc(f.queued, func(q Cell) bool {
		if q.Dataset == c.Dataset && q.Method == c.Method {
			batch = append(batch, q)
			return true
		}
		return false
	})
	return batch
}

// Fill schedules a background fill of the cell: a no-op when the cell is
// already filling (or filled — successful cells stay marked, the store
// never evicts), queued on the one-at-a-time semaphore otherwise. The
// first of the cell's dataset-and-method group to get the semaphore fills
// every cell of the group still queued.
func (f *CellFiller) Fill(c Cell) {
	f.mu.Lock()
	if f.filling[c] {
		f.mu.Unlock()
		return
	}
	f.filling[c] = true
	f.queued = append(f.queued, c)
	f.wg.Add(1)
	f.mu.Unlock()
	go func() {
		defer f.wg.Done()
		select {
		case f.sem <- struct{}{}:
			defer func() { <-f.sem }()
		case <-f.closing:
		}
		batch := f.take(c)
		if batch == nil {
			return
		}
		select {
		case <-f.closing:
			f.forget(batch) // never started; a later process can retry
			return
		default:
		}
		if err := f.run(batch); err != nil {
			f.forget(batch)
		}
	}()
}

// Wait blocks until every scheduled fill has finished — queued fills
// included (tests, and consumers that want all started work persisted).
func (f *CellFiller) Wait() { f.wg.Wait() }

// Close discards fills still queued on the semaphore (they are unmarked,
// so nothing is lost — a later request recomputes them) and waits only for
// the batch actually in flight. This is the shutdown path: drain time is
// bounded by one batch, not by however many cold cells a final request
// burst touched.
func (f *CellFiller) Close() {
	f.closeOnce.Do(func() { close(f.closing) })
	f.wg.Wait()
}
