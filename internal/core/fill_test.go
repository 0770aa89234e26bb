package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"factcheck/internal/dataset"
	"factcheck/internal/llm"
)

func fillCell(i int) Cell {
	return Cell{Dataset: dataset.FactBench, Method: llm.MethodDKA, Model: fmt.Sprintf("m%d", i)}
}

func TestCellFillerDedupes(t *testing.T) {
	var runs atomic.Int32
	f := NewCellFiller(func([]Cell) error { runs.Add(1); return nil })
	for i := 0; i < 10; i++ {
		f.Fill(fillCell(0))
	}
	f.Wait()
	if got := runs.Load(); got != 1 {
		t.Fatalf("run called %d times for 10 Fills of one cell, want 1", got)
	}
	// Successful cells stay marked: no re-run.
	f.Fill(fillCell(0))
	f.Wait()
	if got := runs.Load(); got != 1 {
		t.Fatalf("run called %d times after refill of a done cell, want 1", got)
	}
}

func TestCellFillerRetriesFailures(t *testing.T) {
	var runs atomic.Int32
	f := NewCellFiller(func([]Cell) error {
		if runs.Add(1) == 1 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	f.Fill(fillCell(0))
	f.Wait()
	f.Fill(fillCell(0)) // failed fills are forgotten, so this reschedules
	f.Wait()
	if got := runs.Load(); got != 2 {
		t.Fatalf("run called %d times, want 2 (failure + retry)", got)
	}
}

func TestCellFillerSerialises(t *testing.T) {
	var cur, max atomic.Int32
	f := NewCellFiller(func([]Cell) error {
		n := cur.Add(1)
		for {
			m := max.Load()
			if n <= m || max.CompareAndSwap(m, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		cur.Add(-1)
		return nil
	})
	for i := 0; i < 8; i++ {
		f.Fill(fillCell(i))
	}
	f.Wait()
	if got := max.Load(); got != 1 {
		t.Fatalf("%d fills ran concurrently, want 1", got)
	}
}

// TestCellFillerCloseDiscardsQueued: Close finishes the in-flight fill but
// drops the ones still waiting for the semaphore, unmarking them so a
// later Fill retries.
func TestCellFillerCloseDiscardsQueued(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var runs atomic.Int32
	f := NewCellFiller(func([]Cell) error {
		runs.Add(1)
		close(started)
		<-release
		return nil
	})
	f.Fill(fillCell(0))
	<-started
	for i := 1; i < 5; i++ {
		f.Fill(fillCell(i)) // queued behind the blocked fill
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(release)
	}()
	f.Close()
	if got := runs.Load(); got != 1 {
		t.Fatalf("run called %d times across Close, want 1 (in-flight only)", got)
	}
	f.mu.Lock()
	pending := len(f.filling)
	f.mu.Unlock()
	if pending != 1 {
		t.Fatalf("%d cells still marked after Close, want 1 (the completed fill)", pending)
	}
}

// TestCellFillerBatchesQueuedGroups: while one fill runs, the cells queued
// behind it are filled in batches of one dataset and method each, cells in
// admission order, every cell exactly once.
func TestCellFillerBatchesQueuedGroups(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var mu sync.Mutex
	var batches []string
	f := NewCellFiller(func(cells []Cell) error {
		var names []string
		for _, c := range cells {
			names = append(names, fmt.Sprintf("%s/%s/%s", c.Dataset, c.Method, c.Model))
		}
		mu.Lock()
		batches = append(batches, strings.Join(names, " "))
		first := len(batches) == 1
		mu.Unlock()
		if first {
			close(started)
			<-release
		}
		return nil
	})
	rag := func(dn dataset.Name, model string) Cell {
		return Cell{Dataset: dn, Method: llm.MethodRAG, Model: model}
	}
	f.Fill(rag(dataset.YAGO, "m0"))
	<-started
	for _, c := range []Cell{
		rag(dataset.FactBench, "m1"),
		{Dataset: dataset.FactBench, Method: llm.MethodDKA, Model: "m1"},
		rag(dataset.DBpedia, "m1"),
		rag(dataset.FactBench, "m2"),
		rag(dataset.FactBench, "m1"), // already queued
		rag(dataset.DBpedia, "m3"),
	} {
		f.Fill(c)
	}
	close(release)
	f.Wait()
	slices.Sort(batches)
	want := []string{
		"DBpedia/RAG/m1 DBpedia/RAG/m3",
		"FactBench/DKA/m1",
		"FactBench/RAG/m1 FactBench/RAG/m2",
		"YAGO/RAG/m0",
	}
	if !slices.Equal(batches, want) {
		t.Fatalf("batches %q, want %q", batches, want)
	}
}
