package main

import (
	"context"
	"io"
	"os"
	"testing"

	"factcheck/internal/core"
	"factcheck/internal/dataset"
	"factcheck/internal/llm"
)

func TestRunSmallArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test is slow")
	}
	err := run([]string{
		"-scale", "0.05", "-small",
		"-datasets", "FactBench",
		"-models", "gemma2:9b,mistral:7b",
		"-methods", "DKA,RAG",
		"table2", "table5", "table8", "figure3",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-scale", "not-a-number"},
		{"-scale", "-1"},
		{"-scale", "0"},
		{"-scale", "NaN"},
		{"-small", "-scale", "0.05", "-datasets", "nope"},
		{"-small", "-scale", "0.05", "-consensus", "serial"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

func TestRunProgressFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test is slow")
	}
	err := run([]string{
		"-scale", "0.05", "-small", "-progress",
		"-datasets", "FactBench",
		"-models", "gemma2:9b",
		"-methods", "DKA",
		"table5",
	})
	if err != nil {
		t.Fatal(err)
	}
}

// captureRun executes run() with stdout captured, failing the test on a
// run error.
func captureRun(t *testing.T, args []string) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	outCh := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		outCh <- b
	}()
	runErr := run(args)
	w.Close()
	os.Stdout = old
	out := <-outCh
	if runErr != nil {
		t.Fatal(runErr)
	}
	return string(out)
}

// TestStoreResumeStdoutByteIdentical is the resume contract's golden test:
// a run resumed from a half-complete store, and a replay from a fully warm
// store, must print stdout byte-identical to a cold storeless run.
func TestStoreResumeStdoutByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI golden test is slow")
	}
	args := []string{
		"-scale", "0.05", "-small",
		"-datasets", "FactBench",
		"-models", "gemma2:9b,mistral:7b",
		"-methods", "DKA,RAG",
		"table5", "table8", "figure4",
	}
	cold := captureRun(t, args)

	// Simulate a killed -store run: execute the same configuration against
	// the store directory and cancel once half the cells have completed.
	dir := t.TempDir()
	st, err := core.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		Scale: 0.05, Small: true,
		Datasets: []dataset.Name{dataset.FactBench},
		Models:   []string{"gemma2:9b", "mistral:7b"},
		Methods:  []llm.Method{llm.MethodDKA, llm.MethodRAG},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := 0
	if _, err := core.NewBenchmark(cfg).Run(ctx, core.WithStore(st), core.WithProgress(func(p core.Progress) {
		done++
		if 2*done >= p.TotalCells {
			cancel()
		}
	})); err == nil {
		t.Fatal("interrupted run reported success")
	}

	storeArgs := append([]string{"-store", dir}, args...)
	if resumed := captureRun(t, storeArgs); resumed != cold {
		t.Errorf("resumed stdout differs from cold run\ncold:\n%s\nresumed:\n%s", cold, resumed)
	}
	// Second pass: the store is now fully warm; the grid replays with no
	// verification at all and must still print the same bytes.
	if warm := captureRun(t, storeArgs); warm != cold {
		t.Error("warm-store stdout differs from cold run")
	}
}
