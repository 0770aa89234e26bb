package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"regexp"
	"strings"
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

// smallStdoutSHA256 is the sha256 of `factcheck -small -scale 0.05`
// stdout, the grid digest that the benchmark's tiny grid-cold run pins.
const smallStdoutSHA256 = "7af8b735ad3e660b611d256c0c8223389229ca2c1c5ae6a3511ee34f36dccf62"

// TestSmallGridStdoutPinned pins the whole small grid's stdout, every
// table and figure, at one worker and at eight: a change to any verdict,
// token count, latency or report byte shows here.
func TestSmallGridStdoutPinned(t *testing.T) {
	for _, par := range []string{"1", "8"} {
		sum := sha256.Sum256([]byte(captureRun(t, []string{"-small", "-scale", "0.05", "-par", par})))
		if got := hex.EncodeToString(sum[:]); got != smallStdoutSHA256 {
			t.Errorf("-par %s: stdout sha256 %s, pinned %s", par, got, smallStdoutSHA256)
		}
	}
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

// TestSingleArtifactsConcatenateToAll checks that each artifact run alone
// prints exactly its section of "all": the single-artifact outputs, in
// print order, concatenate to the "all" output byte for byte.
func TestSingleArtifactsConcatenateToAll(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI golden test is slow")
	}
	flags := []string{
		"-scale", "0.05", "-small",
		"-datasets", "FactBench",
		"-models", "gemma2:9b,mistral:7b,qwen2.5:7b",
		"-methods", "DKA,GIV-Z",
	}
	all := captureRun(t, append(flags, "all"))
	var joined strings.Builder
	for _, a := range []string{"table2", "table3", "table4", "table5", "table6", "table7", "table8",
		"table9", "figure2", "figure3", "figure4", "topics", "ragstats"} {
		out := captureRun(t, append(flags[:len(flags):len(flags)], a))
		if out == "" {
			t.Errorf("%s printed nothing", a)
		}
		joined.WriteString(out)
	}
	if joined.String() != all {
		t.Errorf("single artifacts differ from all\nall:\n%s\njoined:\n%s", all, joined.String())
	}
}

// FuzzReadIngestDocs feeds the JSONL document parser arbitrary input. It
// must never panic, and either fail naming the record number or return
// documents that, written back one JSON record per line, parse to the
// same documents.
func FuzzReadIngestDocs(f *testing.F) {
	for _, s := range []string{
		"",
		`{"fact_id":"factbench-000034","title":"Fresh","text":"Ada was born in Sampletown."}` + "\n",
		`{"fact_id":"a","url":"https://x.example/1","host":"x.example","title":"T","text":"b"}` + "\n" +
			`{"fact_id":"c","title":"","text":"Zoë é 😀 \"q\" \\"}`,
		`{"fact_id":"a","extra":[1,2,{"k":null}],"text":"x"} {"fact_id":"b"}`,
		"null\n{}\n",
		`{"fact_id":"a"}` + "\n" + `{"fact_id":`,
		`{"fact_id":1}`,
		"[]",
		"{\"text\":\"bad \xff utf8\"}",
	} {
		f.Add(s)
	}
	recordErr := regexp.MustCompile(`^record [1-9][0-9]*: `)
	f.Fuzz(func(t *testing.T, in string) {
		docs, err := parseIngestDocs(strings.NewReader(in))
		if err != nil {
			if !recordErr.MatchString(err.Error()) {
				t.Fatalf("error %q does not name the record", err)
			}
			return
		}
		var lines bytes.Buffer
		for _, d := range docs {
			b, err := json.Marshal(d)
			if err != nil {
				t.Fatal(err)
			}
			lines.Write(b)
			lines.WriteByte('\n')
		}
		again, err := parseIngestDocs(&lines)
		if err != nil {
			t.Fatalf("re-marshalled documents rejected: %v", err)
		}
		if !reflect.DeepEqual(again, docs) {
			t.Fatalf("round trip changed the documents:\n got %+v\nwant %+v", again, docs)
		}
	})
}
