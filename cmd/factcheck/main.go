// Command factcheck runs the FactCheck benchmark and prints the paper's
// tables and figures.
//
// Usage:
//
//	factcheck [flags] [artifacts...]
//
// Artifacts (default "all"): table2 table3 table4 table5 table6 table7
// table8 table9 figure2 figure3 figure4 ragstats topics
//
// Flags:
//
//	-scale    dataset scale factor (1.0 = published sizes; default 0.25;
//	          must be positive and finite)
//	-small    use the miniature test world
//	-models   comma-separated model list (default: the paper's five)
//	-methods  comma-separated method list (DKA,GIV-Z,GIV-F,RAG)
//	-datasets comma-separated dataset list (FactBench,YAGO,DBpedia; any
//	          other name is rejected)
//	-par      grid worker-pool parallelism (default GOMAXPROCS)
//	-consensus consensus engine mode for tables 6/7: eager or adaptive
//	          (default eager — the run-everything golden baseline;
//	          verdicts are identical in both modes)
//	-progress stream per-cell completion to stderr as the grid drains
//	-store    result-store directory: completed grid cells are persisted
//	          and reused, so interrupted runs resume where they died and
//	          config deltas recompute only the missing cells (stdout stays
//	          byte-identical to a cold run)
//	-docs     JSONL file of live documents (cmd/datagen -stream output) to
//	          ingest before the grid runs, growing the corpus past the
//	          deterministic generator
//	-ingest-batches
//	          split -docs into N sequential ingestion batches; with N > 1
//	          the touched fact pools are warmed before each batch so
//	          ingestion folds already-materialised snapshots — the
//	          incremental path, whose stdout must stay byte-identical to
//	          a cold single-batch build
//	-cpuprofile / -memprofile
//	          write pprof CPU / heap profiles, so perf claims about the
//	          verification path are grounded in captures, not guesses
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"time"

	"factcheck/internal/consensus"
	"factcheck/internal/core"
	"factcheck/internal/dataset"
	"factcheck/internal/llm"
	"factcheck/internal/prof"
	"factcheck/internal/search"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "factcheck:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("factcheck", flag.ContinueOnError)
	scale := fs.Float64("scale", 0.25, "dataset scale factor (1.0 = published sizes; must be positive and finite)")
	small := fs.Bool("small", false, "use the miniature test world")
	modelsFlag := fs.String("models", "", "comma-separated models (default: paper's five)")
	methodsFlag := fs.String("methods", "", "comma-separated methods (default: DKA,GIV-Z,GIV-F,RAG)")
	datasetsFlag := fs.String("datasets", "", "comma-separated datasets (default: all three)")
	par := fs.Int("par", 0, "grid worker-pool parallelism (default GOMAXPROCS)")
	progress := fs.Bool("progress", false, "stream per-cell completion to stderr")
	storeDir := fs.String("store", "", "result store directory (resume interrupted runs, reuse across config deltas)")
	consensusFlag := fs.String("consensus", "eager", "consensus engine mode for tables 6/7 (eager or adaptive; verdicts are identical, adaptive reports decided-at latency)")
	docsFile := fs.String("docs", "", "JSONL live-document file to ingest before the grid runs")
	ingestBatches := fs.Int("ingest-batches", 1, "sequential ingestion batches for -docs (>1 exercises the incremental fold path)")
	profFlags := prof.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !(*scale > 0) || math.IsInf(*scale, 1) {
		return fmt.Errorf("-scale %g: must be positive and finite", *scale)
	}
	consensusMode, err := consensus.ParseMode(*consensusFlag)
	if err != nil {
		return fmt.Errorf("-consensus: %w", err)
	}
	cfg := core.Config{Scale: *scale, Small: *small, Parallelism: *par}
	if *modelsFlag != "" {
		cfg.Models = strings.Split(*modelsFlag, ",")
	}
	if *methodsFlag != "" {
		for _, m := range strings.Split(*methodsFlag, ",") {
			cfg.Methods = append(cfg.Methods, llm.Method(m))
		}
	}
	if *datasetsFlag != "" {
		for _, d := range strings.Split(*datasetsFlag, ",") {
			if !slices.Contains(dataset.AllNames, dataset.Name(d)) {
				return fmt.Errorf("-datasets: unknown dataset %q (want one of %v)", d, dataset.AllNames)
			}
			cfg.Datasets = append(cfg.Datasets, dataset.Name(d))
		}
	}
	stopProf, profErr := profFlags.Start()
	if profErr != nil {
		return profErr
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "factcheck:", perr)
		}
	}()
	artifacts := fs.Args()
	if len(artifacts) == 0 {
		artifacts = []string{"all"}
	}

	start := time.Now()
	fmt.Fprintf(os.Stderr, "building benchmark (scale=%.2f, small=%v)...\n", *scale, *small)
	b := core.NewBenchmark(cfg)
	fmt.Fprintf(os.Stderr, "world: %d entities, %d facts; datasets: %d facts total (%.1fs)\n",
		len(b.World.Entities), len(b.World.Facts), dataset.TotalFacts(b.Datasets), time.Since(start).Seconds())

	if *docsFile != "" {
		if err := ingestDocs(b, *docsFile, *ingestBatches); err != nil {
			return err
		}
	}

	want := map[string]bool{}
	for _, a := range artifacts {
		want[strings.ToLower(a)] = true
	}
	all := want["all"]
	needRun := all || want["table5"] || want["table6"] || want["table7"] ||
		want["table8"] || want["table9"] || want["figure2"] || want["figure3"] ||
		want["figure4"] || want["topics"]
	needConsensus := all || want["table6"] || want["table7"] || want["figure2"]

	ctx := context.Background()
	var rs *core.ResultSet
	if needRun {
		t := time.Now()
		fmt.Fprintf(os.Stderr, "running verification grid...\n")
		var opts []core.RunOption
		if *storeDir != "" {
			store, err := core.OpenStore(*storeDir)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "store %s: %d cell snapshots loaded\n", *storeDir, store.Len())
			opts = append(opts, core.WithStore(store))
		}
		if *progress {
			opts = append(opts, core.WithProgress(func(p core.Progress) {
				fmt.Fprintf(os.Stderr, "  [%3d/%3d] %s/%s/%s (%d facts, %.1fs elapsed)\n",
					p.DoneCells, p.TotalCells, p.Cell.Dataset, p.Cell.Method,
					p.Cell.Model, p.Facts, time.Since(t).Seconds())
			}))
		}
		rs, err = b.Run(ctx, opts...)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "grid done (%.1fs)\n", time.Since(t).Seconds())
	}
	var rep *core.ConsensusReport
	if needConsensus {
		rep, err = b.RunAllConsensusMode(ctx, rs, consensusMode)
		if err != nil {
			return err
		}
	}

	// emit renders and prints an artifact only when it was asked for.
	emit := func(name string, render func() string) {
		if all || want[name] {
			fmt.Println(render())
		}
	}
	emit("table2", b.Table2)
	emit("table3", func() string { return b.Table3(500) })
	emit("table4", b.Table4)
	if rs != nil {
		emit("table5", func() string { return b.Table5(rs) })
	}
	if rep != nil {
		emit("table6", func() string { return b.Table6(rep) })
		emit("table7", func() string { return b.Table7(rep) })
	}
	if rs != nil {
		emit("table8", func() string { return b.Table8(rs) })
		emit("table9", func() string { return b.Table9(rs, llm.MethodDKA) })
		emit("figure2", func() string { return b.ComputeFigure2(rs, rep).String() })
		emit("figure3", func() string { return b.ComputeFigure3(rs).String() })
		if all || want["figure4"] {
			fig4, err := b.Figure4(rs)
			if err != nil {
				return err
			}
			fmt.Println(fig4)
		}
		emit("topics", func() string {
			var t strings.Builder
			t.WriteString("DBpedia topic stratification (DKA, open-source models):\n")
			for _, s := range b.TopicStrata(rs, dataset.DBpedia, llm.MethodDKA) {
				fmt.Fprintf(&t, "  %-16s total=%5d errors=%5d rate=%.3f\n", s.Name, s.Total, s.Errors, s.ErrorRate)
			}
			return t.String()
		})
	}
	emit("ragstats", func() string { return b.ComputeRAGStats(300).String() })
	fmt.Fprintf(os.Stderr, "total %.1fs\n", time.Since(start).Seconds())
	return nil
}

// ingestDocs folds the JSONL document file into the engine in `batches`
// sequential ingestions before the grid runs. With batches > 1 every fact a
// batch touches is warmed first, so the ingestion folds already-materialised
// pools — the live incremental path, which must produce the same corpus
// (and therefore byte-identical stdout) as a cold single-batch build.
func ingestDocs(b *core.Benchmark, path string, batches int) error {
	docs, err := readIngestDocs(path)
	if err != nil {
		return err
	}
	if len(docs) == 0 {
		return fmt.Errorf("-docs %s: no documents", path)
	}
	if batches < 1 {
		batches = 1
	}
	if batches > len(docs) {
		batches = len(docs)
	}
	for i := 0; i < batches; i++ {
		chunk := docs[i*len(docs)/batches : (i+1)*len(docs)/batches]
		if batches > 1 {
			seen := map[string]bool{}
			for _, d := range chunk {
				if !seen[d.FactID] {
					seen[d.FactID] = true
					if err := b.Engine.Warm(d.FactID); err != nil {
						return fmt.Errorf("-docs: warm %s: %w", d.FactID, err)
					}
				}
			}
		}
		if _, err := b.Ingest(chunk); err != nil {
			return fmt.Errorf("-docs: %w", err)
		}
	}
	fmt.Fprintf(os.Stderr, "ingested %d live documents in %d batch(es)\n", len(docs), batches)
	return nil
}

// readIngestDocs reads the JSONL document file at path.
func readIngestDocs(path string) ([]search.IngestDoc, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	docs, err := parseIngestDocs(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return docs, nil
}

// parseIngestDocs reads one JSON document per record until EOF. An error
// names the 1-based number of the record that failed.
func parseIngestDocs(r io.Reader) ([]search.IngestDoc, error) {
	var docs []search.IngestDoc
	dec := json.NewDecoder(r)
	for {
		var d search.IngestDoc
		if err := dec.Decode(&d); err == io.EOF {
			return docs, nil
		} else if err != nil {
			return nil, fmt.Errorf("record %d: %w", len(docs)+1, err)
		}
		docs = append(docs, d)
	}
}
