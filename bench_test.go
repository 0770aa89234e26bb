// Benchmarks regenerating every table and figure of the paper's evaluation
// section, plus ablation benches for the RAG design choices DESIGN.md calls
// out. Each bench prints the same rows/series the paper reports (once) and
// times the computation of the artefact from the cached verification grid.
//
// The grid scale defaults to 0.25 of the published dataset sizes to keep
// bench runs minutes-scale; set FACTCHECK_SCALE=1.0 for the full benchmark.
package factcheck

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"testing"

	"factcheck/internal/accuracy"
	"factcheck/internal/core"
	"factcheck/internal/dataset"
	"factcheck/internal/det"
	"factcheck/internal/eval"
	"factcheck/internal/kgcheck"
	"factcheck/internal/llm"
	"factcheck/internal/obs"
	"factcheck/internal/rag"
	"factcheck/internal/rerank"
	"factcheck/internal/rules"
	"factcheck/internal/search"
	"factcheck/internal/serve"
	"factcheck/internal/strategy"
	"factcheck/internal/text"
)

var (
	benchOnce sync.Once
	benchB    *core.Benchmark
	benchRS   *core.ResultSet
	benchRep  *core.ConsensusReport
	benchErr  error

	printOnce sync.Map
)

func benchScale() float64 {
	if s := os.Getenv("FACTCHECK_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.25
}

// grid builds the benchmark and runs the full verification grid once per
// test binary; all artefact benches share it.
func grid(b *testing.B) (*core.Benchmark, *core.ResultSet, *core.ConsensusReport) {
	b.Helper()
	benchOnce.Do(func() {
		bench := core.NewBenchmark(core.Config{Scale: benchScale()})
		rs, err := bench.Run(context.Background())
		if err != nil {
			benchErr = err
			return
		}
		rep, err := bench.RunAllConsensus(context.Background(), rs)
		if err != nil {
			benchErr = err
			return
		}
		benchB, benchRS, benchRep = bench, rs, rep
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchB, benchRS, benchRep
}

// emit prints an artefact once per bench name, so -bench=. output contains
// each table exactly once regardless of b.N.
func emit(b *testing.B, out string) {
	if _, done := printOnce.LoadOrStore(b.Name(), true); !done {
		fmt.Printf("\n----- %s (scale %.2f) -----\n%s\n", b.Name(), benchScale(), out)
	}
}

// BenchmarkTable2DatasetSummary regenerates paper Table 2.
func BenchmarkTable2DatasetSummary(b *testing.B) {
	bench, _, _ := grid(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = bench.Table2()
	}
	emit(b, out)
}

// BenchmarkTable3RAGGeneration regenerates paper Table 3 (RAG dataset
// construction cost).
func BenchmarkTable3RAGGeneration(b *testing.B) {
	bench, _, _ := grid(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = bench.Table3(500)
	}
	emit(b, out)
}

// BenchmarkTable4RAGConfig regenerates paper Table 4 (pipeline config).
func BenchmarkTable4RAGConfig(b *testing.B) {
	bench, _, _ := grid(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = bench.Table4()
	}
	emit(b, out)
}

// BenchmarkTable5Effectiveness regenerates paper Table 5 (class-wise F1 per
// dataset x method x model).
func BenchmarkTable5Effectiveness(b *testing.B) {
	bench, rs, _ := grid(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = bench.Table5(rs)
	}
	emit(b, out)
}

// BenchmarkTable6Alignment regenerates paper Table 6 (CA_M and tie rates).
func BenchmarkTable6Alignment(b *testing.B) {
	bench, _, rep := grid(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = bench.Table6(rep)
	}
	emit(b, out)
}

// BenchmarkTable7Consensus regenerates paper Table 7 (consensus F1 under
// the three arbiters).
func BenchmarkTable7Consensus(b *testing.B) {
	bench, _, rep := grid(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = bench.Table7(rep)
	}
	emit(b, out)
}

// BenchmarkTable8Latency regenerates paper Table 8 (IQR-filtered execution
// times).
func BenchmarkTable8Latency(b *testing.B) {
	bench, rs, _ := grid(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = bench.Table8(rs)
	}
	emit(b, out)
}

// BenchmarkTable9ErrorClusters regenerates paper Table 9 (error clustering
// into E1-E6 with uniqueness ratios).
func BenchmarkTable9ErrorClusters(b *testing.B) {
	bench, rs, _ := grid(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = bench.Table9(rs, llm.MethodDKA)
	}
	emit(b, out)
}

// BenchmarkFigure2RankedF1 regenerates paper Figure 2 (cross-dataset F1
// rankings with the random-guess baseline).
func BenchmarkFigure2RankedF1(b *testing.B) {
	bench, rs, rep := grid(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = bench.ComputeFigure2(rs, rep).String()
	}
	emit(b, out)
}

// BenchmarkFigure3Pareto regenerates paper Figure 3 (cost/effectiveness
// Pareto frontier).
func BenchmarkFigure3Pareto(b *testing.B) {
	bench, rs, _ := grid(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = bench.ComputeFigure3(rs).String()
	}
	emit(b, out)
}

// BenchmarkFigure4UpSet regenerates paper Figure 4 (correct-prediction
// intersections across models).
func BenchmarkFigure4UpSet(b *testing.B) {
	bench, rs, _ := grid(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, err = bench.Figure4(rs)
		if err != nil {
			b.Fatal(err)
		}
	}
	emit(b, out)
}

// BenchmarkRAGDatasetStats regenerates the RAG dataset statistics of paper
// §4.1 (questions, similarity tiers, document pools, text coverage).
func BenchmarkRAGDatasetStats(b *testing.B) {
	bench, _, _ := grid(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = bench.ComputeRAGStats(200).String()
	}
	emit(b, out)
}

// --- ablation benches -------------------------------------------------

// ablationFacts returns a fixed FactBench slice for pipeline ablations.
func ablationFacts(bench *core.Benchmark, n int) []*dataset.Fact {
	facts := bench.Datasets[dataset.FactBench].Facts
	if len(facts) > n {
		facts = facts[:n]
	}
	return facts
}

// ablationF1 runs RAG verification with the given pipeline over the slice
// and returns F1(T)/F1(F).
func ablationF1(b *testing.B, bench *core.Benchmark, p *rag.Pipeline, facts []*dataset.Fact) (float64, float64) {
	b.Helper()
	m, err := bench.Model(llm.Gemma2)
	if err != nil {
		b.Fatal(err)
	}
	v := strategy.RAG{Pipeline: p}
	var conf eval.Confusion
	for _, f := range facts {
		out, err := v.Verify(context.Background(), m, f)
		if err != nil {
			b.Fatal(err)
		}
		conf.Add(out.Gold, out.Verdict.Bool(), out.Verdict != strategy.Invalid)
	}
	return conf.F1True(), conf.F1False()
}

// BenchmarkAblationQuestionSelection sweeps the question relevance
// threshold tau and the number of selected questions (paper Table 4 chose
// tau=0.5, 3 questions).
func BenchmarkAblationQuestionSelection(b *testing.B) {
	bench, _, _ := grid(b)
	facts := ablationFacts(bench, 150)
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = ""
		for _, tau := range []float64{0.3, 0.5, 0.7} {
			for _, nq := range []int{1, 3, 5} {
				p := rag.New(bench.Engine)
				p.Config.Tau = tau
				p.Config.SelectedQuestions = nq
				f1t, f1f := ablationF1(b, bench, p, facts)
				out += fmt.Sprintf("tau=%.1f questions=%d -> F1(T)=%.2f F1(F)=%.2f\n", tau, nq, f1t, f1f)
			}
		}
	}
	emit(b, out)
}

// BenchmarkAblationDocSelection sweeps k_d (selected documents) and the
// sliding-window size (paper chose k_d=10, window=3).
func BenchmarkAblationDocSelection(b *testing.B) {
	bench, _, _ := grid(b)
	facts := ablationFacts(bench, 150)
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = ""
		for _, kd := range []int{2, 5, 10, 20} {
			p := rag.New(bench.Engine)
			p.Config.SelectedDocs = kd
			f1t, f1f := ablationF1(b, bench, p, facts)
			out += fmt.Sprintf("k_d=%-2d window=3 -> F1(T)=%.2f F1(F)=%.2f\n", kd, f1t, f1f)
		}
		for _, win := range []int{1, 3, 5} {
			p := rag.New(bench.Engine)
			p.Config.Window = win
			f1t, f1f := ablationF1(b, bench, p, facts)
			out += fmt.Sprintf("k_d=10 window=%d -> F1(T)=%.2f F1(F)=%.2f\n", win, f1t, f1f)
		}
	}
	emit(b, out)
}

// BenchmarkAblationSourceFilter toggles the circular-verification source
// filter (S_KG): with the filter off, KG source pages leak into evidence
// and inflate agreement with the KG's own (possibly wrong) claims.
func BenchmarkAblationSourceFilter(b *testing.B) {
	bench, _, _ := grid(b)
	facts := ablationFacts(bench, 200)
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = ""
		for _, filter := range []bool{true, false} {
			p := rag.New(bench.Engine)
			p.Config.FilterSKG = filter
			f1t, f1f := ablationF1(b, bench, p, facts)
			out += fmt.Sprintf("filterSKG=%-5v -> F1(T)=%.2f F1(F)=%.2f\n", filter, f1t, f1f)
		}
	}
	emit(b, out)
}

// BenchmarkAblationConsensus compares consensus quorums: the paper's
// 3-of-4 majority with arbitration versus a strict 4-of-4 unanimity rule
// (ties and splits default to "false").
func BenchmarkAblationConsensus(b *testing.B) {
	_, rs, _ := grid(b)
	models := []string{llm.Gemma2, llm.Qwen25, llm.Llama31, llm.Mistral}
	cols, err := rs.Columns(dataset.FactBench, llm.MethodDKA, models)
	if err != nil {
		b.Fatal(err)
	}
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var majority, unanimous eval.Confusion
		for f := range cols[0] {
			votes := 0
			for _, col := range cols {
				if col[f].Verdict == strategy.True {
					votes++
				}
			}
			majority.Add(cols[0][f].Gold, votes >= 3, true)
			unanimous.Add(cols[0][f].Gold, votes == 4, true)
		}
		out = fmt.Sprintf("quorum 3-of-4 -> F1(T)=%.2f F1(F)=%.2f\nquorum 4-of-4 -> F1(T)=%.2f F1(F)=%.2f\n",
			majority.F1True(), majority.F1False(), unanimous.F1True(), unanimous.F1False())
	}
	emit(b, out)
}

// BenchmarkBaselineKGCheck evaluates the internal KG-based checkers
// (KLinker / PredPath style, paper Table 1) against the benchmark,
// quantifying the coherence-vs-correspondence gap.
func BenchmarkBaselineKGCheck(b *testing.B) {
	bench, _, _ := grid(b)
	d := bench.Datasets[dataset.FactBench]
	linker := kgcheck.NewLinker(bench.World)
	pred := kgcheck.NewPredPath(bench.World)
	rng := det.Source("bench-kgcheck")
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = ""
		for _, c := range []kgcheck.Checker{linker, pred} {
			th := kgcheck.BestThreshold(c, d, 200, rng)
			ev := kgcheck.Evaluate(c, d, th)
			out += fmt.Sprintf("%-9s threshold=%.2f F1(T)=%.2f F1(F)=%.2f accuracy=%.2f\n",
				c.Name(), th, ev.F1True(), ev.F1False(), ev.Accuracy())
		}
	}
	emit(b, out)
}

// BenchmarkRuleEngine evaluates the ontology-rule extension (paper §8):
// snapshot rules are circularly perfect, structural rules decide almost
// nothing on constraint-respecting negatives.
func BenchmarkRuleEngine(b *testing.B) {
	bench, _, _ := grid(b)
	engine := rules.NewEngine(bench.World)
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = ""
		for _, dn := range dataset.AllNames {
			st := engine.Evaluate(bench.Datasets[dn])
			out += fmt.Sprintf("%-10s snapshot rules: coverage=%.2f precision=%.2f (entailed %d, violated %d, unknown %d)\n",
				dn, st.Coverage(), st.Precision(), st.Entailed, st.Violated, st.Unknown)
		}
	}
	emit(b, out)
}

// BenchmarkAccuracyEstimation runs sampling-based KG accuracy estimation
// (the paper's motivating use case) with an expert oracle vs an LLM
// annotator, reporting estimate quality and cost.
func BenchmarkAccuracyEstimation(b *testing.B) {
	bench, _, _ := grid(b)
	ctx := context.Background()
	m, err := bench.Model(llm.Gemma2)
	if err != nil {
		b.Fatal(err)
	}
	n := accuracy.RequiredSampleSize(0.05, 0.95)
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = ""
		for _, dn := range dataset.AllNames {
			d := bench.Datasets[dn]
			mu := d.Stats().GoldAccuracy
			for _, a := range []accuracy.Annotator{
				accuracy.Oracle{},
				&accuracy.LLMAnnotator{Model: m, Verifier: strategy.GIV{FewShot: true}},
			} {
				est, err := accuracy.SRS(ctx, d, a, n, 0.95, "bench")
				if err != nil {
					b.Fatal(err)
				}
				out += fmt.Sprintf("%-10s %-22s true=%.3f est=%.3f CI=[%.3f,%.3f] covers=%v time=%.0fs\n",
					dn, a.Name(), mu, est.MuHat, est.Lower, est.Upper,
					est.Contains(mu), est.Cost.Time.Seconds())
			}
		}
	}
	emit(b, out)
}

// BenchmarkVerificationThroughput measures raw end-to-end verification
// throughput of a single model under each method (facts verified per
// second of real compute, not simulated latency).
func BenchmarkVerificationThroughput(b *testing.B) {
	bench, _, _ := grid(b)
	facts := bench.Datasets[dataset.FactBench].Facts
	m, err := bench.Model(llm.Gemma2)
	if err != nil {
		b.Fatal(err)
	}
	for _, method := range llm.AllMethods {
		b.Run(string(method), func(b *testing.B) {
			v, err := bench.Verifier(method)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := facts[i%len(facts)]
				if _, err := v.Verify(context.Background(), m, f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- grid scheduler benches ---------------------------------------------

// benchmarkGridRun times a cold whole-grid run (all datasets, methods and
// models at a small scale) at the given worker-pool parallelism. The
// benchmark instance is rebuilt outside the timer each iteration so every
// timed run pays the full retrieval and search-engine indexing cost, like
// a cold invocation.
func benchmarkGridRun(b *testing.B, par int) {
	cfg := core.Config{Scale: 0.05, Small: true, Parallelism: par}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bench := core.NewBenchmark(cfg)
		b.StartTimer()
		if _, err := bench.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGridRunSequential is the old execution model: one worker, i.e.
// the strictly sequential cell-by-cell loop the scheduler replaced.
func BenchmarkGridRunSequential(b *testing.B) { benchmarkGridRun(b, 1) }

// BenchmarkGridRunPooled drains the same grid with the streaming worker
// pool at GOMAXPROCS parallelism; on multi-core machines this is the
// wall-clock win of the scheduler (results stay byte-identical).
func BenchmarkGridRunPooled(b *testing.B) { benchmarkGridRun(b, runtime.GOMAXPROCS(0)) }

// BenchmarkNewBenchmark times set-up at the published size: the world,
// the three datasets, the corpus generator, the search engine and the RAG
// pipeline, everything a cold grid or a daemon start pays before its first
// verification.
func BenchmarkNewBenchmark(b *testing.B) {
	cfg := core.Config{Scale: 1.0}
	b.ReportAllocs()
	for b.Loop() {
		core.NewBenchmark(cfg)
	}
}

// benchmarkGridRunStore times a whole-grid run against a result store. The
// timed region covers opening the store (snapshot load + decode) and the
// run itself; the benchmark substrates are rebuilt outside the timer. Cold
// runs get a fresh empty directory per iteration; resumed runs replay a
// fully warm store, the store's steady state, where the grid completes
// with zero verifier calls.
func benchmarkGridRunStore(b *testing.B, warm bool) {
	cfg := core.Config{Scale: 0.05, Small: true}
	ctx := context.Background()
	warmDir := b.TempDir()
	if warm {
		st, err := core.OpenStore(warmDir)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.NewBenchmark(cfg).Run(ctx, core.WithStore(st)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := warmDir
		if !warm {
			dir = b.TempDir()
		}
		bench := core.NewBenchmark(cfg)
		b.StartTimer()
		st, err := core.OpenStore(dir)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := bench.Run(ctx, core.WithStore(st)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGridRunCold runs the grid against an empty store: full
// verification cost plus snapshot persistence.
func BenchmarkGridRunCold(b *testing.B) { benchmarkGridRunStore(b, false) }

// BenchmarkGridRunResumed replays the same grid from a fully warm store;
// the gap versus BenchmarkGridRunCold is the warm-store speedup (resumed
// runs of partially warm stores fall in between, proportional to the
// missing slice).
func BenchmarkGridRunResumed(b *testing.B) { benchmarkGridRunStore(b, true) }

// --- serving-layer benches ----------------------------------------------

// serveBenchConfig keeps the service's backpressure layers out of the
// measurement: the benches time the verdict lookup stack, not the limiter.
func serveBenchConfig() serve.Config {
	return serve.Config{Rate: 1e12, Burst: 1e12, QueueDepth: 64}
}

// serveVerifyOnce posts one /v1/verify request through the handler.
func serveVerifyOnce(b *testing.B, h http.Handler, req serve.VerifyRequest) {
	b.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/verify", bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		b.Fatalf("verify %s: status %d: %s", req.FactID, w.Code, w.Body.String())
	}
}

// BenchmarkServeVerify measures one POST /v1/verify at the service's three
// temperatures, using the RAG method (whose retrieval stage dominates a
// cold verification, as in production):
//
//	cold        every request is a first touch: full verification
//	store-warm  the cell snapshot is in the result store, the LRU is empty
//	lru-warm    the verdict is in the in-memory LRU (steady state for a
//	            zipf-hot fact)
//
// The lru-warm/cold gap is the serving layer's headline number; store-warm
// sits in between (snapshot lookup + whole-cell LRU hydration).
func BenchmarkServeVerify(b *testing.B) {
	cfg := core.Config{Scale: 0.05, Small: true}
	cell := core.Cell{Dataset: dataset.FactBench, Method: llm.MethodRAG, Model: llm.Gemma2}
	mkReq := func(factID string) serve.VerifyRequest {
		return serve.VerifyRequest{Dataset: string(cell.Dataset), Method: string(cell.Method), Model: cell.Model, FactID: factID}
	}

	b.Run("cold", func(b *testing.B) {
		bench := core.NewBenchmark(cfg)
		facts := bench.Datasets[cell.Dataset].Facts
		svc := serve.New(bench, core.NewMemoryStore(), serveBenchConfig())
		h := svc.Handler()
		j := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if j == len(facts) {
				// Every fact of the instance has been verified once; a
				// fresh benchmark restores genuinely cold caches.
				b.StopTimer()
				svc.Drain()
				bench = core.NewBenchmark(cfg)
				facts = bench.Datasets[cell.Dataset].Facts
				svc = serve.New(bench, core.NewMemoryStore(), serveBenchConfig())
				h = svc.Handler()
				j = 0
				b.StartTimer()
			}
			serveVerifyOnce(b, h, mkReq(facts[j].ID))
			j++
		}
		b.StopTimer()
		svc.Drain()
	})

	bench := core.NewBenchmark(cfg)
	facts := bench.Datasets[cell.Dataset].Facts
	outs, err := bench.RunCell(context.Background(), cell.Dataset, cell.Method, cell.Model)
	if err != nil {
		b.Fatal(err)
	}
	store := core.NewMemoryStore()
	if err := store.Put(bench.CellKey(cell).Fingerprint(), outs); err != nil {
		b.Fatal(err)
	}

	b.Run("store-warm", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A fresh service per iteration keeps the LRU empty, so the
			// timed request pays the snapshot lookup plus the whole-cell
			// LRU hydration it triggers.
			b.StopTimer()
			svc := serve.New(bench, store, serveBenchConfig())
			h := svc.Handler()
			b.StartTimer()
			serveVerifyOnce(b, h, mkReq(facts[i%len(facts)].ID))
			b.StopTimer()
			svc.Drain()
			b.StartTimer()
		}
	})

	b.Run("lru-warm", func(b *testing.B) {
		svc := serve.New(bench, store, serveBenchConfig())
		defer svc.Drain()
		h := svc.Handler()
		for _, f := range facts {
			serveVerifyOnce(b, h, mkReq(f.ID))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveVerifyOnce(b, h, mkReq(facts[i%len(facts)].ID))
		}
		b.StopTimer()
		// Report the server-side latency summary next to the wall-clock
		// ns/op: exact histogram percentiles of the process-wide endpoint
		// histogram, dominated by this warm loop's b.N requests.
		if s, ok := obs.Default.Summaries()["endpoint/verify"]; ok {
			b.ReportMetric(s.P50MS, "p50_ms")
			b.ReportMetric(s.P95MS, "p95_ms")
			b.ReportMetric(s.P99MS, "p99_ms")
		}
	})
}

// BenchmarkSearchEngine measures mock-SERP query latency.
func BenchmarkSearchEngine(b *testing.B) {
	bench, _, _ := grid(b)
	facts := bench.Datasets[dataset.FactBench].Facts
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := facts[i%len(facts)]
		if _, err := bench.Engine.Search(f.ID, "who founded the company", search.DefaultSERPSize); err != nil {
			b.Fatal(err)
		}
	}
}

// --- sparse scoring substrate benches ------------------------------------

// benchmarkRerankDocs measures phase 4a of the RAG pipeline in isolation:
// fetching and reranking a fact's full candidate pool (up to the pipeline's
// CandidateCap of 120 docs) against the verbalised sentence, then selecting
// k_d. The dense path scores with the reference Score, which re-embeds the
// reference and every candidate per call; the sparse path embeds the
// reference once and scores the doc table's precomputed vectors with one
// ScoreBatch, as the pipeline does. Scores and selection are bit-identical
// (see internal/rerank's tests); only the cost differs.
func benchmarkRerankDocs(b *testing.B, sparse bool) {
	bench := core.NewBenchmark(core.Config{Scale: 0.1, Small: true})
	ranker := rerank.NewDocumentRanker()
	f := bench.Datasets[dataset.FactBench].Facts[0]
	sentence := strategy.ClaimFor(f).Sentence
	items, err := bench.Engine.Search(f.ID, sentence, rag.DefaultConfig().CandidateCap)
	if err != nil {
		b.Fatal(err)
	}
	if len(items) < 60 {
		b.Fatalf("pool too small for a doc-rerank bench: %d candidates", len(items))
	}
	kd := rag.DefaultConfig().SelectedDocs
	type scoredDoc struct {
		id    string
		score float64
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		docs := make([]scoredDoc, 0, len(items))
		if sparse {
			score := ranker.ScoreBatch(text.SparseEmbed(sentence), sentence)
			for _, it := range items {
				de, err := bench.Engine.FetchEvidence(it.DocID)
				if err != nil {
					b.Fatal(err)
				}
				if de.Empty || de.Text == "" {
					continue
				}
				s := score(de.Vec, de.Full)
				docs = append(docs, scoredDoc{id: de.DocID, score: s})
			}
		} else {
			for _, it := range items {
				d, err := bench.Engine.Fetch(it.DocID)
				if err != nil {
					b.Fatal(err)
				}
				if d.Empty || d.Text == "" {
					continue
				}
				s := ranker.Score(sentence, d.Title+" "+d.Text)
				docs = append(docs, scoredDoc{id: d.DocID, score: s})
			}
		}
		sort.SliceStable(docs, func(i, j int) bool {
			if docs[i].score != docs[j].score {
				return docs[i].score > docs[j].score
			}
			return docs[i].id < docs[j].id
		})
		if len(docs) > kd {
			docs = docs[:kd]
		}
	}
}

// BenchmarkRerankDocs measures the dense/sparse gap on a full
// candidate-pool document rerank.
func BenchmarkRerankDocs(b *testing.B) {
	b.Run("dense", func(b *testing.B) { benchmarkRerankDocs(b, false) })
	b.Run("sparse", func(b *testing.B) { benchmarkRerankDocs(b, true) })
}

// BenchmarkColdCell times one cold, store-less verification cell — every
// fact of the FactBench x RAG x gemma2 slice verified end-to-end with no
// result store, no verdict cache, and the evidence cache dropped before
// each iteration, so every timed run pays full retrieval (question
// generation and ranking, SERP queries, document reranking, chunking) and
// model simulation for every fact. The static corpus substrate — document
// pools and inverted indexes — is materialised once outside the timer:
// that is the serving steady state, where the shard store is warm but
// nothing about a request's verification is cached.
func BenchmarkColdCell(b *testing.B) {
	cfg := core.Config{Scale: 0.05, Small: true}
	ctx := context.Background()
	bench := core.NewBenchmark(cfg)
	// Warm pools and indexes; verification state is re-cooled per iteration.
	if _, err := bench.RunCell(ctx, dataset.FactBench, llm.MethodRAG, llm.Gemma2); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bench.Pipeline.ClearCache()
		b.StartTimer()
		if _, err := bench.RunCell(ctx, dataset.FactBench, llm.MethodRAG, llm.Gemma2); err != nil {
			b.Fatal(err)
		}
	}
}
