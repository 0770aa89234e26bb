package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"factcheck/internal/consensus"
	"factcheck/internal/core"
	"factcheck/internal/dataset"
	"factcheck/internal/llm"
	"factcheck/internal/sched"
	"factcheck/internal/strategy"
)

// gridPass is one cold pass over the paper's grid: the verification grid
// into an on-disk result store, eager consensus, and every artifact
// rendered, as `factcheck -store DIR` does after building its benchmark.
type gridPass struct {
	rs                      *core.ResultSet
	cells                   []time.Duration // cell completion times, from the pass start
	open, run, cons, render time.Duration
	wall                    time.Duration
	digest                  string // sha256 of the rendered artifacts
	verifications           int
}

func gridConfig(c runConfig) core.Config {
	return core.Config{Scale: c.size.gridScale, Small: c.size.small, WorldConfig: worldConfig(c.seed, c.size.small), Parallelism: nproc()}
}

// timedBench builds a benchmark and times the build. It first collects,
// untimed, the garbage of earlier builds and passes, so that no build pays
// for another's.
func timedBench(cfg core.Config) (*core.Benchmark, time.Duration) {
	runtime.GC()
	t := time.Now()
	b := core.NewBenchmark(cfg)
	return b, time.Since(t)
}

// runGridCold is the grid-cold workload. Each pass runs on a freshly
// built benchmark, so every pass is cold; passes repeat while another one
// still fits in the run's time budget. A traced run then adds one pass
// decomposed into public calls with spans around each.
func runGridCold(ctx context.Context, c runConfig) (*result, error) {
	cfg := gridConfig(c)
	var setups []float64
	var b *core.Benchmark
	for i := 0; i < c.size.gridSetups; i++ {
		var d time.Duration
		b, d = timedBench(cfg)
		setups = append(setups, d.Seconds())
	}
	var passes []gridPass
	phaseStart := time.Now()
	for {
		// Every pass starts from the heap of one benchmark, as `factcheck`
		// does.
		runtime.GC()
		p, err := gridPassRun(ctx, b, filepath.Join(c.workDir, fmt.Sprintf("grid-%d", len(passes))))
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(c.log, "grid-cold: pass %d: run %.2fs consensus %.2fs render %.2fs (wall %.2fs) digest %s\n",
			len(passes)+1, p.run.Seconds(), p.cons.Seconds(), p.render.Seconds(), p.wall.Seconds(), p.digest)
		passes = append(passes, p)
		if time.Since(phaseStart)+p.wall > c.seconds {
			break
		}
		var d time.Duration
		b, d = timedBench(cfg)
		setups = append(setups, d.Seconds())
	}
	if err := checkGridPasses(ctx, b, passes, c); err != nil {
		return nil, err
	}

	res := &result{Correct: true, Metrics: metricSet{}, Info: map[string]any{}}
	var walls, cellMS []float64
	var wallSum time.Duration
	for _, p := range passes {
		res.Attempted += int64(p.verifications)
		walls = append(walls, p.wall.Seconds())
		wallSum += p.wall
		for _, d := range p.cells {
			cellMS = append(cellMS, ms(d))
		}
	}
	res.Metrics.set("setup_s", "s", median(setups))
	res.Metrics.set("throughput_rps", "1/s", float64(res.Attempted)/wallSum.Seconds())
	latencyMetrics(res, cellMS)
	res.Info["wall_s"] = median(walls)
	res.Info["passes"] = len(passes)
	res.Info["digest"] = passes[0].digest

	if c.trace {
		if err := traceGrid(ctx, c, res, passes[0].digest, median(walls)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// traceGrid runs the decomposed, traced pass on a fresh benchmark and
// fills the per-layer metrics. It must render the untraced passes'
// artifacts; wall is their median wall time, the base of the tracing
// overhead.
func traceGrid(ctx context.Context, c runConfig, res *result, digest string, wall float64) error {
	tb := core.NewBenchmark(gridConfig(c))
	t := newTracer()
	before := takeSnapshot(tb.Engine, nil)
	p, ts, err := gridPassTraced(ctx, tb, filepath.Join(c.workDir, "grid-traced"), t)
	if err != nil {
		return err
	}
	after := takeSnapshot(tb.Engine, nil)
	if p.digest != digest {
		return fmt.Errorf("grid-cold: decomposed traced pass rendered digest %s, the public Run %s", p.digest, digest)
	}
	m := res.Metrics
	programLayers(m, delta{before, after}, 0)
	if m["rag.retrievals"].Value > 0 && ts.fetchEvidence.Load() == 0 {
		return fmt.Errorf("grid-cold: traced searcher saw no FetchEvidence calls; the RAG pipeline left its sparse path")
	}
	tracedLayers(m, t)
	_, runBusy := t.layer("core.run")
	var tasks time.Duration
	for _, n := range []string{"core.prefetch", "strategy.verify", "results.put"} {
		_, busy := t.layer(n)
		tasks += busy
	}
	m.set("core.run_s", "s", p.run.Seconds())
	m.set("core.consensus_s", "s", p.cons.Seconds())
	m.set("core.render_s", "s", p.render.Seconds())
	m.set("core.pool_util", "ratio", share(tasks, runBusy))
	m.set("results.open_ms", "ms", ms(p.open))
	m.set("strategy.giv_attempts_per_verify", "count", givAttempts(p.rs))
	m.set("serve.http_us", "us", 0)
	m.set("serve.unattributed_us", "us", 0)
	_, total := t.layer("grid")
	rows, unattributed := t.table(total, "grid", "core.run")
	printTable(c.log, "grid-cold traced pass", rows, total, unattributed)
	m.set("bench.unattributed_share", "ratio", share(unattributed, total))
	m.set("bench.trace_overhead", "ratio", p.wall.Seconds()/wall-1)
	res.tracer = t
	return nil
}

// checkGridPasses verifies the grid's outputs: every pass renders the same
// artifacts, the digest matches the pinned one, and sampled outcomes equal
// a direct VerifyFact.
func checkGridPasses(ctx context.Context, b *core.Benchmark, passes []gridPass, c runConfig) error {
	for _, p := range passes[1:] {
		if p.digest != passes[0].digest {
			return fmt.Errorf("grid-cold: passes rendered different artifacts (%s vs %s)", passes[0].digest, p.digest)
		}
	}
	if err := checkDigest("grid-cold artifact", passes[0].digest, c.pins["grid-cold"]); err != nil {
		return err
	}
	last := passes[len(passes)-1]
	return checkGridSample(ctx, b, last.rs, c.seed, c.size.gridSamples)
}

// gridPassRun is one pass through the public grid API.
func gridPassRun(ctx context.Context, b *core.Benchmark, dir string) (gridPass, error) {
	var p gridPass
	start := time.Now()
	store, err := core.OpenStore(dir)
	if err != nil {
		return p, err
	}
	p.open = time.Since(start)
	rs, err := b.Run(ctx, core.WithStore(store), core.WithProgress(func(core.Progress) {
		p.cells = append(p.cells, time.Since(start))
	}))
	if err != nil {
		return p, err
	}
	p.rs = rs
	p.run = time.Since(start)
	err = finishPass(ctx, b, &p, start, nil, nil)
	return p, err
}

// finishPass runs eager consensus and renders every artifact, timing each
// phase and digesting the output.
func finishPass(ctx context.Context, b *core.Benchmark, p *gridPass, start time.Time, t *tracer, root *span) error {
	sp := t.stage("core.consensus", root)
	consStart := time.Now()
	rep, err := b.RunAllConsensusMode(ctx, p.rs, consensus.ModeEager)
	if err != nil {
		return err
	}
	p.cons = time.Since(consStart)
	t.end(sp)
	sp = t.stage("core.render", root)
	renderStart := time.Now()
	out, err := renderAll(b, p.rs, rep)
	if err != nil {
		return err
	}
	p.render = time.Since(renderStart)
	t.end(sp)
	p.wall = time.Since(start)
	sum := sha256.Sum256([]byte(out))
	p.digest = hex.EncodeToString(sum[:])
	for _, outs := range p.rs.Outcomes {
		p.verifications += len(outs)
	}
	return nil
}

// renderAll renders every artifact in the order and format of the
// factcheck command's standard output.
func renderAll(b *core.Benchmark, rs *core.ResultSet, rep *core.ConsensusReport) (string, error) {
	var w strings.Builder
	emit := func(s string) { w.WriteString(s + "\n") }
	emit(b.Table2())
	emit(b.Table3(500))
	emit(b.Table4())
	emit(b.Table5(rs))
	emit(b.Table6(rep))
	emit(b.Table7(rep))
	emit(b.Table8(rs))
	emit(b.Table9(rs, llm.MethodDKA))
	emit(b.ComputeFigure2(rs, rep).String())
	emit(b.ComputeFigure3(rs).String())
	fig4, err := b.Figure4(rs)
	if err != nil {
		return "", err
	}
	emit(fig4)
	emit("DBpedia topic stratification (DKA, open-source models):")
	for _, s := range b.TopicStrata(rs, dataset.DBpedia, llm.MethodDKA) {
		fmt.Fprintf(&w, "  %-16s total=%5d errors=%5d rate=%.3f\n", s.Name, s.Total, s.Errors, s.ErrorRate)
	}
	emit("")
	emit(b.ComputeRAGStats(300).String())
	return w.String(), nil
}

// gridCell is one cell of the decomposed grid.
type gridCell struct {
	cell      core.Cell
	facts     []*dataset.Fact
	verifier  strategy.Verifier
	model     llm.Model
	outs      []strategy.Outcome
	remaining atomic.Int64
}

// gridPassTraced reruns the grid decomposed into the public calls Run
// makes, on a pool of the same size and with the same task order (one
// evidence prefetch per fact, then every (cell, fact) verification), with
// a span around each call: Engine.Warm and Pipeline.Warm per fact,
// Verifier.Verify with a timing model around b.Model(name), Store.Put per
// finished cell, then consensus and rendering. A RAG verification first
// waits for its fact's evidence through Pipeline.RetrieveCtx, so that wait
// is its own span. The pass must render the same artifacts as Run.
func gridPassTraced(ctx context.Context, b *core.Benchmark, dir string, t *tracer) (gridPass, *tracedSearcher, error) {
	var p gridPass
	workers := b.Config.Parallelism
	ts := &tracedSearcher{eng: b.Engine, t: t}
	b.Pipeline.Searcher = ts

	start := time.Now()
	root := t.begin("grid", nil, 0)
	root.slots = workers
	store, err := core.OpenStore(dir)
	if err != nil {
		return p, nil, err
	}
	p.open = time.Since(start)
	runSp := t.stage("core.run", root)

	var cells []*gridCell
	for _, dn := range b.Config.Datasets {
		for _, method := range b.Config.Methods {
			v, err := b.Verifier(method)
			if err != nil {
				return p, nil, err
			}
			for _, name := range b.Config.Models {
				m, err := b.Model(name)
				if err != nil {
					return p, nil, err
				}
				c := &gridCell{
					cell:     core.Cell{Dataset: dn, Method: method, Model: name},
					facts:    b.Datasets[dn].Facts,
					verifier: v,
					model:    tracedModel{Model: m, t: t},
				}
				c.outs = make([]strategy.Outcome, len(c.facts))
				c.remaining.Store(int64(len(c.facts)))
				cells = append(cells, c)
			}
		}
	}
	type task struct {
		f *dataset.Fact // prefetch when c is nil
		c *gridCell
		i int
	}
	var tasks []task
	for _, method := range b.Config.Methods {
		v, _ := b.Verifier(method)
		if _, ok := v.(strategy.Prefetcher); !ok {
			continue
		}
		for _, dn := range b.Config.Datasets {
			for _, f := range b.Datasets[dn].Facts {
				tasks = append(tasks, task{f: f})
			}
		}
	}
	for _, c := range cells {
		for i := range c.facts {
			tasks = append(tasks, task{c: c, i: i})
		}
	}
	err = sched.New(workers).Run(ctx, len(tasks), func(ctx context.Context, ti int) error {
		tk := tasks[ti]
		if tk.c == nil {
			return tracedPrefetch(b, ts, t, runSp, tk.f)
		}
		f := tk.c.facts[tk.i]
		sp := t.begin("strategy.verify", runSp, 0)
		vctx := withSpan(ctx, sp)
		if tk.c.cell.Method == llm.MethodRAG {
			w := t.begin("rag.wait", sp, 0)
			_, err := b.Pipeline.RetrieveCtx(vctx, f)
			t.end(w)
			if err != nil {
				return err
			}
		}
		out, err := tk.c.verifier.Verify(vctx, tk.c.model, f)
		t.end(sp)
		if err != nil {
			return err
		}
		tk.c.outs[tk.i] = out
		if tk.c.remaining.Add(-1) > 0 {
			return nil
		}
		put := t.begin("results.put", runSp, 0)
		err = store.Put(b.CellKey(tk.c.cell).Fingerprint(), tk.c.outs)
		t.end(put)
		return err
	})
	if err != nil {
		return p, nil, err
	}
	t.end(runSp)
	p.run = time.Since(start)
	p.rs = &core.ResultSet{Config: b.Config, Outcomes: map[core.Cell][]strategy.Outcome{}}
	for _, c := range cells {
		p.rs.Outcomes[c.cell] = c.outs
	}
	err = finishPass(ctx, b, &p, start, t, root)
	t.end(root)
	return p, ts, err
}

// tracedPrefetch warms one fact: the engine's pool, then the pipeline's
// evidence.
func tracedPrefetch(b *core.Benchmark, ts *tracedSearcher, t *tracer, parent *span, f *dataset.Fact) error {
	sp := t.begin("core.prefetch", parent, 0)
	defer t.end(sp)
	ts.enter(f.ID, sp)
	err := ts.Warm(f.ID)
	if err == nil {
		rw := t.begin("rag.warm", sp, 0)
		ts.enter(f.ID, rw)
		err = b.Pipeline.Warm(f)
		t.end(rw)
	}
	ts.leave(f.ID)
	return err
}

// givAttempts is the mean generation attempts per GIV verification.
func givAttempts(rs *core.ResultSet) float64 {
	var attempts, n int
	for c, outs := range rs.Outcomes {
		if c.Method != llm.MethodGIVZ && c.Method != llm.MethodGIVF {
			continue
		}
		for _, o := range outs {
			attempts += o.Attempts
			n++
		}
	}
	return ratio(float64(attempts), float64(n))
}
