// Package webapp implements the paper's dedicated web application
// (contribution 4, §1: "enabling users to visually explore and analyze each
// step of the verification process, also featuring error analysis modules").
// It serves server-rendered HTML over the benchmark instance: dataset
// overviews, per-fact drill-downs through every pipeline stage (triple,
// verbalisation, questions with relevance scores, retrieved documents and
// chunks, per-model verdicts under every method, consensus votes, ontology
// rule checks), and the error-clustering study.
//
// Verdicts are served from the content-addressed result store rather than
// recomputed per request: a fact page first probes the store for each
// (method, model) cell snapshot (an O(1) lookup), and on a miss verifies
// just the requested fact while an asynchronous, deduplicated whole-cell
// fill populates the store for subsequent requests. Pointing the app at
// the same -store directory as cmd/factcheck shares one substrate of
// computed results across both consumers. Determinism makes the switch
// invisible: a store-served page is byte-identical to a recomputed one.
package webapp

import (
	"context"
	"fmt"
	"html/template"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"factcheck/internal/analysis"
	"factcheck/internal/consensus"
	"factcheck/internal/core"
	"factcheck/internal/dataset"
	"factcheck/internal/llm"
	"factcheck/internal/rules"
	"factcheck/internal/sched"
	"factcheck/internal/strategy"
)

// App serves the exploration UI for one benchmark instance.
type App struct {
	bench *core.Benchmark
	rules *rules.Engine
	tmpl  *template.Template

	// store backs verdict lookups; a memory-only store when no directory
	// is configured.
	store *core.Store

	// filler dedupes and serialises asynchronous on-demand cell fills (a
	// cold fact page requests every (method, model) cell at once — one
	// batch at a time keeps background work bounded by one worker pool
	// instead of one per cell, and a batch's RAG cells retrieve each fact
	// once).
	filler *core.CellFiller

	// studies memoizes the error-clustering computation per
	// (dataset, model) with singleflight semantics.
	studyMu sync.Mutex
	studies map[studyKey]*study
}

// Option customises an App.
type Option func(*App)

// WithStore backs the app's verdict lookups (and on-demand fills) with the
// given result store — typically the same directory a cmd/factcheck -store
// run writes, so precomputed grids are served without any verification.
func WithStore(s *core.Store) Option {
	return func(a *App) { a.store = s }
}

// New builds the app over a benchmark instance.
func New(b *core.Benchmark, opts ...Option) (*App, error) {
	t, err := template.New("webapp").Parse(pageTemplates)
	if err != nil {
		return nil, fmt.Errorf("webapp: parsing templates: %w", err)
	}
	a := &App{
		bench:   b,
		rules:   rules.NewEngine(b.World),
		tmpl:    t,
		studies: map[studyKey]*study{},
	}
	for _, o := range opts {
		o(a)
	}
	if a.store == nil {
		a.store = core.NewMemoryStore()
	}
	a.filler = core.NewCellFiller(func(cells []core.Cell) error {
		outs, err := b.RunCells(context.Background(), cells)
		if err != nil {
			return err
		}
		for i, cell := range cells {
			if err := a.store.Put(b.CellKey(cell).Fingerprint(), outs[i]); err != nil {
				return err
			}
		}
		return nil
	})
	return a, nil
}

// cellOutcome returns one (method, model) verdict for one fact. Store hit:
// an O(1) snapshot lookup. Miss: verify just this fact for the response
// while an asynchronous whole-cell fill warms the store, so the next
// request for any fact of the cell is a lookup. Outcomes are deterministic,
// so both paths return identical values.
func (a *App) cellOutcome(ctx context.Context, cell core.Cell, f *dataset.Fact) (strategy.Outcome, error) {
	if outs, ok := a.store.Get(a.bench.CellKey(cell).Fingerprint()); ok {
		if i, ok := a.bench.FactIndex(cell.Dataset)[f.ID]; ok && i < len(outs) {
			return outs[i], nil
		}
	}
	a.filler.Fill(cell)
	return a.bench.VerifyFact(ctx, cell, f)
}

// WaitFills blocks until every in-flight on-demand cell fill has finished
// (graceful shutdown, tests).
func (a *App) WaitFills() { a.filler.Wait() }

// Handler returns the app's HTTP handler.
func (a *App) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", a.handleIndex)
	mux.HandleFunc("GET /facts", a.handleFacts)
	mux.HandleFunc("GET /fact/{id}", a.handleFact)
	mux.HandleFunc("GET /errors", a.handleErrors)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// --- index -------------------------------------------------------------

type indexData struct {
	Datasets []indexDataset
}

type indexDataset struct {
	Name  dataset.Name
	Stats dataset.Stats
}

func (a *App) handleIndex(w http.ResponseWriter, _ *http.Request) {
	var data indexData
	for _, n := range a.bench.Config.Datasets {
		data.Datasets = append(data.Datasets, indexDataset{
			Name:  n,
			Stats: a.bench.Datasets[n].Stats(),
		})
	}
	a.render(w, "index", data)
}

// --- fact list ----------------------------------------------------------

const pageSize = 50

type factsData struct {
	Dataset  dataset.Name
	Page     int
	HasPrev  bool
	HasNext  bool
	PrevPage int
	NextPage int
	Facts    []*dataset.Fact
	Sentence func(*dataset.Fact) string
}

func (a *App) handleFacts(w http.ResponseWriter, r *http.Request) {
	dn := dataset.Name(r.URL.Query().Get("dataset"))
	d, ok := a.bench.Datasets[dn]
	if !ok {
		http.Error(w, "unknown dataset", http.StatusNotFound)
		return
	}
	page, _ := strconv.Atoi(r.URL.Query().Get("page"))
	if page < 0 {
		page = 0
	}
	start := page * pageSize
	if start >= len(d.Facts) {
		start = 0
		page = 0
	}
	end := start + pageSize
	if end > len(d.Facts) {
		end = len(d.Facts)
	}
	a.render(w, "facts", factsData{
		Dataset:  dn,
		Page:     page,
		HasPrev:  page > 0,
		HasNext:  end < len(d.Facts),
		PrevPage: page - 1,
		NextPage: page + 1,
		Facts:    d.Facts[start:end],
	})
}

// --- fact detail ---------------------------------------------------------

type verdictRow struct {
	Model    string
	Method   llm.Method
	Verdict  string
	Correct  bool
	Latency  string
	Tokens   int
	Attempts int
	Reason   string
}

type questionRow struct {
	Text  string
	Score string
}

type docRow struct {
	Title string
	Host  string
	URL   string
}

type factData struct {
	Fact      *dataset.Fact
	Sentence  string
	Triple    string
	Rule      rules.Result
	Questions []questionRow
	Queries   []string
	Docs      []docRow
	Chunks    []string
	Filtered  int
	Verdicts  []verdictRow
	Majority  string
	Tie       bool
}

func (a *App) handleFact(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	f, ok := a.bench.FactByID(id)
	if !ok {
		http.Error(w, "unknown fact "+id, http.StatusNotFound)
		return
	}
	ctx := r.Context()
	claim := strategy.ClaimFor(f)
	data := factData{
		Fact:     f,
		Sentence: claim.Sentence,
		Triple:   f.Triple.String(),
		Rule:     a.rules.CheckFact(f),
	}

	// Retrieval stages.
	ev, err := a.bench.Pipeline.Retrieve(f)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	for _, q := range ev.Questions {
		data.Questions = append(data.Questions, questionRow{Text: q.Text, Score: fmt.Sprintf("%.2f", q.Score)})
	}
	sort.Slice(data.Questions, func(i, j int) bool { return data.Questions[i].Score > data.Questions[j].Score })
	data.Queries = ev.Queries
	for _, d := range ev.Docs {
		data.Docs = append(data.Docs, docRow{Title: d.Title, Host: d.Host, URL: d.URL})
	}
	data.Chunks = ev.ChunkTexts()
	data.Filtered = ev.FilteredSKG

	// Verdicts of every model under every method (store-backed, filled on
	// demand), plus the DKA majority.
	var dkaOutcomes []strategy.Outcome
	for _, method := range a.bench.Config.Methods {
		for _, name := range a.bench.Config.Models {
			cell := core.Cell{Dataset: f.Dataset, Method: method, Model: name}
			out, err := a.cellOutcome(ctx, cell, f)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			data.Verdicts = append(data.Verdicts, verdictRow{
				Model:    name,
				Method:   method,
				Verdict:  out.Verdict.String(),
				Correct:  out.Correct,
				Latency:  fmt.Sprintf("%.2fs", out.Latency.Seconds()),
				Tokens:   out.PromptTokens + out.CompletionTokens,
				Attempts: out.Attempts,
				Reason:   out.Explanation,
			})
			if method == llm.MethodDKA && name != llm.GPT4oMini {
				dkaOutcomes = append(dkaOutcomes, out)
			}
		}
	}
	if len(dkaOutcomes) > 0 {
		votes := make([]consensus.Vote, len(dkaOutcomes))
		for i, o := range dkaOutcomes {
			votes[i] = consensus.Vote{Model: o.Model, Verdict: o.Verdict}
		}
		maj, tie := consensus.Majority(votes)
		data.Majority = strconv.FormatBool(maj)
		data.Tie = tie
	}
	a.render(w, "fact", data)
}

// --- error analysis ------------------------------------------------------

type errorsData struct {
	Dataset    dataset.Name
	Model      string
	Models     []string
	Categories []analysis.ErrorCategory
	Counts     map[analysis.ErrorCategory]int
	Total      int
	Samples    []errorSample
}

type errorSample struct {
	FactID   string
	Category analysis.ErrorCategory
	Reason   string
}

// errorStudyCap bounds how many facts the error-analysis page verifies,
// keeping the (memoized) computation interactive at full scale.
const errorStudyCap = 400

type studyKey struct {
	dataset dataset.Name
	model   string
}

// study is one memoized error-clustering computation: DKA over the page's
// fact slice, mistakes clustered into E1–E6. done is closed once res,
// reasons and err are set; waiters block on it (singleflight).
type study struct {
	done    chan struct{}
	res     analysis.ClusterResult
	reasons map[string]string
	err     error
}

// errorStudy returns the memoized error study for (dn, model), computing
// it at most once; concurrent requests share one computation. Failed
// studies are evicted so a later request retries.
func (a *App) errorStudy(dn dataset.Name, model string) (*study, error) {
	key := studyKey{dataset: dn, model: model}
	a.studyMu.Lock()
	if s, ok := a.studies[key]; ok {
		a.studyMu.Unlock()
		<-s.done
		return s, s.err
	}
	s := &study{done: make(chan struct{})}
	a.studies[key] = s
	a.studyMu.Unlock()

	s.res, s.reasons, s.err = a.computeStudy(dn, model)
	if s.err != nil {
		a.studyMu.Lock()
		delete(a.studies, key)
		a.studyMu.Unlock()
	}
	close(s.done)
	return s, s.err
}

// computeStudy produces the DKA error clustering for a (dataset, model)
// pair: outcomes come from the result store when the cell snapshot is
// present, otherwise the fact slice fans out over a worker pool at the
// benchmark's parallelism (instead of the old strictly sequential
// per-request loop). Outcomes are index-addressed, so the clustering input
// is in fact order — identical to a sequential computation.
func (a *App) computeStudy(dn dataset.Name, model string) (analysis.ClusterResult, map[string]string, error) {
	d := a.bench.Datasets[dn]
	facts := d.Facts
	if len(facts) > errorStudyCap {
		facts = facts[:errorStudyCap]
	}
	cell := core.Cell{Dataset: dn, Method: llm.MethodDKA, Model: model}
	outs := make([]strategy.Outcome, len(facts))
	if cached, ok := a.store.Get(a.bench.CellKey(cell).Fingerprint()); ok && len(cached) >= len(facts) {
		copy(outs, cached[:len(facts)])
	} else {
		m, err := a.bench.Model(model)
		if err != nil {
			return analysis.ClusterResult{}, nil, err
		}
		pool := sched.New(a.bench.Config.Parallelism)
		err = pool.Run(context.Background(), len(facts), func(ctx context.Context, i int) error {
			out, err := (strategy.DKA{}).Verify(ctx, m, facts[i])
			if err != nil {
				return err
			}
			outs[i] = out
			return nil
		})
		if err != nil {
			return analysis.ClusterResult{}, nil, err
		}
	}
	var records []analysis.ErrorRecord
	reasons := map[string]string{}
	for i, out := range outs {
		if out.Correct || out.Verdict == strategy.Invalid {
			continue
		}
		records = append(records, analysis.ErrorRecord{Model: model, FactID: facts[i].ID, Explanation: out.Explanation})
		reasons[facts[i].ID] = out.Explanation
	}
	return analysis.ClusterErrors(records), reasons, nil
}

func (a *App) handleErrors(w http.ResponseWriter, r *http.Request) {
	dn := dataset.Name(r.URL.Query().Get("dataset"))
	if dn == "" {
		dn = dataset.FactBench
	}
	if _, ok := a.bench.Datasets[dn]; !ok {
		http.Error(w, "unknown dataset", http.StatusNotFound)
		return
	}
	model := r.URL.Query().Get("model")
	if model == "" {
		model = llm.Gemma2
	}
	if _, err := a.bench.Model(model); err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}

	s, err := a.errorStudy(dn, model)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	data := errorsData{
		Dataset:    dn,
		Model:      model,
		Models:     a.bench.Config.Models,
		Categories: analysis.Categories,
		Counts:     s.res.Counts,
		Total:      s.res.Total,
	}
	for factID, cat := range s.res.Assignments {
		data.Samples = append(data.Samples, errorSample{FactID: factID, Category: cat, Reason: s.reasons[factID]})
	}
	sort.Slice(data.Samples, func(i, j int) bool {
		if data.Samples[i].Category != data.Samples[j].Category {
			return data.Samples[i].Category < data.Samples[j].Category
		}
		return data.Samples[i].FactID < data.Samples[j].FactID
	})
	if len(data.Samples) > 40 {
		data.Samples = data.Samples[:40]
	}
	a.render(w, "errors", data)
}

func (a *App) render(w http.ResponseWriter, name string, data any) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := a.tmpl.ExecuteTemplate(w, name, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Warm pre-verifies nothing but forces lazy model construction so the first
// request is fast; safe to skip.
func (a *App) Warm(ctx context.Context) error {
	for _, name := range a.bench.Config.Models {
		if _, err := a.bench.Model(name); err != nil {
			return err
		}
	}
	_ = ctx
	return nil
}
