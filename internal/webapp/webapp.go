// Package webapp implements the paper's dedicated web application
// (contribution 4, §1: "enabling users to visually explore and analyze each
// step of the verification process, also featuring error analysis modules").
// It serves server-rendered HTML over the benchmark instance: dataset
// overviews, per-fact drill-downs through every pipeline stage (triple,
// verbalisation, questions with relevance scores, retrieved documents and
// chunks, per-model verdicts under every method, consensus votes, ontology
// rule checks), and the error-clustering study.
//
// Every verdict the UI shows comes from the online service
// (serve.Service.Verdict): the verdict LRU, singleflight, the
// content-addressed result store and the bounded executor, with on-demand
// verdicts persisted back by the service's whole-cell fills. cmd/factcheckd
// mounts the app beside the verdict API, so UI and API traffic share one
// store, one LRU and one /statsz. Determinism makes the layers invisible:
// a store-served page is byte-identical to a recomputed one.
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
	"factcheck/internal/serve"
	"factcheck/internal/strategy"
)

// App serves the exploration UI for one benchmark instance.
type App struct {
	bench *core.Benchmark
	svc   *serve.Service
	rules *rules.Engine
	tmpl  *template.Template

	// studies memoizes the error-clustering computation per
	// (dataset, model) with singleflight semantics.
	studyMu sync.Mutex
	studies map[studyKey]*study
}

// New builds the app over a benchmark instance and the service built over
// it, which resolves every verdict the app shows.
func New(b *core.Benchmark, svc *serve.Service) (*App, error) {
	t, err := template.New("webapp").Parse(pageTemplates)
	if err != nil {
		return nil, fmt.Errorf("webapp: parsing templates: %w", err)
	}
	return &App{
		bench:   b,
		svc:     svc,
		rules:   rules.NewEngine(b.World),
		tmpl:    t,
		studies: map[studyKey]*study{},
	}, nil
}

// Handler returns the app's HTTP handler.
func (a *App) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", a.handleIndex)
	mux.HandleFunc("GET /facts", a.handleFacts)
	mux.HandleFunc("GET /fact/{id}", a.handleFact)
	mux.HandleFunc("GET /errors", a.handleErrors)
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

	// Verdicts of every model under every method, through the service,
	// plus the DKA majority.
	var dkaVotes []consensus.Vote
	for _, method := range a.bench.Config.Methods {
		for _, name := range a.bench.Config.Models {
			cell := core.Cell{Dataset: f.Dataset, Method: method, Model: name}
			out, err := a.svc.Verdict(ctx, cell, f)
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
				dkaVotes = append(dkaVotes, consensus.Vote{Model: name, Verdict: out.Verdict})
			}
		}
	}
	if len(dkaVotes) > 0 {
		maj, tie := consensus.Majority(dkaVotes)
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
// pair. The fact slice fans out over a worker pool at the benchmark's
// parallelism, each verdict resolved by the service, so the study is
// bounded by its executor like any other work and served from its LRU or
// store when the cell is already there. Outcomes are index-addressed, so
// the clustering input is in fact order — identical to a sequential
// computation.
func (a *App) computeStudy(dn dataset.Name, model string) (analysis.ClusterResult, map[string]string, error) {
	facts := a.bench.Datasets[dn].Facts
	if len(facts) > errorStudyCap {
		facts = facts[:errorStudyCap]
	}
	cell := core.Cell{Dataset: dn, Method: llm.MethodDKA, Model: model}
	outs := make([]strategy.Outcome, len(facts))
	err := sched.New(a.bench.Config.Parallelism).Run(context.Background(), len(facts), func(ctx context.Context, i int) error {
		var err error
		outs[i], err = a.svc.Verdict(ctx, cell, facts[i])
		return err
	})
	if err != nil {
		return analysis.ClusterResult{}, nil, err
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
