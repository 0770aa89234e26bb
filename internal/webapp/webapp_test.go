package webapp

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"factcheck/internal/core"
	"factcheck/internal/dataset"
	"factcheck/internal/llm"
	"factcheck/internal/serve"
	"factcheck/internal/strategy"
)

// serveApp serves an app over b and a service over b and st; the server
// closes and the service drains when the test ends.
func serveApp(t *testing.T, b *core.Benchmark, st *core.Store) (*httptest.Server, *App, *serve.Service) {
	t.Helper()
	svc := serve.New(b, st, serve.DefaultConfig())
	app, err := New(b, svc)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(app.Handler())
	t.Cleanup(func() {
		srv.Close()
		svc.Drain()
	})
	return srv, app, svc
}

func server(t *testing.T) (*httptest.Server, *core.Benchmark) {
	t.Helper()
	b := core.NewBenchmark(core.Config{Scale: 0.05, Small: true})
	srv, _, _ := serveApp(t, b, core.NewMemoryStore())
	return srv, b
}

// waitFills polls the service until it has persisted want cells. Drain
// would discard a fill still queued behind the filler's semaphore.
func waitFills(t *testing.T, svc *serve.Service, want uint64) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); svc.Stats().CellFills < want; {
		if time.Now().After(deadline) {
			t.Fatalf("cell fills = %d after 30s, want %d", svc.Stats().CellFills, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestIndexPage(t *testing.T) {
	srv, _ := server(t)
	code, body := get(t, srv.URL+"/")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for _, want := range []string{"FactBench", "YAGO", "DBpedia", "Gold µ", "browse"} {
		if !strings.Contains(body, want) {
			t.Errorf("index missing %q", want)
		}
	}
}

func TestFactsPageAndPagination(t *testing.T) {
	srv, b := server(t)
	code, body := get(t, srv.URL+"/facts?dataset=FactBench")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	first := b.Datasets[dataset.FactBench].Facts[0]
	if !strings.Contains(body, first.ID) {
		t.Errorf("facts page missing first fact %s", first.ID)
	}
	if code, _ := get(t, srv.URL+"/facts?dataset=Nope"); code != http.StatusNotFound {
		t.Errorf("unknown dataset status %d", code)
	}
	// Out-of-range page falls back to page 0.
	if code, _ := get(t, srv.URL+"/facts?dataset=FactBench&page=9999"); code != http.StatusOK {
		t.Errorf("overflow page status %d", code)
	}
}

func TestFactDetailPage(t *testing.T) {
	srv, b := server(t)
	f := b.Datasets[dataset.FactBench].Facts[0]
	code, body := get(t, srv.URL+"/fact/"+f.ID)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body[:min(len(body), 200)])
	}
	wants := []string{
		f.Subject.Label,           // entity surface
		"Verbalised (phase 1)",    // pipeline stage 1
		"generated questions",     // stage 2
		"retrieved evidence",      // stages 3-4
		"Model verdicts",          // verification grid
		"Ontology rule check",     // rules extension
		"DKA majority",            // consensus block
		string(llm.MethodRAG),     // all methods present
		llm.Gemma2, llm.GPT4oMini, // all models present
	}
	for _, w := range wants {
		if !strings.Contains(body, w) {
			t.Errorf("fact page missing %q", w)
		}
	}
	if code, _ := get(t, srv.URL+"/fact/unknown-000001"); code != http.StatusNotFound {
		t.Errorf("unknown fact status %d", code)
	}
}

func TestErrorsPage(t *testing.T) {
	srv, _ := server(t)
	code, body := get(t, srv.URL+"/errors?dataset=FactBench&model="+llm.Mistral)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for _, w := range []string{"Error analysis", "E1", "E4", "Sample errors", llm.Mistral} {
		if !strings.Contains(body, w) {
			t.Errorf("errors page missing %q", w)
		}
	}
	if code, _ := get(t, srv.URL+"/errors?dataset=FactBench&model=no-model"); code != http.StatusNotFound {
		t.Errorf("unknown model status %d", code)
	}
	// Defaults apply with no parameters.
	if code, _ := get(t, srv.URL+"/errors"); code != http.StatusOK {
		t.Errorf("default errors page status %d", code)
	}
}

// storeBench is a one-model, one-method benchmark.
func storeBench() *core.Benchmark {
	return core.NewBenchmark(core.Config{
		Scale: 0.05, Small: true,
		Models:  []string{llm.Gemma2},
		Methods: []llm.Method{llm.MethodDKA},
	})
}

// storeServer serves an app over a one-model, one-method benchmark with an
// explicit store handle.
func storeServer(t *testing.T, st *core.Store) (*httptest.Server, *App, *core.Benchmark) {
	t.Helper()
	b := storeBench()
	srv, app, _ := serveApp(t, b, st)
	return srv, app, b
}

func TestFactPageServesFromStore(t *testing.T) {
	st := core.NewMemoryStore()
	srv, _, b := storeServer(t, st)
	f := b.Datasets[dataset.FactBench].Facts[0]

	// Pre-fill the DKA cell with a marked snapshot: the page must render
	// the stored outcome, not a recomputation.
	outs, err := b.RunCell(context.Background(), dataset.FactBench, llm.MethodDKA, llm.Gemma2)
	if err != nil {
		t.Fatal(err)
	}
	const sentinel = "sentinel-explanation-from-store-7f3a"
	outs[0].Explanation = sentinel
	cell := core.Cell{Dataset: dataset.FactBench, Method: llm.MethodDKA, Model: llm.Gemma2}
	if err := st.Put(b.CellKey(cell).Fingerprint(), outs); err != nil {
		t.Fatal(err)
	}

	code, body := get(t, srv.URL+"/fact/"+f.ID)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !strings.Contains(body, sentinel) {
		t.Error("fact page did not serve the stored outcome")
	}
}

func TestFactPageFillsStoreOnDemand(t *testing.T) {
	st := core.NewMemoryStore()
	b := storeBench()
	srv, _, svc := serveApp(t, b, st)
	f := b.Datasets[dataset.YAGO].Facts[0]

	code, cold := get(t, srv.URL+"/fact/"+f.ID)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if s := svc.Stats(); s.Computed == 0 {
		t.Fatalf("cold page computed no verdict through the service: %+v", s)
	}
	// Every (method, model) cell the page touched is now in the store.
	want := len(b.Config.Methods) * len(b.Config.Models)
	waitFills(t, svc, uint64(want))
	if st.Len() != want {
		t.Fatalf("store has %d cells after fill, want %d", st.Len(), want)
	}
	// A fresh service over the same store answers from the snapshot, and
	// the store-served page is byte-identical to the computed one.
	warmSrv, _, warmSvc := serveApp(t, b, st)
	if _, warm := get(t, warmSrv.URL+"/fact/"+f.ID); warm != cold {
		t.Error("store-backed response differs from computed response")
	}
	if s := warmSvc.Stats(); s.StoreHits == 0 || s.Computed != 0 {
		t.Errorf("warm page: store_hits %d, computed %d; want a store hit and nothing computed", s.StoreHits, s.Computed)
	}
}

func TestErrorStudyMemoized(t *testing.T) {
	_, app, _ := storeServer(t, core.NewMemoryStore())
	s1, err := app.errorStudy(dataset.FactBench, llm.Gemma2)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := app.errorStudy(dataset.FactBench, llm.Gemma2)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Error("error study recomputed instead of memoized")
	}
	if s1.res.Total == 0 {
		t.Error("study found no errors on the small benchmark (suspicious)")
	}
}

func TestErrorStudyUsesStoreSnapshot(t *testing.T) {
	st := core.NewMemoryStore()
	_, app, b := storeServer(t, st)

	// Compute the DKA cell once, plant a sentinel explanation on one wrong
	// prediction, and store the snapshot: the study must surface the
	// sentinel, which only the store-backed path can produce (a
	// recomputation would regenerate the original explanation).
	outs, err := b.RunCell(context.Background(), dataset.FactBench, llm.MethodDKA, llm.Gemma2)
	if err != nil {
		t.Fatal(err)
	}
	const sentinel = "sentinel-reason-only-in-snapshot"
	marked := ""
	for i := range outs {
		if !outs[i].Correct && outs[i].Verdict != strategy.Invalid {
			outs[i].Explanation = sentinel
			marked = outs[i].FactID
			break
		}
	}
	if marked == "" {
		t.Fatal("no wrong prediction to mark on the small benchmark")
	}
	cell := core.Cell{Dataset: dataset.FactBench, Method: llm.MethodDKA, Model: llm.Gemma2}
	if err := st.Put(b.CellKey(cell).Fingerprint(), outs); err != nil {
		t.Fatal(err)
	}
	s, err := app.errorStudy(dataset.FactBench, llm.Gemma2)
	if err != nil {
		t.Fatal(err)
	}
	if s.reasons[marked] != sentinel {
		t.Errorf("study reason for %s = %q, want the stored sentinel", marked, s.reasons[marked])
	}
	// Cross-check totals against a direct count over the snapshot.
	wantErrs := 0
	for _, o := range outs {
		if !o.Correct && o.Verdict != strategy.Invalid {
			wantErrs++
		}
	}
	if s.res.Total != wantErrs {
		t.Errorf("study total = %d, want %d", s.res.Total, wantErrs)
	}
}
