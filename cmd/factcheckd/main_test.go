package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"html/template"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"factcheck/internal/dataset"
	"factcheck/internal/fault"
	"factcheck/internal/llm"
	"factcheck/internal/search"
	"factcheck/internal/serve"
)

func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{"-addr", ":9000", "-small", "-scale", "0.05",
		"-queue", "8", "-rate", "10", "-fill=false", "-store", "/tmp/x",
		"-trace-sample", "0.25", "-trace-seed", "t1", "-trace-ring", "64",
		"-pprof", "127.0.0.1:6060", "-fault", "search-err=0.5,search-latency=20ms,search-stall=0.1"})
	if err != nil {
		t.Fatal(err)
	}
	if o.addr != ":9000" || !o.small || o.scale != 0.05 || o.storeDir != "/tmp/x" {
		t.Fatalf("parsed options = %+v", o)
	}
	if o.cfg.QueueDepth != 8 || o.cfg.Rate != 10 || o.cfg.FillCells {
		t.Fatalf("parsed serve config = %+v", o.cfg)
	}
	if o.cfg.TraceSample != 0.25 || o.cfg.TraceSeed != "t1" || o.cfg.TraceRing != 64 ||
		o.pprofAddr != "127.0.0.1:6060" {
		t.Fatalf("parsed observability options = %+v", o)
	}
	if want := (fault.HTTPSpec{FailRate: 0.5, Latency: 20 * time.Millisecond, StallRate: 0.1}); o.faults.Search != want {
		t.Fatalf("parsed search faults = %+v, want %+v", o.faults.Search, want)
	}

	for _, args := range [][]string{
		{"-scale", "0"},
		{"-scale", "-1"},
		{"-scale", "1.5"},
		{"-scale", "NaN"},
		{"-trace-sample", "1.5"},
		{"-trace-sample", "NaN"},
		{"-trace-sample", "-0.1"},
		{"-trace-ring", "-1"},
		{"-consensus", "serial"},
		{"-fault", "search-err=NaN"},
		{"-fault", "search-latency=-1ms"},
		{"positional"},
		{"-nope"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%v) succeeded, want error", args)
		}
	}
}

// daemon builds the composed handler for the flags (on top of the small
// test world) and drains its service when the test ends.
func daemon(t *testing.T, args ...string) (*serve.Service, http.Handler) {
	t.Helper()
	o, err := parseFlags(append([]string{"-small", "-scale", "0.05"}, args...))
	if err != nil {
		t.Fatal(err)
	}
	svc, h, err := buildService(o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Drain)
	return svc, h
}

// do sends one request to h and returns the recorded response.
func do(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
	return w
}

// decode unmarshals a 200 response body into v.
func decode(t *testing.T, w *httptest.ResponseRecorder, v any) {
	t.Helper()
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %.300s", w.Code, w.Body.String())
	}
	if err := json.Unmarshal(w.Body.Bytes(), v); err != nil {
		t.Fatal(err)
	}
}

// firstFact returns the first FactBench fact the daemon lists.
func firstFact(t *testing.T, h http.Handler) string {
	t.Helper()
	var facts struct {
		Datasets map[string][]string `json:"datasets"`
	}
	decode(t, do(h, "GET", "/v1/facts", ""), &facts)
	ids := facts.Datasets[string(dataset.FactBench)]
	if len(ids) == 0 {
		t.Fatal("no FactBench facts listed")
	}
	return ids[0]
}

func stats(t *testing.T, h http.Handler) serve.Stats {
	t.Helper()
	var st serve.Stats
	decode(t, do(h, "GET", "/statsz", ""), &st)
	return st
}

func TestBuildServiceSmoke(t *testing.T) {
	o, err := parseFlags([]string{"-small", "-scale", "0.05", "-fill=false",
		"-store", filepath.Join(t.TempDir(), "store")})
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	svc, h, err := buildService(o, &log)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	if !strings.Contains(log.String(), "cell snapshots loaded") {
		t.Fatalf("store log line missing: %q", log.String())
	}
	if w := do(h, "GET", "/healthz", ""); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"ok"`) {
		t.Fatalf("healthz: %d %s", w.Code, w.Body.String())
	}

	// One end-to-end verdict through the wired service.
	id := firstFact(t, h)
	body, _ := json.Marshal(serve.VerifyRequest{
		Dataset: string(dataset.FactBench), Method: string(llm.MethodDKA),
		Model: llm.Gemma2, FactID: id,
	})
	var resp serve.VerdictResponse
	decode(t, do(h, "POST", "/v1/verify", string(body)), &resp)
	if resp.FactID != id || resp.Source != "computed" {
		t.Fatalf("verdict = %+v", resp)
	}
}

// TestBuildServiceUIPages: the exploration UI shares the daemon's mux at
// the root, next to the API.
func TestBuildServiceUIPages(t *testing.T) {
	_, h := daemon(t, "-fill=false")
	id := firstFact(t, h)
	for _, path := range []string{"/", "/facts?dataset=FactBench", "/fact/" + id, "/errors"} {
		w := do(h, "GET", path, "")
		if w.Code != http.StatusOK || !strings.HasPrefix(w.Header().Get("Content-Type"), "text/html") {
			t.Errorf("GET %s: status %d, type %q: %.200s", path, w.Code, w.Header().Get("Content-Type"), w.Body.String())
		}
	}
	if w := do(h, "GET", "/fact/nope-000001", ""); w.Code != http.StatusNotFound {
		t.Errorf("unknown fact page: status %d, want 404", w.Code)
	}
}

func TestBuildServiceBadStore(t *testing.T) {
	// A store path that is a regular file must fail loudly instead of
	// silently serving without persistence.
	dir := t.TempDir()
	file := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	o, err := parseFlags([]string{"-small", "-scale", "0.05", "-store", file})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := buildService(o, io.Discard); err == nil {
		t.Fatal("buildService succeeded with a file as -store, want error")
	}
}

// TestMockEndToEnd exercises the mock search API mounted under /mock/ over
// real HTTP: the unchanged search.Client pointed at the prefix lists facts,
// queries a SERP and fetches a document, and the error paths keep their
// statuses.
func TestMockEndToEnd(t *testing.T) {
	_, h := daemon(t, "-fill=false")
	srv := httptest.NewServer(h)
	defer srv.Close()

	c := search.NewClient(srv.URL + "/mock")
	ids, err := c.FactIDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) == 0 {
		t.Fatal("no facts listed")
	}
	items, err := c.Search(ids[0], "who founded", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) == 0 {
		t.Fatal("empty SERP")
	}
	doc, err := c.Fetch(items[0].DocID)
	if err != nil {
		t.Fatal(err)
	}
	if doc.DocID != items[0].DocID || doc.Title != items[0].Title {
		t.Fatalf("fetched %+v for SERP item %+v", doc, items[0])
	}

	for path, want := range map[string]int{
		"/mock/healthz":                   http.StatusOK,
		"/mock/stats":                     http.StatusOK,
		"/mock/search?q=x":                http.StatusBadRequest, // no fact_id
		"/mock/search?fact_id=nope-1&q=x": http.StatusNotFound,
		"/mock/document?doc_id=???":       http.StatusBadRequest, // malformed doc id
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestFactPageMatchesVerdictAPI: the UI reads its verdicts through the
// service, so a fact page's row equals the API's verdict for the same
// cell, and rendering the page moves the service's own counters.
func TestFactPageMatchesVerdictAPI(t *testing.T) {
	_, h := daemon(t)
	id := firstFact(t, h)

	before := stats(t, h)
	cold := do(h, "GET", "/fact/"+id, "")
	if cold.Code != http.StatusOK {
		t.Fatalf("fact page: %d", cold.Code)
	}
	mid := stats(t, h)
	if mid.Computed <= before.Computed {
		t.Errorf("cold page: computed %d -> %d, want it to move", before.Computed, mid.Computed)
	}
	if warm := do(h, "GET", "/fact/"+id, ""); warm.Body.String() != cold.Body.String() {
		t.Error("warm page differs from the cold one")
	}
	after := stats(t, h)
	if after.LRUHits <= mid.LRUHits || after.Computed != mid.Computed {
		t.Errorf("warm page: lru_hits %d -> %d, computed %d -> %d; want hits only",
			mid.LRUHits, after.LRUHits, mid.Computed, after.Computed)
	}

	var v serve.VerdictResponse
	decode(t, do(h, "GET", "/v1/verdict/FactBench/DKA/"+llm.Gemma2+"/"+id, ""), &v)
	var reason strings.Builder
	if err := template.Must(template.New("r").Parse("{{.}}")).Execute(&reason, v.Explanation); err != nil {
		t.Fatal(err)
	}
	correct := "✗"
	if v.Correct {
		correct = "✓"
	}
	latency := time.Duration(math.Round(v.LatencyMS * float64(time.Millisecond)))
	row := fmt.Sprintf("<td>%s</td><td>%s</td>\n <td class=\"%s\">%s</td>\n <td>%s</td>\n <td>%.2fs</td><td>%d</td><td>%d</td>\n <td class=\"muted\">%s</td>",
		v.Model, v.Method, v.Verdict, v.Verdict, correct, latency.Seconds(),
		v.PromptTokens+v.CompletionTokens, v.Attempts, reason.String())
	if !strings.Contains(cold.Body.String(), row) {
		t.Errorf("fact page lacks the API's (DKA, %s) verdict row %q", llm.Gemma2, row)
	}
}

// TestIngestVisibleToMockSearch: a document posted to /v1/documents is,
// once folded, in the same process's mock SERP and fetchable from it.
func TestIngestVisibleToMockSearch(t *testing.T) {
	_, h := daemon(t, "-fill=false")
	id := firstFact(t, h)
	const title = "Fresh zanzibar-grade coverage"
	serp := "/mock/search?num=100&q=zanzibar-grade+reporting&fact_id=" + url.QueryEscape(id)
	listed := func() string {
		var resp search.SERPResponse
		decode(t, do(h, "GET", serp, ""), &resp)
		for _, it := range resp.Results {
			if it.Title == title {
				return it.DocID
			}
		}
		return ""
	}
	if doc := listed(); doc != "" {
		t.Fatalf("SERP lists %s before ingestion", doc)
	}

	body, _ := json.Marshal(map[string]any{"documents": []search.IngestDoc{{
		FactID: id, Title: title, Text: "Entirely fresh zanzibar-grade reporting on this fact.",
	}}})
	if w := do(h, "POST", "/v1/documents", string(body)); w.Code != http.StatusAccepted {
		t.Fatalf("ingest: %d %s", w.Code, w.Body.String())
	}
	for deadline := time.Now().Add(30 * time.Second); stats(t, h).IngestApplied < 1; {
		if time.Now().After(deadline) {
			t.Fatal("ingested document never folded")
		}
		time.Sleep(5 * time.Millisecond)
	}

	docID := listed()
	if docID == "" {
		t.Fatal("mock SERP does not list the ingested document")
	}
	var doc search.DocPayload
	decode(t, do(h, "GET", "/mock/document?doc_id="+url.QueryEscape(docID), ""), &doc)
	if doc.Title != title || !strings.Contains(doc.Text, "zanzibar-grade reporting") {
		t.Fatalf("/mock/document = %+v", doc)
	}
}

// TestSearchFaultsOnlyMock: search-err=1 fails every /mock/ request with a
// retryable 500, and leaves the verdict API byte-identical to a fault-free
// daemon's.
func TestSearchFaultsOnlyMock(t *testing.T) {
	_, faulty := daemon(t, "-fill=false", "-fault", "search-err=1", "-fault-seed", "s")
	_, clean := daemon(t, "-fill=false")
	id := firstFact(t, clean)

	for _, path := range []string{"/mock/healthz", "/mock/facts", "/mock/stats",
		"/mock/search?q=x&fact_id=" + id, "/mock/document?doc_id=x"} {
		w := do(faulty, "GET", path, "")
		if w.Code != http.StatusInternalServerError || w.Header().Get("Retry-After") == "" {
			t.Errorf("GET %s under search-err=1: status %d, Retry-After %q; want 500 with Retry-After",
				path, w.Code, w.Header().Get("Retry-After"))
		}
	}
	for _, method := range []llm.Method{llm.MethodDKA, llm.MethodRAG} {
		body, _ := json.Marshal(serve.VerifyRequest{
			Dataset: string(dataset.FactBench), Method: string(method), Model: llm.Gemma2, FactID: id,
		})
		want := do(clean, "POST", "/v1/verify", string(body))
		got := do(faulty, "POST", "/v1/verify", string(body))
		if want.Code != http.StatusOK || got.Code != want.Code || got.Body.String() != want.Body.String() {
			t.Errorf("%s verify under search faults: %d %s, fault-free %d %s",
				method, got.Code, got.Body.String(), want.Code, want.Body.String())
		}
	}
}

// drainRecorder checks each shutdown step against the listener:
// StartDrain must run while the server still accepts connections, Drain
// once Shutdown has closed it.
type drainRecorder struct {
	addr  string
	steps []string
}

func (d *drainRecorder) StartDrain() { d.steps = append(d.steps, "start:"+d.probe()) }
func (d *drainRecorder) Drain()      { d.steps = append(d.steps, "drain:"+d.probe()) }

func (d *drainRecorder) probe() string {
	c, err := net.DialTimeout("tcp", d.addr, time.Second)
	if err != nil {
		return "closed"
	}
	c.Close()
	return "open"
}

// TestRunServer: the daemon serves until the context dies, then starts the
// drain before Shutdown and finishes it after.
func TestRunServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &drainRecorder{addr: ln.Addr().String()}
	var log bytes.Buffer
	done := make(chan error, 1)
	go func() { done <- runServer(ctx, &http.Server{Handler: http.NewServeMux()}, ln, d, &log) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("runServer: %v", err)
	}
	if got := strings.Join(d.steps, " "); got != "start:open drain:closed" {
		t.Fatalf("shutdown steps = %q, want StartDrain while serving, then Drain after Shutdown", got)
	}
	for _, want := range []string{"factcheckd: serving on " + ln.Addr().String(), "factcheckd: draining...", "factcheckd: drained"} {
		if !strings.Contains(log.String(), want) {
			t.Errorf("log missing %q: %q", want, log.String())
		}
	}
}

// TestRunServerCutOff: a request outliving drainTimeout cuts the drain
// off; the service still drains and the log says so.
func TestRunServerCutOff(t *testing.T) {
	defer func(d time.Duration) { drainTimeout = d }(drainTimeout)
	drainTimeout = 50 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	srv := &http.Server{Handler: http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		close(entered)
		<-release
	})}
	defer srv.Close()
	go func() {
		if resp, err := http.Get("http://" + ln.Addr().String()); err == nil {
			resp.Body.Close()
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	d := &drainRecorder{addr: ln.Addr().String()}
	var log bytes.Buffer
	done := make(chan error, 1)
	go func() { done <- runServer(ctx, srv, ln, d, &log) }()
	<-entered
	cancel()
	err = <-done
	close(release)
	if err == nil {
		t.Fatal("runServer returned nil with a request still in flight")
	}
	if len(d.steps) != 2 {
		t.Fatalf("shutdown steps = %q, want StartDrain and Drain", d.steps)
	}
	if !strings.Contains(log.String(), "factcheckd: drain cut off") || strings.Contains(log.String(), "factcheckd: drained") {
		t.Errorf("log = %q, want a cut-off drain", log.String())
	}
}

// TestRunServerListenError: a bind failure is reported, not swallowed.
func TestRunServerListenError(t *testing.T) {
	err := run(context.Background(), []string{"-small", "-scale", "0.05", "-fill=false", "-addr", "256.0.0.1:-1"}, io.Discard)
	if err == nil {
		t.Fatal("run succeeded with an unbindable address")
	}
}
