package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"factcheck/internal/consensus"
	"factcheck/internal/core"
	"factcheck/internal/dataset"
	"factcheck/internal/llm"
	"factcheck/internal/obs"
	"factcheck/internal/search"
	"factcheck/internal/strategy"
)

// freshService builds a service over its own private benchmark: ingestion
// mutates engine state, so these tests must never share testBench.
func freshService(t *testing.T, cfg Config) (*Service, *core.Benchmark) {
	t.Helper()
	b := core.NewBenchmark(core.TestConfig())
	svc := New(b, core.NewMemoryStore(), cfg)
	t.Cleanup(svc.Drain)
	return svc, b
}

func postIngest(t *testing.T, h http.Handler, docs []search.IngestDoc) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(IngestRequest{Documents: docs})
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest("POST", "/v1/documents", bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

// waitApplied blocks until the background builder has folded at least n
// documents (the fold is asynchronous behind the 202).
func waitApplied(t *testing.T, svc *Service, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if svc.Stats().IngestApplied >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("builder folded %d docs, want >= %d", svc.Stats().IngestApplied, n)
}

// TestIngestEndpointContract covers the admission edge of POST
// /v1/documents: empty and unknown-fact batches are refused whole before
// anything is queued, oversized bodies get 413, and a valid batch is
// acknowledged with 202 and folded asynchronously.
func TestIngestEndpointContract(t *testing.T) {
	svc, b := freshService(t, permissive())
	h := svc.Handler()
	f := b.Datasets[dataset.FactBench].Facts[0]

	if w := postIngest(t, h, nil); w.Code != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", w.Code)
	}
	w := postIngest(t, h, []search.IngestDoc{
		{FactID: f.ID, Title: "ok", Text: "fine"},
		{FactID: "nope-000001", Title: "bad", Text: "bad"},
	})
	if w.Code != http.StatusNotFound {
		t.Errorf("unknown fact: status %d, want 404", w.Code)
	}
	if got := b.Engine.FactEpoch(f.ID); got != 0 {
		t.Errorf("refused batch bumped the epoch to %d", got)
	}

	big := httptest.NewRequest("POST", "/v1/documents",
		strings.NewReader(`{"documents":[{"fact_id":"x","title":"t","text":"`+strings.Repeat("x", 1<<20)+`"}]}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, big)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", rec.Code)
	}

	w = postIngest(t, h, []search.IngestDoc{{FactID: f.ID, Title: "Live update", Text: "fresh evidence"}})
	if w.Code != http.StatusAccepted {
		t.Fatalf("valid batch: status %d: %s", w.Code, w.Body.String())
	}
	var resp IngestResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.Queued != 1 {
		t.Fatalf("ingest response %q (err %v), want queued=1", w.Body.String(), err)
	}
	waitApplied(t, svc, 1)
	if got := b.Engine.FactEpoch(f.ID); got != 1 {
		t.Errorf("epoch = %d after fold, want 1", got)
	}
}

// TestIngestInvalidation is the PR's precision claim at the serving layer:
// an epoch bump on fact F forces F's verdict to be recomputed, leaves every
// untouched fact's cached verdict byte-identical, and the recomputed
// verdict matches a cold service that ingested the same documents before
// ever verifying — so warm invalidation converges to the cold rebuild.
func TestIngestInvalidation(t *testing.T) {
	svc, b := freshService(t, permissive())
	h := svc.Handler()
	ds := dataset.FactBench
	fTouched := b.Datasets[ds].Facts[0]
	fUntouched := b.Datasets[ds].Facts[1]
	reqFor := func(f *dataset.Fact) VerifyRequest {
		return VerifyRequest{Dataset: string(ds), Method: string(llm.MethodRAG), Model: llm.Gemma2, FactID: f.ID}
	}
	serve := func(f *dataset.Fact) (string, string) {
		w := postVerify(t, h, reqFor(f))
		if w.Code != http.StatusOK {
			t.Fatalf("fact %s: status %d: %s", f.ID, w.Code, w.Body.String())
		}
		var v VerdictResponse
		if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
			t.Fatal(err)
		}
		source := v.Source
		v.Source = "" // compare verdict content independent of serving layer
		canon, _ := json.Marshal(v)
		return string(canon), source
	}

	// Warm both facts into the verdict LRU.
	serve(fTouched)
	serve(fUntouched)
	_, src := serve(fUntouched)
	if src != "lru" {
		t.Fatalf("untouched fact served from %q before ingest, want lru", src)
	}
	untouchedBefore, _ := serve(fUntouched)

	docs := []search.IngestDoc{
		{FactID: fTouched.ID, Title: "Corroborating record", Text: "Newly surfaced registry entry concerning " + fTouched.Subject.Label},
		{FactID: fTouched.ID, Title: "Archive note", Text: "A second live document about " + fTouched.Subject.Label},
	}
	if w := postIngest(t, h, docs); w.Code != http.StatusAccepted {
		t.Fatalf("ingest status %d: %s", w.Code, w.Body.String())
	}
	waitApplied(t, svc, uint64(len(docs)))
	if st := svc.Stats(); st.IngestSwept == 0 {
		t.Errorf("builder swept no stale verdicts although %s was cached at the old epoch", fTouched.ID)
	}

	touchedAfter, src := serve(fTouched)
	if src != "computed" {
		t.Errorf("touched fact served from %q after its epoch bump, want computed", src)
	}
	untouchedAfter, src := serve(fUntouched)
	if src != "lru" {
		t.Errorf("untouched fact served from %q after ingest, want lru", src)
	}
	if untouchedAfter != untouchedBefore {
		t.Errorf("untouched fact's verdict changed across an unrelated ingest:\nbefore %s\nafter  %s",
			untouchedBefore, untouchedAfter)
	}

	// Cold cross-check: a service that ingested the same documents before
	// serving anything must produce the touched fact's verdict byte-for-byte.
	coldSvc, coldB := freshService(t, permissive())
	if _, err := coldB.Ingest(docs); err != nil {
		t.Fatal(err)
	}
	ch := coldSvc.Handler()
	w := postVerify(t, ch, reqFor(fTouched))
	if w.Code != http.StatusOK {
		t.Fatalf("cold verify: status %d: %s", w.Code, w.Body.String())
	}
	var cv VerdictResponse
	if err := json.Unmarshal(w.Body.Bytes(), &cv); err != nil {
		t.Fatal(err)
	}
	cv.Source = ""
	coldCanon, _ := json.Marshal(cv)
	if string(coldCanon) != touchedAfter {
		t.Errorf("warm-invalidated verdict diverges from cold rebuild:\nwarm %s\ncold %s", touchedAfter, coldCanon)
	}
}

// TestIngestWhileServing races live ingestion against the verify path at
// the HTTP layer; under -race it checks the whole serve -> core -> search
// stack for unsynchronised state.
func TestIngestWhileServing(t *testing.T) {
	svc, b := freshService(t, permissive())
	h := svc.Handler()
	ds := dataset.FactBench
	facts := b.Datasets[ds].Facts
	var wg sync.WaitGroup
	for worker := 0; worker < 4; worker++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				f := facts[(seed+i)%len(facts)]
				req := VerifyRequest{Dataset: string(ds), Method: string(llm.MethodRAG), Model: llm.Gemma2, FactID: f.ID}
				if w := postVerify(t, h, req); w.Code != http.StatusOK {
					t.Errorf("verify %s: status %d", f.ID, w.Code)
					return
				}
			}
		}(worker)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			f := facts[i%len(facts)]
			docs := []search.IngestDoc{{FactID: f.ID, Title: fmt.Sprintf("Live %d", i),
				Text: fmt.Sprintf("streamed update %d about %s", i, f.Subject.Label)}}
			w := postIngest(t, h, docs)
			if w.Code != http.StatusAccepted && w.Code != http.StatusServiceUnavailable {
				t.Errorf("ingest %d: status %d", i, w.Code)
				return
			}
		}
	}()
	wg.Wait()
}

// TestIngestSweepsConsensusVotes: consensus caches DKA votes even when DKA
// is not a configured method, and a fold for the fact sweeps those votes
// too, so the sweep reclaims every slot the fact holds.
func TestIngestSweepsConsensusVotes(t *testing.T) {
	cfg := core.TestConfig()
	cfg.Methods = []llm.Method{llm.MethodRAG}
	b := core.NewBenchmark(cfg)
	svc := New(b, core.NewMemoryStore(), permissive())
	t.Cleanup(svc.Drain)
	svc.verify = func(_ context.Context, cell core.Cell, f *dataset.Fact) (strategy.Outcome, error) {
		return stubOutcome(f), nil
	}
	f := b.Datasets[dataset.FactBench].Facts[0]
	if _, err := svc.Consensus(context.Background(), f.ID, consensus.ModeEager); err != nil {
		t.Fatal(err)
	}
	votes := svc.cache.len()
	if votes != len(svc.voters) {
		t.Fatalf("consensus cached %d votes, want %d", votes, len(svc.voters))
	}
	if w := postIngest(t, svc.Handler(), []search.IngestDoc{{FactID: f.ID, Title: "Live", Text: "fresh"}}); w.Code != http.StatusAccepted {
		t.Fatalf("ingest: status %d: %s", w.Code, w.Body.String())
	}
	waitApplied(t, svc, 1)
	if st := svc.Stats(); st.IngestSwept != uint64(votes) || st.CacheLen != 0 {
		t.Fatalf("after the fold: swept %d, cache len %d; want %d, 0", st.IngestSwept, st.CacheLen, votes)
	}
}

// TestIngestedFactUnavailableAnswers503 pins degraded serving after
// ingestion: the fold sweeps every previous-epoch verdict of a touched
// fact, so once the fact's dependency is unavailable it answers 503 with
// Retry-After, never a 500 and never its pre-ingest verdict.
func TestIngestedFactUnavailableAnswers503(t *testing.T) {
	svc, b := freshService(t, permissive())
	var down atomic.Bool
	svc.verify = func(ctx context.Context, cell core.Cell, f *dataset.Fact) (strategy.Outcome, error) {
		if down.Load() {
			return strategy.Outcome{}, downFault{}
		}
		return b.VerifyFact(ctx, cell, f)
	}
	h := svc.Handler()
	f := b.Datasets[dataset.FactBench].Facts[0]
	req := VerifyRequest{Dataset: string(dataset.FactBench), Method: string(llm.MethodRAG), Model: llm.Gemma2, FactID: f.ID}
	if w := postVerify(t, h, req); w.Code != http.StatusOK {
		t.Fatalf("first verify: status %d (body %s)", w.Code, w.Body.String())
	}
	if w := postIngest(t, h, []search.IngestDoc{{FactID: f.ID, Title: "Live update", Text: "fresh evidence"}}); w.Code != http.StatusAccepted {
		t.Fatalf("ingest: status %d (body %s)", w.Code, w.Body.String())
	}
	waitApplied(t, svc, 1)

	down.Store(true)
	w := postVerify(t, h, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("verify after ingest with the dependency down: status %d, want 503 (body %s)", w.Code, w.Body.String())
	}
	assertRetryAfter(t, w, "unavailable verify after ingest")
	if st := svc.Stats(); st.IngestSwept != 1 || st.Unavailable != 1 || st.Degraded != 0 {
		t.Fatalf("ingest_swept %d unavailable_rejected %d degraded_served %d, want 1, 1, 0", st.IngestSwept, st.Unavailable, st.Degraded)
	}
}

// TestEvidenceCountersExposed checks that /statsz and /metricsz report the
// RAG pipeline's cached evidence: served verifications leave bounded
// entries, warmed facts pinned ones, and ingestion drops a touched fact's.
func TestEvidenceCountersExposed(t *testing.T) {
	svc, b := freshService(t, permissive())
	h := svc.Handler()
	facts := b.Datasets[dataset.FactBench].Facts
	for _, f := range facts[:3] {
		req := VerifyRequest{Dataset: string(dataset.FactBench), Method: string(llm.MethodRAG), Model: llm.Gemma2, FactID: f.ID}
		if w := postVerify(t, h, req); w.Code != http.StatusOK {
			t.Fatalf("verify %s: status %d (body %s)", f.ID, w.Code, w.Body.String())
		}
	}
	for _, f := range facts[3:5] {
		if err := b.Pipeline.Warm(f); err != nil {
			t.Fatal(err)
		}
	}
	if w := postIngest(t, h, []search.IngestDoc{{FactID: facts[0].ID, Title: "Live update", Text: "fresh evidence"}}); w.Code != http.StatusAccepted {
		t.Fatalf("ingest: status %d", w.Code)
	}
	waitApplied(t, svc, 1)

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/statsz", nil))
	var st Stats
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Evidence.Cached != 4 || st.Evidence.Pinned != 2 || st.Evidence.Bounded != 2 || st.Evidence.Evicted != 0 {
		t.Fatalf("/statsz evidence = %+v, want 4 cached, 2 pinned, 2 bounded, 0 evicted", st.Evidence)
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/metricsz", nil))
	body := w.Body.String()
	if err := obs.Lint(strings.NewReader(body)); err != nil {
		t.Fatalf("exposition fails lint: %v", err)
	}
	for _, want := range []string{
		`factcheck_evidence_cached_facts{lifetime="pinned"} 2` + "\n",
		`factcheck_evidence_cached_facts{lifetime="bounded"} 2` + "\n",
		`factcheck_evidence_cached_facts{lifetime="in_flight"} 0` + "\n",
		"factcheck_evidence_evicted_total 0\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
