package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"factcheck/internal/consensus"
	"factcheck/internal/core"
	"factcheck/internal/dataset"
	"factcheck/internal/llm"
	"factcheck/internal/search"
	"factcheck/internal/strategy"
)

// testBench builds one small benchmark shared by every test in the package
// (the instance is immutable once built; each test gets its own Service
// and store).
var testBench = sync.OnceValue(func() *core.Benchmark {
	return core.NewBenchmark(core.TestConfig())
})

// permissive is a config that keeps the backpressure layers out of the way
// for tests that target other layers.
func permissive() Config {
	return Config{Rate: 1e9, Burst: 1e9, QueueDepth: 256, Workers: 4}
}

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	return New(testBench(), core.NewMemoryStore(), cfg)
}

func postVerify(t *testing.T, h http.Handler, req VerifyRequest) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest("POST", "/v1/verify", bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

func firstFact(dn dataset.Name) *dataset.Fact {
	return testBench().Datasets[dn].Facts[0]
}

// stubOutcome fabricates a deterministic outcome for a fact, the same in
// every cell.
func stubOutcome(f *dataset.Fact) strategy.Outcome {
	return strategy.Outcome{
		FactID: f.ID, Verdict: strategy.True, Gold: f.Gold, Correct: f.Gold,
		Latency: 100 * time.Millisecond, Attempts: 1,
	}
}

// TestCoalescing: N concurrent identical requests must trigger exactly one
// verifier call, with every response identical.
func TestCoalescing(t *testing.T) {
	svc := newTestService(t, permissive())
	defer svc.Drain()
	f := firstFact(dataset.FactBench)
	var calls atomic.Int32
	release := make(chan struct{})
	svc.verify = func(_ context.Context, cell core.Cell, f *dataset.Fact) (strategy.Outcome, error) {
		calls.Add(1)
		<-release
		return stubOutcome(f), nil
	}
	h := svc.Handler()
	req := VerifyRequest{Dataset: string(dataset.FactBench), Method: string(llm.MethodDKA), Model: llm.Gemma2, FactID: f.ID}

	const n = 16
	var wg sync.WaitGroup
	bodies := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := postVerify(t, h, req)
			if w.Code != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, w.Code, w.Body.String())
				return
			}
			bodies[i] = w.Body.String()
		}(i)
	}
	// Let every request reach the singleflight layer while the leader's
	// verification is still pending, then release it.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("verifier called %d times for %d identical concurrent requests, want 1", got, n)
	}
	for i := 1; i < n; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("response %d differs from response 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	if st := svc.Stats(); st.Coalesced == 0 {
		t.Fatalf("coalesced counter = 0, want > 0 (stats %+v)", st)
	}
}

// TestCoalescedFollowerSurvivesLeaderCancel: when the singleflight
// leader's own request context dies mid-verification, a follower with a
// live context must retry (becoming the new leader) instead of inheriting
// the leader's context error as a 500.
func TestCoalescedFollowerSurvivesLeaderCancel(t *testing.T) {
	svc := newTestService(t, permissive())
	defer svc.Drain()
	f := firstFact(dataset.FactBench)
	cell := core.Cell{Dataset: dataset.FactBench, Method: llm.MethodDKA, Model: llm.Gemma2}

	var calls atomic.Int32
	leaderIn := make(chan struct{})
	svc.verify = func(ctx context.Context, cell core.Cell, f *dataset.Fact) (strategy.Outcome, error) {
		if calls.Add(1) == 1 {
			close(leaderIn)
			<-ctx.Done() // the leader's client disconnects
			return strategy.Outcome{}, ctx.Err()
		}
		return stubOutcome(f), nil
	}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := svc.verdict(leaderCtx, cell, f, 0)
		leaderErr <- err
	}()
	<-leaderIn

	followerRes := make(chan error, 1)
	go func() {
		out, _, err := svc.verdict(context.Background(), cell, f, 0)
		if err == nil && out.FactID != f.ID {
			err = fmt.Errorf("wrong outcome %+v", out)
		}
		followerRes <- err
	}()
	// Give the follower time to join the in-flight call, then kill the
	// leader's request.
	time.Sleep(20 * time.Millisecond)
	cancelLeader()

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader error = %v, want context.Canceled", err)
	}
	if err := <-followerRes; err != nil {
		t.Fatalf("follower inherited the leader's cancellation: %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("verifier called %d times, want 2 (cancelled leader + retrying follower)", got)
	}
}

// TestQueueFullBackpressure: with one admission slot occupied, the next
// request is rejected immediately with 503 + Retry-After.
func TestQueueFullBackpressure(t *testing.T) {
	cfg := permissive()
	cfg.QueueDepth = 1
	cfg.Workers = 1
	svc := newTestService(t, cfg)
	defer svc.Drain()
	entered := make(chan struct{})
	release := make(chan struct{})
	svc.verify = func(_ context.Context, cell core.Cell, f *dataset.Fact) (strategy.Outcome, error) {
		close(entered)
		<-release
		return stubOutcome(f), nil
	}
	h := svc.Handler()
	f := firstFact(dataset.FactBench)
	req := VerifyRequest{Dataset: string(dataset.FactBench), Method: string(llm.MethodDKA), Model: llm.Gemma2, FactID: f.ID}

	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- postVerify(t, h, req) }()
	<-entered // the only queue slot is now held

	w := postVerify(t, h, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d with full queue, want 503 (body %s)", w.Code, w.Body.String())
	}
	if ra := w.Header().Get("Retry-After"); ra == "" {
		t.Fatal("503 response missing Retry-After header")
	}
	close(release)
	if w := <-done; w.Code != http.StatusOK {
		t.Fatalf("admitted request failed: %d %s", w.Code, w.Body.String())
	}
	if st := svc.Stats(); st.QueueRejected != 1 {
		t.Fatalf("queue_rejected = %d, want 1", st.QueueRejected)
	}
}

// TestRateLimit: a client that exhausts its burst gets 429 + Retry-After;
// an independent client is unaffected.
func TestRateLimit(t *testing.T) {
	cfg := permissive()
	cfg.Rate = 0.5
	cfg.Burst = 2
	svc := newTestService(t, cfg)
	defer svc.Drain()
	svc.verify = func(_ context.Context, cell core.Cell, f *dataset.Fact) (strategy.Outcome, error) {
		return stubOutcome(f), nil
	}
	h := svc.Handler()
	f := firstFact(dataset.FactBench)
	body, _ := json.Marshal(VerifyRequest{Dataset: string(dataset.FactBench), Method: string(llm.MethodDKA), Model: llm.Gemma2, FactID: f.ID})

	do := func(client string) *httptest.ResponseRecorder {
		r := httptest.NewRequest("POST", "/v1/verify", bytes.NewReader(body))
		r.Header.Set("X-Client-ID", client)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		return w
	}
	for i := 0; i < 2; i++ {
		if w := do("alice"); w.Code != http.StatusOK {
			t.Fatalf("request %d within burst: status %d", i, w.Code)
		}
	}
	w := do("alice")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d past burst, want 429", w.Code)
	}
	if ra := w.Header().Get("Retry-After"); ra == "" {
		t.Fatal("429 response missing Retry-After header")
	}
	if w := do("bob"); w.Code != http.StatusOK {
		t.Fatalf("independent client rate-limited: status %d", w.Code)
	}
	if st := svc.Stats(); st.RateLimited != 1 {
		t.Fatalf("rate_limited = %d, want 1", st.RateLimited)
	}
}

// TestBatchAndConsensusRateCharge: the token bucket charges per
// verification, so a k-item batch (or k-model consensus) costs k tokens —
// batching must not multiply a client's effective rate.
func TestBatchAndConsensusRateCharge(t *testing.T) {
	cfg := permissive()
	cfg.Rate = 0.001 // effectively no refill within the test
	cfg.Burst = 4
	svc := newTestService(t, cfg)
	defer svc.Drain()
	svc.verify = func(_ context.Context, cell core.Cell, f *dataset.Fact) (strategy.Outcome, error) {
		return stubOutcome(f), nil
	}
	h := svc.Handler()
	f := firstFact(dataset.FactBench)
	one := VerifyRequest{Dataset: string(dataset.FactBench), Method: string(llm.MethodDKA), Model: llm.Gemma2, FactID: f.ID}

	do := func(client, path string, v any) *httptest.ResponseRecorder {
		body, _ := json.Marshal(v)
		r := httptest.NewRequest("POST", path, bytes.NewReader(body))
		r.Header.Set("X-Client-ID", client)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		return w
	}
	// Batch of 3 costs 3 of alice's 4 tokens, one single costs the 4th,
	// the next single is throttled.
	if w := do("alice", "/v1/verify/batch", BatchRequest{Requests: []VerifyRequest{one, one, one}}); w.Code != http.StatusOK {
		t.Fatalf("batch within burst: %d %s", w.Code, w.Body.String())
	}
	if w := do("alice", "/v1/verify", one); w.Code != http.StatusOK {
		t.Fatalf("single on last token: %d", w.Code)
	}
	if w := do("alice", "/v1/verify", one); w.Code != http.StatusTooManyRequests {
		t.Fatalf("single past burst: %d, want 429", w.Code)
	}

	// A batch larger than the burst can never be served: 400, not an
	// eternal 429.
	big := BatchRequest{Requests: []VerifyRequest{one, one, one, one, one}}
	w := do("bob", "/v1/verify/batch", big)
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "burst capacity") {
		t.Fatalf("burst-exceeding batch: %d %s, want 400 burst-capacity error", w.Code, w.Body.String())
	}

	// Consensus fans out to the 4 open-source models: exactly carol's
	// burst, so one succeeds and the second is throttled.
	get := func(client string) *httptest.ResponseRecorder {
		r := httptest.NewRequest("GET", "/v1/consensus/"+f.ID, nil)
		r.Header.Set("X-Client-ID", client)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		return w
	}
	if w := get("carol"); w.Code != http.StatusOK {
		t.Fatalf("consensus within burst: %d %s", w.Code, w.Body.String())
	}
	if w := get("carol"); w.Code != http.StatusTooManyRequests {
		t.Fatalf("second consensus: %d, want 429", w.Code)
	}
}

// TestDrainCompletesInFlight: Drain must wait for a verification already
// picked up by the executor, and for background cell fills, before
// returning.
func TestDrainCompletesInFlight(t *testing.T) {
	cfg := permissive()
	svc := newTestService(t, cfg)
	entered := make(chan struct{})
	release := make(chan struct{})
	var finished atomic.Bool
	svc.verify = func(_ context.Context, cell core.Cell, f *dataset.Fact) (strategy.Outcome, error) {
		close(entered)
		<-release
		finished.Store(true)
		return stubOutcome(f), nil
	}
	f := firstFact(dataset.FactBench)
	cell := core.Cell{Dataset: dataset.FactBench, Method: llm.MethodDKA, Model: llm.Gemma2}
	resErr := make(chan error, 1)
	go func() {
		_, _, err := svc.verdict(context.Background(), cell, f, 0)
		resErr <- err
	}()
	<-entered
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(release)
	}()
	svc.Drain()
	if !finished.Load() {
		t.Fatal("Drain returned before the in-flight verification finished")
	}
	if err := <-resErr; err != nil {
		t.Fatalf("in-flight verification failed during drain: %v", err)
	}
}

// TestFillPersistsCell: one on-demand verdict triggers a whole-cell fill
// that persists the snapshot; Drain waits for it.
func TestFillPersistsCell(t *testing.T) {
	cfg := permissive()
	cfg.FillCells = true
	store := core.NewMemoryStore()
	svc := New(testBench(), store, cfg)
	var calls atomic.Int32
	svc.verify = func(_ context.Context, cell core.Cell, f *dataset.Fact) (strategy.Outcome, error) {
		calls.Add(1)
		return stubOutcome(f), nil
	}
	f := firstFact(dataset.FactBench)
	req := VerifyRequest{Dataset: string(dataset.FactBench), Method: string(llm.MethodDKA), Model: llm.Gemma2, FactID: f.ID}
	if w := postVerify(t, svc.Handler(), req); w.Code != http.StatusOK {
		t.Fatalf("verify: %d %s", w.Code, w.Body.String())
	}
	svc.filler.Wait() // let the scheduled fill run (Drain would discard a queued one)
	svc.Drain()
	if store.Len() != 1 {
		t.Fatalf("store has %d cells after fill, want 1", store.Len())
	}
	nFacts := len(testBench().Datasets[dataset.FactBench].Facts)
	// The fill reuses the one verdict already in the LRU.
	if got := int(calls.Load()); got != nFacts {
		t.Fatalf("verifier called %d times, want %d (cell size, initial verdict reused)", got, nFacts)
	}
	if st := svc.Stats(); st.CellFills != 1 {
		t.Fatalf("cell_fills = %d, want 1", st.CellFills)
	}
}

// poolCounter is the engine as a search.PoolSearcher (so retrieval keeps
// its by-reference path) that counts retrievals: the RAG pipeline takes
// one pool handle per retrieval.
type poolCounter struct {
	*search.Engine
	n atomic.Int64
}

func (p *poolCounter) Pool(factID string) (search.Pool, error) {
	p.n.Add(1)
	return p.Engine.Pool(factID)
}

// TestFillBatchRetrievesEachFactOnce: a fill of two RAG cells on a dataset
// larger than the pipeline's bounded evidence cache retrieves each fact
// once for both models, and persists both cells with RunCell's outcomes.
func TestFillBatchRetrievesEachFactOnce(t *testing.T) {
	b := core.NewBenchmark(core.Config{Scale: 1, Small: true, Parallelism: 2, Datasets: []dataset.Name{dataset.FactBench}})
	pc := &poolCounter{Engine: b.Engine}
	b.Pipeline.Searcher = pc
	facts := b.Datasets[dataset.FactBench].Facts
	if len(facts) <= search.MaxCachedFacts {
		t.Fatalf("%d facts do not exceed the evidence bound %d", len(facts), search.MaxCachedFacts)
	}
	store := core.NewMemoryStore()
	svc := New(b, store, permissive())
	defer svc.Drain()
	cells := []core.Cell{
		{Dataset: dataset.FactBench, Method: llm.MethodRAG, Model: llm.Gemma2},
		{Dataset: dataset.FactBench, Method: llm.MethodRAG, Model: llm.Mistral},
	}
	if err := svc.fillCells(cells); err != nil {
		t.Fatal(err)
	}
	if n := pc.n.Load(); n != int64(len(facts)) {
		t.Fatalf("filling two RAG cells of %d facts made %d retrievals, want %d", len(facts), n, len(facts))
	}
	if st := svc.Stats(); st.CellFills != 2 {
		t.Fatalf("cell_fills = %d, want 2", st.CellFills)
	}
	for _, c := range cells {
		got, ok := store.Get(b.CellKey(c).Fingerprint())
		if !ok {
			t.Fatalf("%s: no snapshot stored", c.Model)
		}
		want, err := b.RunCell(context.Background(), c.Dataset, c.Method, c.Model)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: filled outcomes differ from RunCell's", c.Model)
		}
	}
}

// TestVerifyGolden: POST /v1/verify responses must be byte-identical to
// the corresponding grid-cell outcome from RunCell, for every fact of the
// cell — and identical again when served from a store snapshot or the LRU
// (only the source field may differ).
func TestVerifyGolden(t *testing.T) {
	b := testBench()
	cell := core.Cell{Dataset: dataset.FactBench, Method: llm.MethodDKA, Model: llm.Gemma2}
	outs, err := b.RunCell(context.Background(), cell.Dataset, cell.Method, cell.Model)
	if err != nil {
		t.Fatal(err)
	}
	svc := newTestService(t, permissive())
	defer svc.Drain()
	h := svc.Handler()
	facts := b.Datasets[cell.Dataset].Facts

	encode := func(v any) string {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	for i, f := range facts {
		req := VerifyRequest{Dataset: string(cell.Dataset), Method: string(cell.Method), Model: cell.Model, FactID: f.ID}
		w := postVerify(t, h, req)
		if w.Code != http.StatusOK {
			t.Fatalf("fact %s: status %d: %s", f.ID, w.Code, w.Body.String())
		}
		want := encode(verdictResponse(cell, outs[i], "computed"))
		if got := w.Body.String(); got != want {
			t.Fatalf("fact %s: served verdict differs from RunCell outcome:\ngot  %swant %s", f.ID, got, want)
		}
		// Second request: LRU hit, byte-identical modulo source.
		w2 := postVerify(t, h, req)
		want2 := encode(verdictResponse(cell, outs[i], "lru"))
		if got := w2.Body.String(); got != want2 {
			t.Fatalf("fact %s: LRU verdict differs:\ngot  %swant %s", f.ID, got, want2)
		}
	}

	// A store-warm service serves the same bytes from the snapshot.
	store := core.NewMemoryStore()
	if err := store.Put(b.CellKey(cell).Fingerprint(), outs); err != nil {
		t.Fatal(err)
	}
	warm := New(b, store, permissive())
	defer warm.Drain()
	wh := warm.Handler()
	for i, f := range facts {
		path := fmt.Sprintf("/v1/verdict/%s/%s/%s/%s", cell.Dataset, cell.Method, cell.Model, f.ID)
		w := httptest.NewRecorder()
		wh.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, w.Code, w.Body.String())
		}
		// The first store hit hydrates the whole cell into the LRU, so
		// later facts answer from it; the bytes must match either way.
		source := "lru"
		if i == 0 {
			source = "store"
		}
		want := encode(verdictResponse(cell, outs[i], source))
		if got := w.Body.String(); got != want {
			t.Fatalf("fact %s: store verdict differs:\ngot  %swant %s", f.ID, got, want)
		}
	}
}

// TestVerdictLookupDoesNotCompute: GET /v1/verdict on a cold service is a
// 404, never a verification.
func TestVerdictLookupDoesNotCompute(t *testing.T) {
	svc := newTestService(t, permissive())
	defer svc.Drain()
	var calls atomic.Int32
	svc.verify = func(_ context.Context, cell core.Cell, f *dataset.Fact) (strategy.Outcome, error) {
		calls.Add(1)
		return stubOutcome(f), nil
	}
	f := firstFact(dataset.FactBench)
	path := fmt.Sprintf("/v1/verdict/%s/%s/%s/%s", dataset.FactBench, llm.MethodDKA, llm.Gemma2, f.ID)
	w := httptest.NewRecorder()
	svc.Handler().ServeHTTP(w, httptest.NewRequest("GET", path, nil))
	if w.Code != http.StatusNotFound {
		t.Fatalf("status %d on cold lookup, want 404", w.Code)
	}
	if calls.Load() != 0 {
		t.Fatal("read-only verdict lookup triggered a verification")
	}
}

// TestBatch covers the batch endpoint: mixed valid/invalid items, order
// preservation, and the size cap.
func TestBatch(t *testing.T) {
	svc := newTestService(t, permissive())
	defer svc.Drain()
	svc.verify = func(_ context.Context, cell core.Cell, f *dataset.Fact) (strategy.Outcome, error) {
		return stubOutcome(f), nil
	}
	h := svc.Handler()
	f := firstFact(dataset.FactBench)
	g := firstFact(dataset.YAGO)

	post := func(v any) *httptest.ResponseRecorder {
		body, _ := json.Marshal(v)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/verify/batch", bytes.NewReader(body)))
		return w
	}
	w := post(BatchRequest{Requests: []VerifyRequest{
		{Dataset: string(dataset.FactBench), Method: string(llm.MethodDKA), Model: llm.Gemma2, FactID: f.ID},
		{Dataset: "Nope", Method: string(llm.MethodDKA), Model: llm.Gemma2, FactID: f.ID},
		{Dataset: string(dataset.YAGO), Method: string(llm.MethodGIVZ), Model: llm.Qwen25, FactID: g.ID},
	}})
	if w.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", w.Code, w.Body.String())
	}
	var resp BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("%d results, want 3", len(resp.Results))
	}
	if resp.Results[0].Verdict == nil || resp.Results[0].Verdict.FactID != f.ID {
		t.Fatalf("result 0 = %+v, want verdict for %s", resp.Results[0], f.ID)
	}
	if resp.Results[1].Error == "" || !strings.Contains(resp.Results[1].Error, "unknown dataset") {
		t.Fatalf("result 1 error = %q, want unknown-dataset error", resp.Results[1].Error)
	}
	if resp.Results[2].Verdict == nil || resp.Results[2].Verdict.Method != string(llm.MethodGIVZ) {
		t.Fatalf("result 2 = %+v, want GIV-Z verdict", resp.Results[2])
	}

	if w := post(BatchRequest{}); w.Code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", w.Code)
	}
	big := BatchRequest{Requests: make([]VerifyRequest, 65)}
	if w := post(big); w.Code != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d, want 400", w.Code)
	}
}

// getConsensus issues GET /v1/consensus/{fact} with an optional ?mode= and
// decodes the response.
func getConsensus(t *testing.T, h http.Handler, factID, mode string) (*ConsensusResponse, *httptest.ResponseRecorder) {
	t.Helper()
	url := "/v1/consensus/" + factID
	if mode != "" {
		url += "?mode=" + mode
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", url, nil))
	if w.Code != http.StatusOK {
		return nil, w
	}
	var resp ConsensusResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return &resp, w
}

// TestConsensusEndpoint: in every mode the served verdict must match
// consensus.Majority over the open-source models' RunCell verdicts, with
// each vote attributed to the model that cast it. Only the execution shape
// (votes consulted, skip set) may differ between modes.
func TestConsensusEndpoint(t *testing.T) {
	b := testBench()
	f := firstFact(dataset.FactBench)
	want := map[string]strategy.Verdict{}
	var votes []consensus.Vote
	for _, model := range b.Config.Models {
		if model == llm.GPT4oMini {
			continue
		}
		outs, err := b.RunCell(context.Background(), dataset.FactBench, llm.MethodDKA, model)
		if err != nil {
			t.Fatal(err)
		}
		want[model] = outs[0].Verdict
		votes = append(votes, consensus.Vote{Model: model, Verdict: outs[0].Verdict})
	}
	wantFinal, wantTie := consensus.Majority(votes)

	svc := newTestService(t, permissive())
	defer svc.Drain()
	h := svc.Handler()
	planOrder := svc.plan.Order

	for _, mode := range []string{"eager", "adaptive"} {
		resp, w := getConsensus(t, h, f.ID, mode)
		if resp == nil {
			t.Fatalf("%s: %d %s", mode, w.Code, w.Body.String())
		}
		if resp.Mode != mode {
			t.Fatalf("mode tag %q, want %q", resp.Mode, mode)
		}
		// The verdict is mode-independent.
		if resp.Final != wantFinal || resp.Tie != wantTie {
			t.Fatalf("%s: final=%v tie=%v, want final=%v tie=%v", mode, resp.Final, resp.Tie, wantFinal, wantTie)
		}
		// Every vote is the model's own RunCell verdict, in plan order.
		for i, v := range resp.Votes {
			if v.Model != planOrder[i] {
				t.Fatalf("%s: vote %d from %s, want plan order %v", mode, i, v.Model, planOrder)
			}
			if v.Verdict != want[v.Model].String() {
				t.Fatalf("%s: vote %s = %s, want %s", mode, v.Model, v.Verdict, want[v.Model])
			}
		}
		switch mode {
		case "eager":
			if len(resp.Votes) != len(planOrder) || len(resp.Skipped) != 0 {
				t.Fatalf("%s: %d votes, %d skipped; want full ensemble", mode, len(resp.Votes), len(resp.Skipped))
			}
		case "adaptive":
			// Votes + Skipped partition the plan exactly.
			all := append([]string{}, resp.Skipped...)
			for i, v := range resp.Votes {
				if v.Model != planOrder[i] {
					t.Fatalf("adaptive: dispatched %s at %d", v.Model, i)
				}
			}
			if len(resp.Votes)+len(all) != len(planOrder) {
				t.Fatalf("adaptive: %d votes + %d skipped != %d plan", len(resp.Votes), len(all), len(planOrder))
			}
			for i, m := range resp.Skipped {
				if m != planOrder[len(resp.Votes)+i] {
					t.Fatalf("adaptive: skipped %v not the plan tail of %v", resp.Skipped, planOrder)
				}
			}
		}
	}

	// No ?mode= serves the configured default (adaptive).
	resp, w := getConsensus(t, h, f.ID, "")
	if resp == nil {
		t.Fatalf("default mode: %d %s", w.Code, w.Body.String())
	}
	if resp.Mode != string(consensus.ModeAdaptive) {
		t.Fatalf("default mode = %q, want adaptive", resp.Mode)
	}
	// An unknown or retired mode is a 400, before any charging or
	// verification, naming the modes that remain.
	for _, mode := range []string{"bogus", "serial"} {
		_, w := getConsensus(t, h, f.ID, mode)
		if body := w.Body.String(); w.Code != http.StatusBadRequest ||
			!strings.Contains(body, "eager") || !strings.Contains(body, "adaptive") {
			t.Fatalf("?mode=%s: %d %s, want 400 naming eager and adaptive", mode, w.Code, body)
		}
	}
}

// TestConsensusModesAgree is the serving-layer differential gate: for every
// fact of every dataset, eager and adaptive must agree on Final and Tie
// with the serial reference loop; adaptive must skip voters on a majority
// of the unanimous facts.
func TestConsensusModesAgree(t *testing.T) {
	svc := newTestService(t, permissive())
	defer svc.Drain()
	ctx := context.Background()

	unanimous, unanimousSkipped, skippedFacts, facts := 0, 0, 0, 0
	for _, dn := range testBench().Config.Datasets {
		for _, f := range testBench().Datasets[dn].Facts {
			facts++
			eager, err := svc.Consensus(ctx, f.ID, consensus.ModeEager)
			if err != nil {
				t.Fatal(err)
			}
			adaptive, err := svc.Consensus(ctx, f.ID, consensus.ModeAdaptive)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := serialConsensus(ctx, svc, f.ID)
			if err != nil {
				t.Fatal(err)
			}
			for _, got := range []*ConsensusResponse{eager, adaptive} {
				if got.Final != serial.Final || got.Tie != serial.Tie {
					t.Fatalf("%s: %s (final %v tie %v) != serial (final %v tie %v)",
						f.ID, got.Mode, got.Final, got.Tie, serial.Final, serial.Tie)
				}
			}
			if !reflect.DeepEqual(eager.Votes, serial.Votes) {
				t.Fatalf("%s: eager votes %v != serial votes %v", f.ID, eager.Votes, serial.Votes)
			}
			if len(adaptive.Skipped) > 0 {
				skippedFacts++
			}
			agree := true
			for _, v := range eager.Votes {
				if v.Verdict != eager.Votes[0].Verdict {
					agree = false
					break
				}
			}
			if agree {
				unanimous++
				if len(adaptive.Skipped) > 0 {
					unanimousSkipped++
				}
			}
		}
	}
	if unanimous == 0 {
		t.Fatal("no unanimous facts; the differential gate is vacuous")
	}
	if unanimousSkipped*2 <= unanimous {
		t.Fatalf("adaptive skipped votes on %d of %d unanimous facts, want a majority", unanimousSkipped, unanimous)
	}
	t.Logf("%d facts: %d unanimous, %d with skipped votes", facts, unanimous, skippedFacts)
}

// TestConsensusCoalesces: N concurrent adaptive consensus requests for the
// same fact must coalesce per (cell, fact) — the quorum models are each
// verified exactly once, and the escalation voter not at all when the
// quorum is unanimous. Run under -race this also exercises the engine's
// fan-out goroutines against the singleflight layer.
func TestConsensusCoalesces(t *testing.T) {
	svc := newTestService(t, permissive())
	defer svc.Drain()
	f := firstFact(dataset.FactBench)

	var mu sync.Mutex
	calls := map[string]int{}
	release := make(chan struct{})
	svc.verify = func(_ context.Context, cell core.Cell, f *dataset.Fact) (strategy.Outcome, error) {
		mu.Lock()
		calls[cell.Model]++
		mu.Unlock()
		<-release
		return stubOutcome(f), nil // every model votes true: unanimous quorum
	}
	h := svc.Handler()

	const n = 8
	var wg sync.WaitGroup
	bodies := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/consensus/"+f.ID, nil))
			if w.Code != http.StatusOK {
				t.Errorf("request %d: %d %s", i, w.Code, w.Body.String())
				return
			}
			bodies[i] = w.Body.String()
		}(i)
	}
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	quorum := svc.plan.Tiers[0]
	escalation := svc.plan.Order[len(quorum):]
	mu.Lock()
	defer mu.Unlock()
	for _, m := range quorum {
		if calls[m] != 1 {
			t.Errorf("quorum model %s verified %d times across %d concurrent requests, want 1", m, calls[m], n)
		}
	}
	for _, m := range escalation {
		if calls[m] != 0 {
			t.Errorf("escalation model %s verified %d times on a unanimous quorum, want 0", m, calls[m])
		}
	}
	for i := 1; i < n; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("response %d differs from response 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
}

// TestConsensusSkipSetParallelismInvariant: the adaptive skip set (and the
// whole response) must be byte-identical whether the service runs its
// executor with 1 worker or 8 — decisions are taken at tier boundaries
// only, never on dispatch-completion order.
func TestConsensusSkipSetParallelismInvariant(t *testing.T) {
	responses := func(workers int) []string {
		cfg := permissive()
		cfg.Workers = workers
		svc := newTestService(t, cfg)
		defer svc.Drain()
		h := svc.Handler()
		var out []string
		for _, dn := range testBench().Config.Datasets {
			for _, f := range testBench().Datasets[dn].Facts {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/consensus/"+f.ID+"?mode=adaptive", nil))
				if w.Code != http.StatusOK {
					t.Fatalf("%s: %d %s", f.ID, w.Code, w.Body.String())
				}
				out = append(out, w.Body.String())
			}
		}
		return out
	}
	par1 := responses(1)
	par8 := responses(8)
	for i := range par1 {
		if par1[i] != par8[i] {
			t.Fatalf("response %d differs between 1 and 8 workers:\n%s\nvs\n%s", i, par1[i], par8[i])
		}
	}
}

// TestConsensusNoVotersRejectedBeforeCharge: a service whose model set has
// no open-source voters answers 422 before debiting any rate-limit token
// beyond the admission charge — the failed consensus request must not eat
// into the client's budget for requests the server can serve.
func TestConsensusNoVotersRejectedBeforeCharge(t *testing.T) {
	cfg := core.TestConfig()
	cfg.Models = []string{llm.GPT4oMini} // arbiter-only: no voters
	b := core.NewBenchmark(cfg)
	scfg := permissive()
	scfg.Rate = 0.001
	scfg.Burst = 2
	svc := New(b, core.NewMemoryStore(), scfg)
	defer svc.Drain()
	svc.verify = func(_ context.Context, cell core.Cell, f *dataset.Fact) (strategy.Outcome, error) {
		return stubOutcome(f), nil
	}
	h := svc.Handler()
	f := b.Datasets[dataset.FactBench].Facts[0]

	w := httptest.NewRecorder()
	r := httptest.NewRequest("GET", "/v1/consensus/"+f.ID, nil)
	r.Header.Set("X-Client-ID", "dave")
	h.ServeHTTP(w, r)
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("voterless consensus: %d %s, want 422", w.Code, w.Body.String())
	}
	// Only the admission token was spent: a second request still fits the
	// burst of 2. Had handleConsensus charged before validating, the
	// client would be throttled here.
	req := VerifyRequest{Dataset: string(dataset.FactBench), Method: string(llm.MethodDKA), Model: llm.GPT4oMini, FactID: f.ID}
	body, _ := json.Marshal(req)
	w = httptest.NewRecorder()
	r = httptest.NewRequest("POST", "/v1/verify", bytes.NewReader(body))
	r.Header.Set("X-Client-ID", "dave")
	h.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("verify after failed consensus: %d %s, want 200 (token not double-charged)", w.Code, w.Body.String())
	}
}

// TestConsensusStatszCounters: the /statsz consensus counters must account
// for exactly the votes the planner dispatched, skipped and escalated.
func TestConsensusStatszCounters(t *testing.T) {
	verdicts := map[string]strategy.Verdict{}
	svc := newTestService(t, permissive())
	defer svc.Drain()
	svc.verify = func(_ context.Context, cell core.Cell, f *dataset.Fact) (strategy.Outcome, error) {
		out := stubOutcome(f)
		out.Verdict = verdicts[cell.Model]
		return out, nil
	}
	h := svc.Handler()
	statsz := func() Stats {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", "/statsz", nil))
		var st Stats
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	// A unanimous quorum: 3 dispatched, 1 skipped, no escalation.
	for _, m := range svc.plan.Order {
		verdicts[m] = strategy.True
	}
	f := firstFact(dataset.FactBench)
	if resp, w := getConsensus(t, h, f.ID, "adaptive"); resp == nil {
		t.Fatalf("consensus: %d %s", w.Code, w.Body.String())
	}
	st := statsz()
	if st.ConsensusRequests != 1 || st.ConsensusDispatched != 3 || st.ConsensusSkipped != 1 || st.ConsensusEscalations != 0 {
		t.Fatalf("after unanimous quorum: %+v, want 1 request, 3 dispatched, 1 skipped, 0 escalations", st)
	}

	// A split quorum on a second fact: all 4 dispatched, one escalation.
	quorum := svc.plan.Tiers[0]
	verdicts[quorum[0]] = strategy.True
	verdicts[quorum[1]] = strategy.False
	verdicts[quorum[2]] = strategy.False
	verdicts[svc.plan.Order[3]] = strategy.False
	g := testBench().Datasets[dataset.FactBench].Facts[1]
	resp, w := getConsensus(t, h, g.ID, "adaptive")
	if resp == nil {
		t.Fatalf("consensus: %d %s", w.Code, w.Body.String())
	}
	if resp.Final || resp.Tie {
		t.Fatalf("split quorum decision = %+v, want 1-3 false", resp)
	}
	st = statsz()
	if st.ConsensusRequests != 2 || st.ConsensusDispatched != 7 || st.ConsensusSkipped != 1 || st.ConsensusEscalations != 1 {
		t.Fatalf("after split quorum: %+v, want 2 requests, 7 dispatched, 1 skipped, 1 escalation", st)
	}
	if st.ConsensusArbiters != 0 {
		t.Fatalf("arbiter calls = %d, want 0 (service reports ties)", st.ConsensusArbiters)
	}
}

// TestValidation maps bad coordinates to the documented statuses.
func TestValidation(t *testing.T) {
	svc := newTestService(t, permissive())
	defer svc.Drain()
	h := svc.Handler()
	f := firstFact(dataset.FactBench)
	ok := VerifyRequest{Dataset: string(dataset.FactBench), Method: string(llm.MethodDKA), Model: llm.Gemma2, FactID: f.ID}

	cases := []struct {
		name   string
		mutate func(*VerifyRequest)
		status int
	}{
		{"unknown dataset", func(r *VerifyRequest) { r.Dataset = "Nope" }, http.StatusNotFound},
		{"unknown method", func(r *VerifyRequest) { r.Method = "ESP" }, http.StatusBadRequest},
		{"unknown model", func(r *VerifyRequest) { r.Model = "gpt-17" }, http.StatusNotFound},
		{"unknown fact", func(r *VerifyRequest) { r.FactID = "fb-nope" }, http.StatusNotFound},
		{"fact of other dataset", func(r *VerifyRequest) { r.FactID = firstFact(dataset.YAGO).ID }, http.StatusNotFound},
	}
	for _, tc := range cases {
		req := ok
		tc.mutate(&req)
		if w := postVerify(t, h, req); w.Code != tc.status {
			t.Errorf("%s: status %d, want %d (body %s)", tc.name, w.Code, tc.status, w.Body.String())
		}
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/verify", strings.NewReader("{nope")))
	if w.Code != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", w.Code)
	}
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/consensus/fb-nope", nil))
	if w.Code != http.StatusNotFound {
		t.Errorf("consensus unknown fact: status %d, want 404", w.Code)
	}
}

// TestFactsAndStats smoke-tests the unthrottled endpoints.
func TestFactsAndStats(t *testing.T) {
	svc := newTestService(t, permissive())
	defer svc.Drain()
	h := svc.Handler()

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/facts", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("facts: %d", w.Code)
	}
	var facts struct {
		Datasets map[string][]string `json:"datasets"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &facts); err != nil {
		t.Fatal(err)
	}
	for _, dn := range testBench().Config.Datasets {
		if len(facts.Datasets[string(dn)]) != len(testBench().Datasets[dn].Facts) {
			t.Fatalf("facts for %s: %d IDs, want %d", dn, len(facts.Datasets[string(dn)]), len(testBench().Datasets[dn].Facts))
		}
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/healthz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("healthz: %d", w.Code)
	}
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/statsz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("statsz: %d", w.Code)
	}
	var st Stats
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.QueueCap != 256 {
		t.Fatalf("queue_cap = %d, want 256", st.QueueCap)
	}
}

// TestStatszRetrievalCounters: a real (unstubbed) RAG verification performs
// retrieval, so the engine's cumulative pruning counters surfaced under
// /statsz "retrieval" must move. The bench engine is shared across tests,
// so assert on deltas, and drop the fact's evidence first: an earlier run
// in the same process (-count=2) may have cached it.
func TestStatszRetrievalCounters(t *testing.T) {
	svc := newTestService(t, permissive())
	defer svc.Drain()
	h := svc.Handler()

	statsz := func() Stats {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", "/statsz", nil))
		if w.Code != http.StatusOK {
			t.Fatalf("statsz: %d", w.Code)
		}
		var st Stats
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	f := firstFact(dataset.FactBench)
	testBench().Pipeline.Invalidate(f.ID)
	before := statsz()
	req := VerifyRequest{Dataset: string(dataset.FactBench), Method: string(llm.MethodRAG), Model: llm.Gemma2, FactID: f.ID}
	if w := postVerify(t, h, req); w.Code != http.StatusOK {
		t.Fatalf("verify: %d: %s", w.Code, w.Body.String())
	}
	after := statsz()

	if after.Retrieval.SearchQueries <= before.Retrieval.SearchQueries {
		t.Errorf("search_queries did not move: %d -> %d",
			before.Retrieval.SearchQueries, after.Retrieval.SearchQueries)
	}
	if after.Retrieval.PostingsTouched <= before.Retrieval.PostingsTouched {
		t.Errorf("postings_touched did not move: %d -> %d",
			before.Retrieval.PostingsTouched, after.Retrieval.PostingsTouched)
	}
	if after.Retrieval.DocsScored <= before.Retrieval.DocsScored {
		t.Errorf("docs_scored did not move: %d -> %d",
			before.Retrieval.DocsScored, after.Retrieval.DocsScored)
	}
}

// TestBodySizeLimit: a request body past maxBodyBytes is rejected with 413
// before any of it is processed.
func TestBodySizeLimit(t *testing.T) {
	svc := newTestService(t, permissive())
	defer svc.Drain()
	h := svc.Handler()
	huge := `{"dataset":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	for _, path := range []string{"/v1/verify", "/v1/verify/batch"} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", path, strings.NewReader(huge)))
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with %d-byte body: status %d, want 413", path, len(huge), w.Code)
		}
	}
}

// --- limiter unit tests --------------------------------------------------

func TestLimiterBurstAndRefill(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	l := newLimiter(1, 2, clock) // 1 token/s, burst 2
	for i := 0; i < 2; i++ {
		if ok, _ := l.allow("c"); !ok {
			t.Fatalf("request %d within burst rejected", i)
		}
	}
	ok, wait := l.allow("c")
	if ok {
		t.Fatal("request past burst allowed")
	}
	if wait <= 0 || wait > time.Second {
		t.Fatalf("retry-after = %v, want (0, 1s]", wait)
	}
	now = now.Add(time.Second)
	if ok, _ := l.allow("c"); !ok {
		t.Fatal("request after refill rejected")
	}
	if ok, _ := l.allow("other"); !ok {
		t.Fatal("fresh client rejected")
	}
}

func TestLimiterPrune(t *testing.T) {
	now := time.Unix(0, 0)
	l := newLimiter(1, 2, func() time.Time { return now })
	for i := 0; i < 10; i++ {
		l.allow(fmt.Sprintf("c%d", i))
	}
	if got := l.clients(); got != 10 {
		t.Fatalf("clients = %d, want 10", got)
	}
	// After a full refill interval every bucket is forgettable.
	l.mu.Lock()
	l.prune(now.Add(2 * time.Second))
	l.mu.Unlock()
	if got := l.clients(); got != 0 {
		t.Fatalf("clients after prune = %d, want 0", got)
	}
}

// TestLimiterBounded: a client-ID churn attack must not grow the table
// past maxClients, even when no bucket is idle enough to prune.
func TestLimiterBounded(t *testing.T) {
	now := time.Unix(0, 0)
	l := newLimiter(1, 2, func() time.Time { return now })
	for i := 0; i < maxClients+50; i++ {
		l.allow(fmt.Sprintf("churn-%d", i))
	}
	if got := l.clients(); got > maxClients {
		t.Fatalf("clients = %d, want <= %d", got, maxClients)
	}
}

// TestConsensusProbesLRUOncePerVote: consensus probes the verdict LRU
// once per dispatched vote — through the engine's Lookup — whether the
// vote hits or misses, so the lru histogram, lruHits and the source
// counters read as if each vote were a /v1/verify call. Warm votes never
// reach the verifier.
func TestConsensusProbesLRUOncePerVote(t *testing.T) {
	svc := newTestService(t, permissive())
	defer svc.Drain()
	var verifies atomic.Int64
	svc.verify = func(_ context.Context, cell core.Cell, f *dataset.Fact) (strategy.Outcome, error) {
		verifies.Add(1)
		return stubOutcome(f), nil
	}
	f := firstFact(dataset.FactBench)
	ctx := context.Background()
	voters := uint64(len(svc.plan.Order))
	probes := func() uint64 { return lruHist.Snapshot().Count }

	before := probes()
	if _, err := svc.Consensus(ctx, f.ID, consensus.ModeEager); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if got := probes() - before; got != voters {
		t.Fatalf("cold consensus: %d LRU probes, want %d (one per vote)", got, voters)
	}
	if st.LRUHits != 0 || st.Computed != voters || verifies.Load() != int64(voters) {
		t.Fatalf("cold consensus: lru hits %d, computed %d, verifies %d; want 0, %d, %d",
			st.LRUHits, st.Computed, verifies.Load(), voters, voters)
	}

	for _, mode := range []consensus.Mode{consensus.ModeEager, consensus.ModeAdaptive} {
		before, hits := probes(), svc.Stats().LRUHits
		resp, err := svc.Consensus(ctx, f.ID, mode)
		if err != nil {
			t.Fatal(err)
		}
		dispatched := uint64(len(resp.Votes))
		if got := probes() - before; got != dispatched {
			t.Fatalf("warm %s consensus: %d LRU probes, want %d", mode, got, dispatched)
		}
		if got := svc.Stats().LRUHits - hits; got != dispatched {
			t.Fatalf("warm %s consensus: %d LRU hits, want %d", mode, got, dispatched)
		}
	}
	if verifies.Load() != int64(voters) {
		t.Fatalf("warm consensus reached the verifier: %d verifies, want %d", verifies.Load(), voters)
	}
}
