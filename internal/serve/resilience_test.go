package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"
	"time"

	"factcheck/internal/core"
	"factcheck/internal/dataset"
	"factcheck/internal/llm"
	"factcheck/internal/resilience"
	"factcheck/internal/strategy"
)

// downFault marks a hard-down dependency the way internal/fault does, so
// these tests exercise the serving layer's unavailability handling without
// standing up a faulted benchmark.
type downFault struct{}

func (downFault) Error() string          { return "dependency down" }
func (downFault) FaultUnavailable() bool { return true }

// assertRetryAfter fails unless the response carries a positive-integer
// Retry-After header — the contract on every retryable rejection.
func assertRetryAfter(t *testing.T, w *httptest.ResponseRecorder, path string) {
	t.Helper()
	ra := w.Result().Header.Get("Retry-After")
	n, err := strconv.Atoi(ra)
	if err != nil || n < 1 {
		t.Errorf("%s: status %d with Retry-After %q, want a positive integer", path, w.Code, ra)
	}
}

func dkaRequest(f *dataset.Fact) VerifyRequest {
	return VerifyRequest{Dataset: string(dataset.FactBench), Method: string(llm.MethodDKA), Model: llm.Gemma2, FactID: f.ID}
}

// TestRequestDeadline504: a verification outliving the per-request
// deadline answers 504 + Retry-After instead of hanging, and the cut is
// counted.
func TestRequestDeadline504(t *testing.T) {
	cfg := permissive()
	cfg.RequestTimeout = 60 * time.Millisecond
	svc := newTestService(t, cfg)
	defer svc.Drain()
	svc.verify = func(ctx context.Context, _ core.Cell, _ *dataset.Fact) (strategy.Outcome, error) {
		<-ctx.Done() // a stalled dependency: only the deadline frees us
		return strategy.Outcome{}, ctx.Err()
	}
	start := time.Now()
	w := postVerify(t, svc.Handler(), dkaRequest(firstFact(dataset.FactBench)))
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (body %s)", w.Code, w.Body.String())
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("504 took %v, the deadline did not bound the request", el)
	}
	assertRetryAfter(t, w, "stalled verify")
	if st := svc.Stats(); st.Deadlines != 1 {
		t.Fatalf("deadline_timeouts = %d, want 1", st.Deadlines)
	}
}

// TestDegradedStaleServe: when fresh resolution is unavailable, a stale
// (previous-epoch) verdict is served marked degraded; with no stale copy
// the request is refused 503 + Retry-After, never 500.
func TestDegradedStaleServe(t *testing.T) {
	svc := newTestService(t, permissive())
	defer svc.Drain()
	svc.verify = func(context.Context, core.Cell, *dataset.Fact) (strategy.Outcome, error) {
		return strategy.Outcome{}, downFault{}
	}
	f := firstFact(dataset.FactBench)
	cell := core.Cell{Dataset: dataset.FactBench, Method: llm.MethodDKA, Model: llm.Gemma2}
	// A verdict from another corpus epoch: invisible to the warm path
	// (epoch-keyed), reachable only through the degraded fallback.
	svc.cache.put(verdictKey{cell: cell, factID: f.ID, epoch: 41}, stubOutcome(f))

	w := postVerify(t, svc.Handler(), dkaRequest(f))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d with a stale copy available, want 200 (body %s)", w.Code, w.Body.String())
	}
	var resp VerdictResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || resp.Source != "degraded" {
		t.Fatalf("response = source %q degraded %v, want a degraded stale verdict", resp.Source, resp.Degraded)
	}
	if st := svc.Stats(); st.Degraded != 1 {
		t.Fatalf("degraded_served = %d, want 1", st.Degraded)
	}

	// A fact with no stale copy anywhere: 503, not 500.
	other := testBench().Datasets[dataset.FactBench].Facts[1]
	w = postVerify(t, svc.Handler(), dkaRequest(other))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d with nothing to fall back on, want 503 (body %s)", w.Code, w.Body.String())
	}
	assertRetryAfter(t, w, "unavailable verify")
	if st := svc.Stats(); st.Unavailable != 1 {
		t.Fatalf("unavailable_rejected = %d, want 1", st.Unavailable)
	}
}

// TestConsensusDegradedSurvivors: consensus over an ensemble with one
// voter down settles with the survivors, reports the dropped voter, and
// counts the degraded decision; with every voter down it refuses 503.
func TestConsensusDegradedSurvivors(t *testing.T) {
	svc := newTestService(t, permissive())
	defer svc.Drain()
	f := firstFact(dataset.FactBench)
	svc.verify = func(_ context.Context, cell core.Cell, fa *dataset.Fact) (strategy.Outcome, error) {
		if cell.Model == llm.Mistral {
			return strategy.Outcome{}, downFault{}
		}
		return stubOutcome(fa), nil
	}
	resp, w := getConsensus(t, svc.Handler(), f.ID, "eager")
	if resp == nil {
		t.Fatalf("consensus status %d (body %s)", w.Code, w.Body.String())
	}
	if !resp.Degraded || !reflect.DeepEqual(resp.Unavailable, []string{llm.Mistral}) {
		t.Fatalf("degraded %v unavailable %v, want mistral dropped", resp.Degraded, resp.Unavailable)
	}
	if len(resp.Votes) != 3 || !resp.Final || resp.Tie {
		t.Fatalf("votes %d final %v tie %v, want a 3-0 survivor majority", len(resp.Votes), resp.Final, resp.Tie)
	}
	for _, v := range resp.Votes {
		if v.Model == llm.Mistral {
			t.Fatal("the unavailable voter still cast a vote")
		}
	}
	if st := svc.Stats(); st.ConsensusDegraded != 1 {
		t.Fatalf("consensus_degraded = %d, want 1", st.ConsensusDegraded)
	}

	// Every voter down: there is no ensemble left — 503 + Retry-After.
	// A different fact, so the first decision's cached votes can't answer.
	svc.verify = func(context.Context, core.Cell, *dataset.Fact) (strategy.Outcome, error) {
		return strategy.Outcome{}, downFault{}
	}
	allDown := testBench().Datasets[dataset.FactBench].Facts[2]
	_, w = getConsensus(t, svc.Handler(), allDown.ID, "eager")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("all-down consensus status %d, want 503 (body %s)", w.Code, w.Body.String())
	}
	assertRetryAfter(t, w, "all-down consensus")
}

// TestRetryAfterOnEveryRejection sweeps the retryable rejection paths —
// rate limit 429, queue-full 503, drain 503 (verify, batch, ingest),
// /readyz 503 — asserting each carries a positive-integer Retry-After.
func TestRetryAfterOnEveryRejection(t *testing.T) {
	f := firstFact(dataset.FactBench)
	req := dkaRequest(f)

	t.Run("rate limit 429", func(t *testing.T) {
		cfg := permissive()
		cfg.Rate, cfg.Burst = 0.001, 1
		svc := newTestService(t, cfg)
		defer svc.Drain()
		h := svc.Handler()
		if w := postVerify(t, h, req); w.Code != http.StatusOK {
			t.Fatalf("first request: %d", w.Code)
		}
		w := postVerify(t, h, req)
		if w.Code != http.StatusTooManyRequests {
			t.Fatalf("status %d, want 429", w.Code)
		}
		assertRetryAfter(t, w, "rate limit")
	})

	t.Run("queue full 503", func(t *testing.T) {
		cfg := permissive()
		cfg.QueueDepth, cfg.Workers = 1, 1
		svc := newTestService(t, cfg)
		defer svc.Drain()
		entered := make(chan struct{})
		release := make(chan struct{})
		svc.verify = func(_ context.Context, cell core.Cell, fa *dataset.Fact) (strategy.Outcome, error) {
			close(entered)
			<-release
			return stubOutcome(fa), nil
		}
		h := svc.Handler()
		body, _ := json.Marshal(req)
		go h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/verify", bytes.NewReader(body)))
		<-entered
		w := postVerify(t, h, req)
		close(release)
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503", w.Code)
		}
		assertRetryAfter(t, w, "queue full")
	})

	t.Run("draining 503", func(t *testing.T) {
		svc := newTestService(t, permissive())
		defer svc.Drain()
		h := svc.Handler()
		svc.StartDrain()
		w := postVerify(t, h, req)
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("verify during drain: %d, want 503", w.Code)
		}
		assertRetryAfter(t, w, "drain verify")

		body, _ := json.Marshal(BatchRequest{Requests: []VerifyRequest{req}})
		w = httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/verify/batch", bytes.NewReader(body)))
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("batch during drain: %d, want 503", w.Code)
		}
		assertRetryAfter(t, w, "drain batch")

		w = httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", "/readyz", nil))
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("/readyz during drain: %d, want 503", w.Code)
		}
		assertRetryAfter(t, w, "readyz")

		// Liveness stays green mid-drain: only readiness flips.
		w = httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", "/healthz", nil))
		if w.Code != http.StatusOK {
			t.Fatalf("/healthz during drain: %d, want 200", w.Code)
		}
	})
}

// TestRecoveredVerdictByteIdentical runs the full chain — injected
// fail-first faults under the retry layer — and pins the recovered
// response to the fault-free service's bytes: faults cost latency, never
// answers.
func TestRecoveredVerdictByteIdentical(t *testing.T) {
	base := newTestService(t, permissive())
	defer base.Drain()

	cfg := core.TestConfig()
	if err := cfg.Faults.Parse("fail-first=3"); err != nil {
		t.Fatal(err)
	}
	cfg.Resilience = &resilience.Config{Retries: 5, RetryBase: time.Microsecond, RetryMax: 50 * time.Microsecond, Seed: "t"}
	chaotic := New(core.NewBenchmark(cfg), core.NewMemoryStore(), permissive())
	defer chaotic.Drain()

	req := dkaRequest(firstFact(dataset.FactBench))
	wa := postVerify(t, base.Handler(), req)
	wb := postVerify(t, chaotic.Handler(), req)
	if wa.Code != http.StatusOK || wb.Code != http.StatusOK {
		t.Fatalf("statuses %d/%d, want 200/200 (chaotic body %s)", wa.Code, wb.Code, wb.Body.String())
	}
	if wa.Body.String() != wb.Body.String() {
		t.Fatalf("recovered verdict differs from fault-free:\n fault-free: %s\n recovered:  %s", wa.Body.String(), wb.Body.String())
	}
	st := chaotic.Stats().Resilience
	if st.Retries < 3 || st.Recovered < 1 {
		t.Fatalf("resilience stats = %+v, want the fail-first window absorbed by retries", st)
	}
}
