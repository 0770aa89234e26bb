package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"factcheck/internal/serve"
)

// writeScenario marshals a scenario into a temp file and returns the path.
func writeScenario(t *testing.T, s Scenario) string {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), s.Name+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadScenario(t *testing.T) {
	path := writeScenario(t, Scenario{
		Name: "ok", Mix: "uniform", N: 10, C: 2, Seed: 5,
		RetryRejected: true, RetryBudget: 3, MaxRetryWaitMS: 10,
		SlowLoris: &SlowLorisSpec{Every: 4, ByteDelayMS: 20},
		Contract:  Contract{RequireAllServed: true, MaxTransportErrors: 1},
	})
	s, err := loadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "ok" || s.N != 10 || !s.RetryRejected || s.SlowLoris.Every != 4 {
		t.Fatalf("scenario round-trip lost fields: %+v", s)
	}

	dir := t.TempDir()
	for name, body := range map[string]string{
		"unknown-field": `{"name": "x", "tyopted_contract": {}}`,
		"no-name":       `{"mix": "uniform"}`,
		"bad-loris":     `{"name": "x", "slow_loris": {"every": 0, "byte_delay_ms": 5}}`,
		"negative":      `{"name": "x", "retry_budget": -1}`,
	} {
		p := filepath.Join(dir, name+".json")
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadScenario(p); err == nil {
			t.Errorf("%s: loaded, want error", name)
		}
	}
	if _, err := loadScenario(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file loaded")
	}
}

// FuzzLoadScenario: a scenario either fails to parse, or survives a
// marshal → parse round trip unchanged; no input panics the parser.
// Seeded with the repo's scenarios/*.json.
func FuzzLoadScenario(f *testing.F) {
	seeds, err := filepath.Glob("../../scenarios/*.json")
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no scenario seeds: %v", err)
	}
	for _, p := range seeds {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"name": "x", "slow_loris": null, "models": []}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := parseScenario("fuzz", data)
		if err != nil {
			return
		}
		again, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted scenario does not marshal: %v", err)
		}
		s2, err := parseScenario("fuzz", again)
		if err != nil {
			t.Fatalf("re-parse of %s: %v", again, err)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("round trip changed the scenario:\n%+v\n%+v", s, s2)
		}
	})
}

func TestScenarioDefaults(t *testing.T) {
	s := &Scenario{}
	if got := s.retryBudget(); got != 8 {
		t.Fatalf("default retry budget = %d, want 8", got)
	}
	if got := s.retryWait(2); got != 2*time.Second {
		t.Fatalf("uncapped retryWait(2) = %v, want 2s", got)
	}
	s.MaxRetryWaitMS = 50
	if got := s.retryWait(2); got != 50*time.Millisecond {
		t.Fatalf("capped retryWait(2) = %v, want 50ms", got)
	}
	if got := s.retryWait(0); got != 0 {
		t.Fatalf("retryWait(0) = %v, want 0", got)
	}
}

func TestRetryAfterOf(t *testing.T) {
	if n, err := retryAfterOf("3"); err != nil || n != 3 {
		t.Fatalf("retryAfterOf(3) = %d, %v", n, err)
	}
	for _, bad := range []string{"", "0", "-1", "1.5", "soon"} {
		if _, err := retryAfterOf(bad); err == nil {
			t.Errorf("retryAfterOf(%q) accepted", bad)
		}
	}
}

func TestClassifyTransport(t *testing.T) {
	cases := map[string]error{
		"timeout": &net.OpError{Op: "read", Err: timeoutErr{}},
		"eof":     fmt.Errorf("Post \"x\": %w", io.ErrUnexpectedEOF),
		"reset":   fmt.Errorf("read tcp: connection reset by peer"),
		"refused": fmt.Errorf("dial tcp: connection refused"),
		"other":   fmt.Errorf("weird"),
	}
	for want, err := range cases {
		if got := classifyTransport(err); got != want {
			t.Errorf("classifyTransport(%v) = %q, want %q", err, got, want)
		}
	}
}

type timeoutErr struct{}

func (timeoutErr) Error() string   { return "i/o timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

func TestTrickleReader(t *testing.T) {
	r := &trickleReader{data: []byte("abc"), delay: time.Millisecond}
	buf := make([]byte, 8)
	var got []byte
	for {
		n, err := r.Read(buf)
		if n > 1 {
			t.Fatalf("trickle read returned %d bytes", n)
		}
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if string(got) != "abc" {
		t.Fatalf("trickled %q, want abc", got)
	}
}

func TestMarkLoris(t *testing.T) {
	jobs := []job{
		{reqs: []serve.VerifyRequest{{}}},
		{consensusFact: "f"}, // skipped: no request body to trickle
		{reqs: []serve.VerifyRequest{{}}},
		{reqs: []serve.VerifyRequest{{}}},
		{reqs: []serve.VerifyRequest{{}}},
	}
	if got := markLoris(jobs, 2); got != 2 {
		t.Fatalf("marked %d, want 2", got)
	}
	var marked []int
	for i, j := range jobs {
		if j.loris {
			marked = append(marked, i)
		}
	}
	// Every 2nd verify job: verify indices are 0,2,3,4 -> marks 2 and 4.
	if len(marked) != 2 || marked[0] != 2 || marked[1] != 4 {
		t.Fatalf("marked jobs %v, want [2 4]", marked)
	}
}

// flakyService 429s the first attempt for every fact, then serves it —
// so a run only finishes fully served if the client honours Retry-After
// and re-issues the rejection.
func flakyService(t *testing.T) (*httptest.Server, *int) {
	t.Helper()
	var (
		mu       sync.Mutex
		seen     = map[string]bool{}
		rejected int
	)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/facts", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"datasets": map[string][]string{
			"FactBench": {"fb-1", "fb-2", "fb-3"},
		}})
	})
	mux.HandleFunc("POST /v1/verify", func(w http.ResponseWriter, r *http.Request) {
		var req serve.VerifyRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		key := req.FactID + "/" + req.Model
		mu.Lock()
		first := !seen[key]
		seen[key] = true
		if first {
			rejected++
		}
		mu.Unlock()
		if first {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "backpressure", http.StatusTooManyRequests)
			return
		}
		json.NewEncoder(w).Encode(serve.VerdictResponse{
			Dataset: req.Dataset, Method: req.Method, Model: req.Model, FactID: req.FactID,
			Verdict: "true", Gold: true, Correct: true, Attempts: 1, Source: "computed",
		})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, &rejected
}

// TestScenarioRetryUntilServed: with retry_rejected the run rides out the
// 429s, every final outcome is served, and the digest is written; the
// same traffic without the scenario must refuse the digest.
func TestScenarioRetryUntilServed(t *testing.T) {
	srv, rejected := flakyService(t)
	path := writeScenario(t, Scenario{
		Name: "retry", Mix: "uniform", N: 30, C: 4, Seed: 11,
		RetryRejected: true, RetryBudget: 4, MaxRetryWaitMS: 1,
		Contract: Contract{RequireAllServed: true},
	})
	digestFile := filepath.Join(t.TempDir(), "digest.txt")
	var out bytes.Buffer
	err := run([]string{"-addr", srv.URL, "-scenario", path, "-digest", digestFile}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if *rejected == 0 {
		t.Fatal("server never rejected: the scenario proved nothing")
	}
	report := out.String()
	if !strings.Contains(report, "scenario: retry") || strings.Contains(report, "retries=0 ") {
		t.Errorf("report missing scenario retries:\n%s", report)
	}
	if !strings.Contains(report, "unserved=0") {
		t.Errorf("report shows unserved jobs:\n%s", report)
	}
	if _, err := os.ReadFile(digestFile); err != nil {
		t.Fatalf("digest not written: %v", err)
	}

	// The same flaky server without retries: final 429s must refuse the
	// digest even though the statuses are contract-legal.
	srv2, _ := flakyService(t)
	err = run([]string{"-addr", srv2.URL, "-mix", "uniform", "-n", "30", "-c", "4",
		"-seed", "11", "-digest", filepath.Join(t.TempDir(), "d.txt")}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "unserved") {
		t.Fatalf("unretried flaky run error = %v, want digest refusal", err)
	}
}

// TestScenarioRetryBudgetExhausted: a server that always rejects defeats
// the budget; require_all_served turns that into a contract failure.
func TestScenarioRetryBudgetExhausted(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/facts", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"datasets": map[string][]string{"FactBench": {"fb-1"}}})
	})
	mux.HandleFunc("POST /v1/verify", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "down", http.StatusServiceUnavailable)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	path := writeScenario(t, Scenario{
		Name: "exhaust", Mix: "uniform", N: 3, C: 1, Seed: 2,
		RetryRejected: true, RetryBudget: 2, MaxRetryWaitMS: 1,
		Contract: Contract{RequireAllServed: true},
	})
	var out bytes.Buffer
	err := run([]string{"-addr", srv.URL, "-scenario", path}, &out)
	if err == nil || !strings.Contains(err.Error(), "contract violations") {
		t.Fatalf("run error = %v, want contract violations\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "contract: 3 jobs ended unserved") {
		t.Fatalf("report missing unserved contract line:\n%s", out.String())
	}
}

// TestScenario504Tracked: a 504 with Retry-After is a legal resilience
// outcome (tracked, retryable), never an "unexpected status" violation.
func TestScenario504Tracked(t *testing.T) {
	var calls int
	var mu sync.Mutex
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/facts", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"datasets": map[string][]string{"FactBench": {"fb-1"}}})
	})
	mux.HandleFunc("POST /v1/verify", func(w http.ResponseWriter, r *http.Request) {
		var req serve.VerifyRequest
		json.NewDecoder(r.Body).Decode(&req)
		mu.Lock()
		calls++
		first := calls == 1
		mu.Unlock()
		if first {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "deadline exceeded", http.StatusGatewayTimeout)
			return
		}
		json.NewEncoder(w).Encode(serve.VerdictResponse{
			Dataset: req.Dataset, Method: req.Method, Model: req.Model, FactID: req.FactID,
			Verdict: "true", Gold: true, Correct: true, Attempts: 1, Source: "computed",
		})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	path := writeScenario(t, Scenario{
		Name: "timeouts", Mix: "uniform", N: 2, C: 1, Seed: 3,
		RetryRejected: true, RetryBudget: 3, MaxRetryWaitMS: 1,
		Contract: Contract{RequireAllServed: true},
	})
	var out bytes.Buffer
	if err := run([]string{"-addr", srv.URL, "-scenario", path}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}

	// Without Retry-After a 504 violates the contract outright.
	mux2 := http.NewServeMux()
	mux2.HandleFunc("GET /v1/facts", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"datasets": map[string][]string{"FactBench": {"fb-1"}}})
	})
	mux2.HandleFunc("POST /v1/verify", func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "deadline exceeded", http.StatusGatewayTimeout)
	})
	srv2 := httptest.NewServer(mux2)
	defer srv2.Close()
	err := run([]string{"-addr", srv2.URL, "-n", "2", "-c", "1"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "contract violations") {
		t.Fatalf("bare-504 run error = %v, want contract violations", err)
	}
}

// TestScenarioTransportBudget: connection drops become tracked transport
// classes; the contract budget decides pass or fail.
func TestScenarioTransportBudget(t *testing.T) {
	var calls int
	var mu sync.Mutex
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/facts", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"datasets": map[string][]string{"FactBench": {"fb-1"}}})
	})
	mux.HandleFunc("POST /v1/verify", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		drop := calls == 1
		mu.Unlock()
		if drop {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Error("response writer cannot hijack")
				return
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			conn.Close() // slam the connection: client sees EOF/reset
			return
		}
		var req serve.VerifyRequest
		json.NewDecoder(r.Body).Decode(&req)
		json.NewEncoder(w).Encode(serve.VerdictResponse{
			Dataset: req.Dataset, Method: req.Method, Model: req.Model, FactID: req.FactID,
			Verdict: "true", Gold: true, Correct: true, Attempts: 1, Source: "computed",
		})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	tolerant := writeScenario(t, Scenario{
		Name: "tolerant", Mix: "uniform", N: 4, C: 1, Seed: 5,
		Contract: Contract{MaxTransportErrors: 1},
	})
	var out bytes.Buffer
	if err := run([]string{"-addr", srv.URL, "-scenario", tolerant}, &out); err != nil {
		t.Fatalf("tolerant run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "transport_") {
		t.Fatalf("report missing transport class:\n%s", out.String())
	}

	strict := writeScenario(t, Scenario{
		Name: "strict", Mix: "uniform", N: 4, C: 1, Seed: 5,
		Contract: Contract{MaxTransportErrors: 0},
	})
	calls = 0
	err := run([]string{"-addr", srv.URL, "-scenario", strict}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "contract violations") {
		t.Fatalf("strict run error = %v, want contract violations", err)
	}
}

// TestScenarioSlowLoris: a server with a read timeout must cut trickled
// bodies loose while serving well-behaved traffic — cut loris jobs are
// expected outcomes, and require_all_served still passes.
func TestScenarioSlowLoris(t *testing.T) {
	srv := httptest.NewUnstartedServer(nil)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/facts", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"datasets": map[string][]string{"FactBench": {"fb-1", "fb-2"}}})
	})
	mux.HandleFunc("POST /v1/verify", func(w http.ResponseWriter, r *http.Request) {
		var req serve.VerifyRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		json.NewEncoder(w).Encode(serve.VerdictResponse{
			Dataset: req.Dataset, Method: req.Method, Model: req.Model, FactID: req.FactID,
			Verdict: "true", Gold: true, Correct: true, Attempts: 1, Source: "computed",
		})
	})
	srv.Config.Handler = mux
	srv.Config.ReadTimeout = 300 * time.Millisecond
	srv.Start()
	defer srv.Close()

	path := writeScenario(t, Scenario{
		Name: "loris", Mix: "uniform", N: 8, C: 2, Seed: 7, TimeoutMS: 10000,
		SlowLoris: &SlowLorisSpec{Every: 4, ByteDelayMS: 40},
		Contract:  Contract{RequireAllServed: true, MaxTransportErrors: 0},
	})
	var out bytes.Buffer
	if err := run([]string{"-addr", srv.URL, "-scenario", path}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	report := out.String()
	if !strings.Contains(report, "loris_cut=2") {
		t.Fatalf("report missing loris_cut=2 (every 4th of 8 jobs):\n%s", report)
	}
	if !strings.Contains(report, "unserved=0") {
		t.Fatalf("healthy jobs went unserved:\n%s", report)
	}
}

func TestContractCheck(t *testing.T) {
	c := Contract{RequireAllServed: true, MaxTransportErrors: 2}
	if v := c.check(0, 2); len(v) != 0 {
		t.Fatalf("clean run flagged: %v", v)
	}
	if v := c.check(1, 3); len(v) != 2 {
		t.Fatalf("dirty run got %d violations, want 2: %v", len(v), v)
	}
	loose := Contract{}
	if v := loose.check(5, 0); len(v) != 0 {
		t.Fatalf("loose contract flagged unserved: %v", v)
	}
}
