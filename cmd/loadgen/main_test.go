package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"factcheck/internal/serve"
)

func testTargets() []target {
	return []target{
		{dataset: "FactBench", facts: []string{"fb-1", "fb-2", "fb-3", "fb-4"}},
		{dataset: "YAGO", facts: []string{"y-1", "y-2"}},
	}
}

func TestBuildPlanDeterministic(t *testing.T) {
	models := []string{"m1", "m2"}
	for _, mix := range []string{"uniform", "zipf", "batch", "consensus", "ingest"} {
		a, err := buildPlan(mix, 7, testTargets(), models, "DKA", 50, 8, 1.2, "adaptive", 8)
		if err != nil {
			t.Fatalf("%s: %v", mix, err)
		}
		b, err := buildPlan(mix, 7, testTargets(), models, "DKA", 50, 8, 1.2, "adaptive", 8)
		if err != nil {
			t.Fatalf("%s: %v", mix, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed produced different plans", mix)
		}
		c, err := buildPlan(mix, 8, testTargets(), models, "DKA", 50, 8, 1.2, "adaptive", 8)
		if err != nil {
			t.Fatalf("%s: %v", mix, err)
		}
		if reflect.DeepEqual(a, c) {
			t.Fatalf("%s: different seeds produced identical plans", mix)
		}
	}
}

func TestBuildPlanShapes(t *testing.T) {
	models := []string{"m1"}
	uni, err := buildPlan("uniform", 1, testTargets(), models, "DKA", 10, 4, 1.2, "adaptive", 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(uni) != 10 {
		t.Fatalf("uniform: %d jobs, want 10", len(uni))
	}
	for _, j := range uni {
		if len(j.reqs) != 1 {
			t.Fatalf("uniform job size %d, want 1", len(j.reqs))
		}
	}
	bat, err := buildPlan("batch", 1, testTargets(), models, "DKA", 10, 4, 1.2, "adaptive", 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(bat) != 3 || len(bat[0].reqs) != 4 || len(bat[2].reqs) != 2 {
		t.Fatalf("batch shape: %d jobs (sizes %d,%d,%d), want 3 jobs of 4,4,2",
			len(bat), len(bat[0].reqs), len(bat[1].reqs), len(bat[2].reqs))
	}
	if _, err := buildPlan("nope", 1, testTargets(), models, "DKA", 10, 4, 1.2, "adaptive", 8); err == nil {
		t.Fatal("unknown mix accepted")
	}
	if _, err := buildPlan("zipf", 1, testTargets(), models, "DKA", 10, 4, 0.5, "adaptive", 8); err == nil {
		t.Fatal("zipf skew <= 1 accepted")
	}
	ing, err := buildPlan("ingest", 1, testTargets(), models, "DKA", 16, 4, 1.2, "adaptive", 4)
	if err != nil {
		t.Fatal(err)
	}
	var verifies, ingests, probes int
	for _, j := range ing {
		switch {
		case j.expect413:
			probes++
		case j.ingest != nil:
			ingests++
		default:
			verifies++
			if !j.stable {
				t.Fatal("ingest-mix verify job not marked epoch-stable")
			}
		}
	}
	// 16 jobs at every-4th = 4 ingests + 12 verifies, plus the one probe.
	if verifies != 12 || ingests != 4 || probes != 1 {
		t.Fatalf("ingest plan shape: %d verifies, %d ingests, %d probes; want 12, 4, 1", verifies, ingests, probes)
	}
	if _, err := buildPlan("ingest", 1, testTargets(), models, "DKA", 10, 4, 1.2, "adaptive", 1); err == nil {
		t.Fatal("-ingestevery < 2 accepted")
	}
}

// TestZipfSkew: the zipf mix must concentrate mass on a few hot facts.
func TestZipfSkew(t *testing.T) {
	jobs, err := buildPlan("zipf", 3, testTargets(), []string{"m"}, "DKA", 600, 4, 1.2, "adaptive", 8)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, j := range jobs {
		counts[j.reqs[0].FactID]++
	}
	max := 0
	for _, n := range counts {
		if n > max {
			max = n
		}
	}
	// 6 facts, 600 draws: uniform would put ~100 on each; zipf s=1.2 puts
	// far more on the head.
	if max < 200 {
		t.Fatalf("hottest fact drew %d/600 requests, want zipf-skewed (>= 200)", max)
	}
}

func TestPercentile(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 100; i++ {
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	if got := percentile(ds, 0.50); got != 50*time.Millisecond {
		t.Fatalf("p50 = %v", got)
	}
	if got := percentile(ds, 0.99); got != 99*time.Millisecond {
		t.Fatalf("p99 = %v", got)
	}
	if got := percentile(ds, 1.0); got != 100*time.Millisecond {
		t.Fatalf("max = %v", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Fatalf("empty percentile = %v", got)
	}
}

func TestDigestOrderIndependent(t *testing.T) {
	a := map[string]string{"k1": "v1", "k2": "v2"}
	b := map[string]string{"k2": "v2", "k1": "v1"}
	if digestOf(a) != digestOf(b) {
		t.Fatal("digest depends on map order")
	}
	c := map[string]string{"k1": "v1", "k2": "DIFFERENT"}
	if digestOf(a) == digestOf(c) {
		t.Fatal("digest ignores verdict content")
	}
}

// fakeService is a canned factcheckd: deterministic verdicts, no benchmark
// build, so the end-to-end driver test stays fast.
func fakeService(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/facts", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"datasets": map[string][]string{
			"FactBench": {"fb-1", "fb-2"},
		}})
	})
	verdict := func(req serve.VerifyRequest) serve.VerdictResponse {
		return serve.VerdictResponse{
			Dataset: req.Dataset, Method: req.Method, Model: req.Model, FactID: req.FactID,
			Verdict: "true", Gold: true, Correct: true, LatencyMS: 1.5, Attempts: 1, Source: "computed",
		}
	}
	mux.HandleFunc("POST /v1/verify", func(w http.ResponseWriter, r *http.Request) {
		var req serve.VerifyRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if r.Header.Get("X-Server-Timing") == "1" {
			w.Header().Set("Server-Timing", "lru;dur=0.010, verify;dur=1.200, total;dur=1.500")
		}
		json.NewEncoder(w).Encode(verdict(req))
	})
	mux.HandleFunc("POST /v1/verify/batch", func(w http.ResponseWriter, r *http.Request) {
		var req serve.BatchRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp := serve.BatchResponse{}
		for _, item := range req.Requests {
			v := verdict(item)
			resp.Results = append(resp.Results, serve.BatchItem{Verdict: &v})
		}
		json.NewEncoder(w).Encode(resp)
	})
	mux.HandleFunc("POST /v1/documents", func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-Server-Timing") == "1" {
			w.Header().Set("Server-Timing", "ingest;dur=0.200, total;dur=0.300")
		}
		var req serve.IngestRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				http.Error(w, "body too large", http.StatusRequestEntityTooLarge)
				return
			}
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(serve.IngestResponse{Queued: len(req.Documents)})
	})
	mux.HandleFunc("GET /v1/consensus/{fact}", func(w http.ResponseWriter, r *http.Request) {
		mode := r.URL.Query().Get("mode")
		resp := serve.ConsensusResponse{
			FactID: r.PathValue("fact"), Dataset: "FactBench", Method: "DKA",
			Final: true, Gold: true, Mode: mode, LatencyMS: 3,
		}
		// The execution shape varies by mode — the digest must not see it.
		switch mode {
		case "adaptive":
			resp.Votes = []serve.VoteItem{{Model: "m1", Verdict: "true"}}
			resp.Skipped = []string{"m2"}
		default:
			resp.Votes = []serve.VoteItem{{Model: "m1", Verdict: "true"}, {Model: "m2", Verdict: "true"}}
			resp.LatencyMS = 7
		}
		json.NewEncoder(w).Encode(resp)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestRunEndToEnd drives the full loadgen loop against a fake service and
// checks the report and digest file; a second run must produce the same
// digest.
func TestRunEndToEnd(t *testing.T) {
	srv := fakeService(t)
	digestFile := filepath.Join(t.TempDir(), "digest.txt")
	args := []string{"-addr", srv.URL, "-mix", "batch", "-n", "40", "-c", "4",
		"-batch", "8", "-seed", "5", "-digest", digestFile}
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	report := out.String()
	for _, want := range []string{"mix=batch", "200=5", "p50=", "digest:"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	first, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(args, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("repeated runs produced different digests: %q vs %q", first, second)
	}
}

// TestRunIngestMix drives the ingest mix end-to-end: batches are accepted
// with 202, the oversized probe is refused with 413, and two runs of the
// same plan write identical (gold-only, epoch-stable) digests.
func TestRunIngestMix(t *testing.T) {
	srv := fakeService(t)
	digestFile := filepath.Join(t.TempDir(), "digest.txt")
	args := []string{"-addr", srv.URL, "-mix", "ingest", "-n", "24", "-c", "4",
		"-ingestevery", "4", "-seed", "3", "-digest", digestFile}
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	report := out.String()
	for _, want := range []string{"mix=ingest", "202=6", "413=1", "digest:"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	first, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(args, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("repeated ingest runs produced different digests: %q vs %q", first, second)
	}
}

func TestParseServerTiming(t *testing.T) {
	got := parseServerTiming("lru;dur=0.012, verify;dur=4.1,total;dur=4.5, weird, desc;x=1")
	want := map[string]float64{"lru": 0.012, "verify": 4.1, "total": 4.5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseServerTiming = %v, want %v", got, want)
	}
	if got := parseServerTiming(""); len(got) != 0 {
		t.Fatalf("empty header parsed to %v", got)
	}
}

// TestRunServerTiming: -server-timing prints the server attribution table
// and writes the same digest as a plain run — timing never leaks into the
// determinism contract — and ingest jobs enter the table like verifies.
func TestRunServerTiming(t *testing.T) {
	srv := fakeService(t)
	dir := t.TempDir()
	plain := filepath.Join(dir, "plain.txt")
	timed := filepath.Join(dir, "timed.txt")
	base := []string{"-addr", srv.URL, "-mix", "uniform", "-n", "12", "-c", "3", "-seed", "4"}

	var out bytes.Buffer
	if err := run(append(base, "-digest", plain), &out); err != nil {
		t.Fatalf("plain run: %v\n%s", err, out.String())
	}
	if strings.Contains(out.String(), "server-timing:") {
		t.Error("plain run printed a server-timing section")
	}

	out.Reset()
	if err := run(append(base, "-digest", timed, "-server-timing"), &out); err != nil {
		t.Fatalf("timed run: %v\n%s", err, out.String())
	}
	report := out.String()
	for _, want := range []string{"server-timing: 12 traced responses", "verify", "lru", "total"} {
		if !strings.Contains(report, want) {
			t.Errorf("timed report missing %q:\n%s", want, report)
		}
	}

	a, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(timed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("-server-timing changed the digest: %q vs %q", a, b)
	}

	// The ingest mix: 18 verifies, 6 document batches and the oversized
	// probe, every one of them traced.
	out.Reset()
	ingest := []string{"-addr", srv.URL, "-mix", "ingest", "-n", "24", "-c", "4",
		"-ingestevery", "4", "-seed", "3", "-server-timing"}
	if err := run(ingest, &out); err != nil {
		t.Fatalf("timed ingest run: %v\n%s", err, out.String())
	}
	report = out.String()
	for _, want := range []string{"server-timing: 25 traced responses", "\n  ingest "} {
		if !strings.Contains(report, want) {
			t.Errorf("timed ingest report missing %q:\n%s", want, report)
		}
	}
}

// TestConsensusDigestModeIndependent: a consensus-mix run under eager and
// the same plan under adaptive must write identical digests — the engine's
// early stopping changes the execution shape, never the verdicts.
func TestConsensusDigestModeIndependent(t *testing.T) {
	srv := fakeService(t)
	dir := t.TempDir()
	digests := map[string][]byte{}
	for _, mode := range []string{"eager", "adaptive"} {
		file := filepath.Join(dir, mode+".txt")
		args := []string{"-addr", srv.URL, "-mix", "consensus", "-consensus", mode,
			"-n", "20", "-c", "4", "-seed", "9", "-digest", file}
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("%s run: %v\n%s", mode, err, out.String())
		}
		d, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		digests[mode] = d
	}
	if !bytes.Equal(digests["eager"], digests["adaptive"]) {
		t.Fatalf("consensus digests differ across modes: %q vs %q", digests["eager"], digests["adaptive"])
	}
}

// TestConsensusModeMismatchViolation: a server ignoring ?mode= is a
// contract violation.
func TestConsensusModeMismatchViolation(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/facts", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"datasets": map[string][]string{"FactBench": {"fb-1"}}})
	})
	mux.HandleFunc("GET /v1/consensus/{fact}", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(serve.ConsensusResponse{FactID: r.PathValue("fact"), Mode: "eager", Final: true})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	var out bytes.Buffer
	err := run([]string{"-addr", srv.URL, "-mix", "consensus", "-consensus", "adaptive", "-n", "3", "-c", "1"}, &out)
	if err == nil || !strings.Contains(err.Error(), "contract violations") {
		t.Fatalf("run error = %v, want contract violations\n%s", err, out.String())
	}
}

// TestRunFlagsValidation covers the driver's own validation.
func TestRunFlagsValidation(t *testing.T) {
	// Bad flags must fail before any request reaches the server.
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { requests.Add(1) }))
	defer srv.Close()
	for _, args := range [][]string{
		{"-n", "0"},
		{"-c", "0"},
		{"-consensus", "serial"},
		{"-mix", "consensus", "-consensus", "serial"},
		{"-nope"},
		{"positional"},
	} {
		if err := run(append([]string{"-addr", srv.URL}, args...), &bytes.Buffer{}); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
	if n := requests.Load(); n != 0 {
		t.Errorf("flag errors reached the server with %d requests", n)
	}
}

// TestRunDetectsViolation: a server answering 500 must fail the run.
func TestRunDetectsViolation(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/facts", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"datasets": map[string][]string{"FactBench": {"fb-1"}}})
	})
	mux.HandleFunc("POST /v1/verify", func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "kaboom", http.StatusInternalServerError)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	var out bytes.Buffer
	err := run([]string{"-addr", srv.URL, "-n", "3", "-c", "1"}, &out)
	if err == nil || !strings.Contains(err.Error(), "contract violations") {
		t.Fatalf("run error = %v, want contract violations\n%s", err, out.String())
	}
}
