package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"factcheck/internal/dataset"
	"factcheck/internal/llm"
	"factcheck/internal/serve"
)

func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{"-addr", ":9000", "-small", "-scale", "0.05",
		"-queue", "8", "-rate", "10", "-fill=false", "-store", "/tmp/x",
		"-trace-sample", "0.25", "-trace-seed", "t1", "-trace-ring", "64",
		"-pprof", "127.0.0.1:6060"})
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
		{"positional"},
		{"-nope"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%v) succeeded, want error", args)
		}
	}
}

func TestBuildServiceSmoke(t *testing.T) {
	o, err := parseFlags([]string{"-small", "-scale", "0.05", "-fill=false",
		"-store", filepath.Join(t.TempDir(), "store")})
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	svc, err := buildService(o, &log)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	h := svc.Handler()

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/healthz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("healthz: %d", w.Code)
	}

	// One end-to-end verdict through the wired service.
	var facts struct {
		Datasets map[string][]string `json:"datasets"`
	}
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/facts", nil))
	if err := json.Unmarshal(w.Body.Bytes(), &facts); err != nil {
		t.Fatal(err)
	}
	ids := facts.Datasets[string(dataset.FactBench)]
	if len(ids) == 0 {
		t.Fatal("no FactBench facts listed")
	}
	body, _ := json.Marshal(serve.VerifyRequest{
		Dataset: string(dataset.FactBench), Method: string(llm.MethodDKA),
		Model: llm.Gemma2, FactID: ids[0],
	})
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/verify", bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("verify: %d %s", w.Code, w.Body.String())
	}
	var resp serve.VerdictResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.FactID != ids[0] || resp.Source != "computed" {
		t.Fatalf("verdict = %+v", resp)
	}
	if !strings.Contains(log.String(), "cell snapshots loaded") {
		t.Fatalf("store log line missing: %q", log.String())
	}
}

func TestBuildServiceBadStore(t *testing.T) {
	// A store path that is a regular file must fail loudly.
	dir := t.TempDir()
	file := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	o, err := parseFlags([]string{"-small", "-scale", "0.05", "-store", file})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := buildService(o, io.Discard); err == nil {
		t.Fatal("buildService succeeded with a file as -store, want error")
	}
}
