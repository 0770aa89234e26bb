package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestPromlint(t *testing.T) {
	const valid = `# HELP factcheck_requests_total requests
# TYPE factcheck_requests_total counter
factcheck_requests_total 12
`
	var out bytes.Buffer
	if err := run(nil, strings.NewReader(valid), &out); err != nil {
		t.Fatalf("valid exposition on stdin rejected: %v", err)
	}
	if out.String() != "promlint: ok\n" {
		t.Errorf("ok line = %q", out.String())
	}

	file := filepath.Join(t.TempDir(), "metrics.txt")
	if err := os.WriteFile(file, []byte(valid), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{file}, strings.NewReader("ignored"), io.Discard); err != nil {
		t.Fatalf("valid exposition file rejected: %v", err)
	}

	dup := valid + "factcheck_requests_total 13\n"
	if err := run(nil, strings.NewReader(dup), io.Discard); err == nil || !strings.Contains(err.Error(), "duplicate series") {
		t.Fatalf("duplicate series: got %v, want a duplicate-series error", err)
	}
	if err := run([]string{filepath.Join(t.TempDir(), "missing")}, nil, io.Discard); err == nil {
		t.Fatal("missing lint file not reported")
	}
	if err := run([]string{file, file}, nil, io.Discard); err == nil {
		t.Fatal("two file arguments not rejected")
	}
}
