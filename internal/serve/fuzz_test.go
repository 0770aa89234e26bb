package serve

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"factcheck/internal/core"
)

// FuzzServeRequestBodies posts arbitrary bytes to every endpoint that
// decodes a request body, on one service with rate limiting out of the
// way. No body may panic a handler, every status must be one the API
// documents, and every non-2xx answer must carry a JSON error message.
func FuzzServeRequestBodies(f *testing.F) {
	for _, seed := range []string{
		``,
		`{`,
		`null`,
		`[]`,
		`{"dataset":1}`,
		`{"dataset":"FactBench","method":"DKA","model":"gemma2:9b","fact_id":"factbench-000000"}`,
		`{"dataset":"FactBench","method":"RAG","model":"no-such-model","fact_id":"factbench-000000"}`,
		`{"requests":[{"dataset":"YAGO","method":"GIV-Z","model":"mistral:7b","fact_id":"yago-000001"},{}]}`,
		`{"requests":null}`,
		`{"documents":[{"fact_id":"factbench-000000","title":"Fresh","text":"A new page."}]}`,
		`{"documents":[{"fact_id":"no-such-fact","title":"t","text":"x"}]}`,
		`{"documents":[]}` + strings.Repeat(" ", 64),
	} {
		f.Add([]byte(seed))
	}
	// Ingestion changes the engine, so the service gets its own benchmark.
	svc := New(core.NewBenchmark(core.TestConfig()), core.NewMemoryStore(), Config{Rate: 1e9, Burst: 1e9})
	f.Cleanup(svc.Drain)
	h := svc.Handler()
	allowed := map[int]bool{200: true, 202: true, 400: true, 404: true, 413: true, 429: true, 503: true}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/v1/verify", "/v1/verify/batch", "/v1/documents"} {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest("POST", path, bytes.NewReader(body)))
			if !allowed[w.Code] {
				t.Fatalf("POST %s %q: status %d: %s", path, body, w.Code, w.Body)
			}
			if w.Code < 300 {
				continue
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("POST %s %q: status %d without a JSON error: %q", path, body, w.Code, w.Body)
			}
		}
	})
}
