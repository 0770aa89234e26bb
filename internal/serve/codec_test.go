package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// decodeBodyStream is decodeBodyLimit as a plain stream decode: the
// reference the pooled codec must answer exactly like.
func decodeBodyStream(w http.ResponseWriter, r *http.Request, v any, limit int64) *apiError {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return &apiError{status: http.StatusRequestEntityTooLarge,
				msg: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)}
		}
		return &apiError{status: http.StatusBadRequest, msg: "malformed request body: " + err.Error()}
	}
	return nil
}

// decodeOutcome is what a handler sees of one decode: the error it
// answers with, or the value it goes on with.
type decodeOutcome struct {
	status int
	msg    string
	value  any
}

func decodeWith(decode func(http.ResponseWriter, *http.Request, any, int64) *apiError, body []byte, target func() any, limit int64) decodeOutcome {
	v := target()
	r := httptest.NewRequest("POST", "/", bytes.NewReader(body))
	if aerr := decode(httptest.NewRecorder(), r, v, limit); aerr != nil {
		return decodeOutcome{status: aerr.status, msg: aerr.msg}
	}
	return decodeOutcome{status: http.StatusOK, value: v}
}

// decodeTargets are the request types the handlers decode.
var decodeTargets = []func() any{
	func() any { return new(VerifyRequest) },
	func() any { return new(BatchRequest) },
	func() any { return new(IngestRequest) },
}

// FuzzDecodeBodyMatchesDecoder holds decodeBody's pooled fast path equal
// to a plain json.Decoder stream decode on every request type: the same
// status, the same error text, and on success the same decoded value.
// limit is the body limit (0 stands for maxBodyBytes), so the fuzzer
// moves the limit across every body: values that end inside it with more
// bytes after it (decoded, not 413), values it cuts off (413), trailing
// data, unknown fields and non-object values.
func FuzzDecodeBodyMatchesDecoder(f *testing.F) {
	for _, seed := range []string{
		``,
		` `,
		`{`,
		`null`,
		`[]`,
		`"text"`,
		`12`,
		`true`,
		`{"dataset":1}`,
		`{"dataset":"FactBench","method":"DKA","model":"gemma2:9b","fact_id":"factbench-000000"}`,
		`{"dataset":"FactBench"} {"dataset":"YAGO"}`,
		`{"dataset":"FactBench"} trailing`,
		`{"dataset":"FactBench","unknown":[1,2,{"x":null}]}`,
		`{"requests":[{"dataset":"YAGO","fact_id":"yago-000001"},{}]}`,
		`{"requests":[{"dataset":"YAGO"},7]}`,
		`{"requests":null}`,
		`{"documents":[{"fact_id":"factbench-000000","title":"Fresh","text":"A new page."}]}`,
		`{"documents":"none"}`,
		"{\"dataset\":\"\\u00e9\\ud800\"}",
		"\ufeff{}",
	} {
		for _, limit := range []uint8{0, 1, 16, 40} {
			f.Add([]byte(seed), limit)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte, small uint8) {
		limit := int64(small)
		if limit == 0 {
			limit = maxBodyBytes
		}
		for _, target := range decodeTargets {
			want := decodeWith(decodeBodyStream, body, target, limit)
			got := decodeWith(decodeBodyLimit, body, target, limit)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("body %q (limit %d) into %T:\n got %+v\nwant %+v",
					body, limit, target(), got, want)
			}
		}
	})
}

// TestWriteJSONMatchesEncoder: the pooled encoder writes the bytes
// json.NewEncoder(w).Encode writes, with the same status and
// Content-Type, across repeated uses of the pool.
func TestWriteJSONMatchesEncoder(t *testing.T) {
	values := []any{
		&VerdictResponse{Dataset: "FactBench", Method: "RAG", Model: "gemma2:9b",
			FactID: "factbench-000034", Verdict: "true", Gold: true, Correct: true,
			LatencyMS: 412.5, Attempts: 1, PromptTokens: 1834, CompletionTokens: 41,
			Explanation: `quotes " and <html> & unicode é`, Source: "lru"},
		&ConsensusResponse{FactID: "yago-000001", Dataset: "YAGO", Method: "DKA",
			Votes: []VoteItem{{Model: "gemma2:9b", Verdict: "true"}, {Model: "mistral:7b", Verdict: "false"}},
			Final: true, Mode: "adaptive", Skipped: []string{"llama3.1:8b"}, LatencyMS: 0.25},
		map[string]string{"error": "malformed request body: unexpected EOF"},
		map[string]any{"datasets": map[string][]string{"YAGO": {"a", "b"}}},
		IngestResponse{Queued: 3},
	}
	for round := 0; round < 3; round++ {
		for i, v := range values {
			want := httptest.NewRecorder()
			want.Header().Set("Content-Type", "application/json")
			want.WriteHeader(http.StatusAccepted)
			if err := json.NewEncoder(want).Encode(v); err != nil {
				t.Fatal(err)
			}
			got := httptest.NewRecorder()
			writeJSON(got, http.StatusAccepted, v)
			if got.Code != want.Code || !reflect.DeepEqual(got.Header(), want.Header()) {
				t.Fatalf("value %d: status %d header %v, want %d %v", i, got.Code, got.Header(), want.Code, want.Header())
			}
			if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Fatalf("value %d: body %q, want %q", i, got.Body, want.Body)
			}
		}
	}
	// A value that does not marshal writes the status and no body, as the
	// plain encoder does, and leaves the pool usable.
	got := httptest.NewRecorder()
	writeJSON(got, http.StatusOK, map[string]float64{"x": math.NaN()})
	if got.Code != http.StatusOK || got.Body.Len() != 0 {
		t.Fatalf("unmarshalable value: status %d body %q", got.Code, got.Body)
	}
	got = httptest.NewRecorder()
	httpError(got, http.StatusBadRequest, "bad")
	if want := `{"error":"bad"}` + "\n"; got.Body.String() != want {
		t.Fatalf("after a failed encode: body %q, want %q", got.Body, want)
	}
}

// TestDecodeBodyOversizedAndTrailing pins the cases where reading the
// whole body could differ from streaming it: a value complete inside the
// limit is decoded even when the body runs past it, a value cut off by the
// limit is a 413, and data after the first value is ignored.
func TestDecodeBodyOversizedAndTrailing(t *testing.T) {
	pad := strings.Repeat(" ", maxBodyBytes)
	for _, tc := range []struct {
		body   string
		status int
	}{
		{`{"fact_id":"a"}` + pad, http.StatusOK},
		{`{"fact_id":"` + pad + `"}`, http.StatusRequestEntityTooLarge},
		{`{"fact_id":"a"} {"fact_id":"b"}`, http.StatusOK},
		{`{"fact_id":"a"} ]`, http.StatusOK},
		{`{"fact_id":"a"`, http.StatusBadRequest},
	} {
		var req VerifyRequest
		r := httptest.NewRequest("POST", "/", strings.NewReader(tc.body))
		status := http.StatusOK
		if aerr := decodeBody(httptest.NewRecorder(), r, &req); aerr != nil {
			status = aerr.status
		}
		if status != tc.status {
			t.Errorf("body %.40q: status %d, want %d", tc.body, status, tc.status)
		}
		if status == http.StatusOK && req.FactID != "a" {
			t.Errorf("body %.40q: decoded fact_id %q, want the first value's", tc.body, req.FactID)
		}
	}
}
