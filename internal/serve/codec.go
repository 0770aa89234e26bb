package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
)

// maxBodyBytes caps request bodies: the backpressure contract bounds
// memory end to end, so the decoder must not materialise an arbitrarily
// large body before validation runs. 1 MiB fits any legal batch with room
// to spare.
const maxBodyBytes = 1 << 20

// maxPooledBuffer is the largest buffer the codec pools return to their
// pool; a rare large body or response does not keep its size alive.
const maxPooledBuffer = 64 << 10

// bodyBufs recycles request-body buffers.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decodeBody decodes a JSON request body under maxBodyBytes, mapping an
// oversized body to 413 and malformed JSON to 400.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) *apiError {
	return decodeBodyLimit(w, r, v, maxBodyBytes)
}

// decodeBodyLimit is decodeBody under a body limit of limit bytes. Its
// answer is exactly json.NewDecoder(body).Decode's: the first JSON value
// is decoded and anything after it ignored. A complete body that is one
// valid value decodes straight from a pooled buffer; every other body (a
// read error, an oversized body, trailing data, malformed JSON) is
// replayed through json.Decoder, so the status and the message are the
// decoder's own.
func decodeBodyLimit(w http.ResponseWriter, r *http.Request, v any, limit int64) *apiError {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	buf := bodyBufs.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		if buf.Cap() <= maxPooledBuffer {
			bodyBufs.Put(buf)
		}
	}()
	_, rerr := buf.ReadFrom(r.Body)
	if rerr == nil && json.Unmarshal(buf.Bytes(), v) == nil {
		return nil
	}
	// Where the decoder can succeed after Unmarshal failed, the body is
	// not one valid value, which Unmarshal checks before it touches v. The
	// read error, sticky in MaxBytesReader, follows the buffered bytes as
	// it followed them in the stream.
	var src io.Reader = bytes.NewReader(buf.Bytes())
	if rerr != nil {
		src = io.MultiReader(src, r.Body)
	}
	if err := json.NewDecoder(src).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return &apiError{status: http.StatusRequestEntityTooLarge,
				msg: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)}
		}
		return &apiError{status: http.StatusBadRequest, msg: "malformed request body: " + err.Error()}
	}
	return nil
}

// jsonContentType is the Content-Type of every JSON response, shared so
// that setting it allocates nothing.
var jsonContentType = []string{"application/json"}

// jsonEncoder is a pooled encoder over its own buffer. The buffer never
// fails a write, so the encoder never latches an error across uses.
type jsonEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonEncoders = sync.Pool{New: func() any {
	e := new(jsonEncoder)
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

// writeJSON writes v with status. The body is byte-equal to
// json.NewEncoder(w).Encode(v), written in one Write, and empty when v
// does not marshal.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	e := jsonEncoders.Get().(*jsonEncoder)
	e.buf.Reset()
	if e.enc.Encode(v) == nil {
		_, _ = w.Write(e.buf.Bytes())
	}
	if e.buf.Cap() <= maxPooledBuffer {
		jsonEncoders.Put(e)
	}
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
