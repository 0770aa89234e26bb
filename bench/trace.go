package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"factcheck/internal/llm"
	"factcheck/internal/search"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public call it makes (or, for the serving stack, read back from the
// service's Server-Timing header). slots > 1 marks a container that
// spans that many parallel workers, so its busy time is wall × slots.
type span struct {
	name   string
	id     int64
	parent *span
	req    int64
	start  time.Time
	slots  int
}

// unlinked is the parent of spans whose caller passes no context the
// benchmark can follow (searches issued inside the service).
var unlinked = &span{name: "?", id: -1}

// maxLoggedSpans caps the spans kept for the JSON-lines file; aggregates
// cover every span.
const maxLoggedSpans = 50_000

// tracer keeps span aggregates per (layer, parent layer) and a capped log
// of individual spans in memory, and writes the log out at the end of the
// run. A nil tracer records nothing, so untraced runs pay one nil check.
type tracer struct {
	enabled atomic.Bool
	nextID  atomic.Int64
	// promptTokens sums the prompt tokens of traced generation calls.
	promptTokens atomic.Int64

	mu      sync.Mutex
	t0      time.Time
	rows    map[[2]string]*rowAgg
	log     []spanRecord
	dropped int
}

type rowAgg struct {
	calls int64
	busy  time.Duration
}

// spanRecord is one span as written to the JSON-lines file. Parent is -1
// for a root or a span whose caller is unknown; times are microseconds
// from the start of the traced phase.
type spanRecord struct {
	Name    string  `json:"name"`
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent"`
	Req     int64   `json:"req"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// newTracer returns a tracer that records from now on.
func newTracer() *tracer {
	t := &tracer{rows: map[[2]string]*rowAgg{}}
	t.on()
	return t
}

// on starts recording; span times in the log count from here.
func (t *tracer) on() {
	t.mu.Lock()
	t.t0 = time.Now()
	t.mu.Unlock()
	t.enabled.Store(true)
}

// off stops recording new spans.
func (t *tracer) off() { t.enabled.Store(false) }

// begin opens a span under parent (nil for a root). It returns nil when
// the tracer is nil or off.
func (t *tracer) begin(name string, parent *span, req int64) *span {
	if t == nil || !t.enabled.Load() {
		return nil
	}
	return &span{name: name, id: t.nextID.Add(1), parent: parent, req: req, start: time.Now(), slots: 1}
}

// stage opens a span that holds all of its parent's worker slots: a step
// of the grid pass that has the whole machine to itself, whether or not
// it keeps every worker busy.
func (t *tracer) stage(name string, parent *span) *span {
	s := t.begin(name, parent, 0)
	if s != nil {
		s.slots = parent.slots
	}
	return s
}

// end closes a span.
func (t *tracer) end(s *span) {
	if t == nil || s == nil {
		return
	}
	t.record(s, time.Now())
}

// child records a finished span known only by its duration (a
// Server-Timing entry): it is placed at its parent's start.
func (t *tracer) child(name string, parent *span, dur time.Duration) {
	if t == nil || parent == nil || !t.enabled.Load() {
		return
	}
	s := &span{name: name, id: t.nextID.Add(1), parent: parent, req: parent.req, start: parent.start, slots: 1}
	t.record(s, parent.start.Add(dur))
}

func (t *tracer) record(s *span, end time.Time) {
	pname, pid := "", int64(-1)
	if s.parent != nil {
		pname, pid = s.parent.name, s.parent.id
	}
	dur := end.Sub(s.start)
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.rows[[2]string{s.name, pname}]
	if r == nil {
		r = &rowAgg{}
		t.rows[[2]string{s.name, pname}] = r
	}
	r.calls++
	r.busy += dur * time.Duration(s.slots)
	if len(t.log) >= maxLoggedSpans {
		t.dropped++
		return
	}
	t.log = append(t.log, spanRecord{
		Name: s.name, ID: s.id, Parent: pid, Req: s.req,
		StartUS: float64(s.start.Sub(t.t0)) / 1e3,
		EndUS:   float64(end.Sub(t.t0)) / 1e3,
	})
}

// layer sums a layer's calls and busy time over every parent.
func (t *tracer) layer(name string) (calls int64, busy time.Duration) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for k, r := range t.rows {
		if k[0] == name {
			calls += r.calls
			busy += r.busy
		}
	}
	return calls, busy
}

// writeSpans writes the span log as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.log {
		if err := enc.Encode(&t.log[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type spanKey struct{}

func withSpan(ctx context.Context, s *span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

func spanFrom(ctx context.Context) *span {
	s, _ := ctx.Value(spanKey{}).(*span)
	return s
}

// tableRow is one layer of the per-workload attribution table.
type tableRow struct {
	name, parent string
	depth        int
	calls        int64
	busy, self   time.Duration
}

// table folds the aggregates into a layer tree. A layer's self time is its
// busy time minus the busy time of spans linked to it as their parent.
// total is the end-to-end time the shares are taken of; the self time of
// the container layers in unowned is time inside the measured operation
// that no layer owns, reported as the unattributed row.
func (t *tracer) table(total time.Duration, unowned ...string) (rows []tableRow, unattributed time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	byParent := map[string][]*tableRow{}
	childBusy := map[string]time.Duration{}
	for k, r := range t.rows {
		row := &tableRow{name: k[0], parent: k[1], calls: r.calls, busy: r.busy}
		byParent[k[1]] = append(byParent[k[1]], row)
		childBusy[k[1]] += r.busy
	}
	for _, kids := range byParent {
		sort.Slice(kids, func(i, j int) bool {
			if kids[i].busy != kids[j].busy {
				return kids[i].busy > kids[j].busy
			}
			return kids[i].name < kids[j].name
		})
	}
	// childBusy is keyed by layer name, so a layer reached under two
	// parents sheds its children's time from the row with the most busy
	// time only; each layer name appears once per parent.
	shed := map[string]bool{}
	var walk func(parent string, depth int)
	walk = func(parent string, depth int) {
		for _, r := range byParent[parent] {
			r.depth = depth
			r.self = r.busy
			if !shed[r.name] {
				shed[r.name] = true
				r.self -= childBusy[r.name]
			}
			rows = append(rows, *r)
			if depth < 8 {
				walk(r.name, depth+1)
			}
		}
	}
	walk("", 0)
	walk(unlinked.name, 0)
	for _, r := range rows {
		for _, u := range unowned {
			if r.name == u {
				unattributed += r.self
			}
		}
	}
	return rows, unattributed
}

// printTable renders the attribution table.
func printTable(w io.Writer, title string, rows []tableRow, total, unattributed time.Duration) {
	fmt.Fprintf(w, "%s: end-to-end %.1f ms\n", title, ms(total))
	fmt.Fprintf(w, "  %-30s %10s %12s %12s %10s %7s\n", "layer", "calls", "busy ms", "self ms", "mean µs", "share")
	for _, r := range rows {
		name := strings.Repeat("  ", r.depth) + r.name
		if r.parent == unlinked.name {
			name = r.name + " (caller unknown)"
		}
		mean := 0.0
		if r.calls > 0 {
			mean = us(r.busy) / float64(r.calls)
		}
		fmt.Fprintf(w, "  %-30s %10d %12.1f %12.1f %10.2f %6.1f%%\n",
			name, r.calls, ms(r.busy), ms(r.self), mean, 100*share(r.busy, total))
	}
	fmt.Fprintf(w, "  %-30s %10s %12s %12.1f %10s %6.1f%%\n", "unattributed", "", "", ms(unattributed), "", 100*share(unattributed, total))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func share(part, total time.Duration) float64 {
	if total <= 0 {
		return 0
	}
	return float64(part) / float64(total)
}

// tracedSearcher is installed as the RAG pipeline's searcher in traced
// runs. It implements search.Searcher, search.Warmer and
// search.EvidenceFetcher, so the pipeline stays on its sparse path, and
// times each call. Searches carry no context, so a span finds its parent
// through the fact it concerns: callers that open a span per fact
// register it with enter.
type tracedSearcher struct {
	eng *search.Engine
	t   *tracer

	active        sync.Map // fact ID -> *span
	fetchEvidence atomic.Int64
}

func (s *tracedSearcher) enter(factID string, sp *span) { s.active.Store(factID, sp) }
func (s *tracedSearcher) leave(factID string)           { s.active.Delete(factID) }

func (s *tracedSearcher) parent(factID string) *span {
	if sp, ok := s.active.Load(factID); ok {
		return sp.(*span)
	}
	return unlinked
}

// Search implements search.Searcher.
func (s *tracedSearcher) Search(factID, query string, n int) ([]search.SERPItem, error) {
	sp := s.t.begin("search.search", s.parent(factID), 0)
	defer s.t.end(sp)
	return s.eng.Search(factID, query, n)
}

// Fetch implements search.Searcher.
func (s *tracedSearcher) Fetch(docID string) (search.DocPayload, error) {
	sp := s.t.begin("search.fetch", s.parent(factOfDoc(docID)), 0)
	defer s.t.end(sp)
	return s.eng.Fetch(docID)
}

// FetchEvidence implements search.EvidenceFetcher.
func (s *tracedSearcher) FetchEvidence(docID string) (search.DocEvidence, error) {
	s.fetchEvidence.Add(1)
	sp := s.t.begin("search.fetch", s.parent(factOfDoc(docID)), 0)
	defer s.t.end(sp)
	return s.eng.FetchEvidence(docID)
}

// Warm implements search.Warmer.
func (s *tracedSearcher) Warm(factID string) error {
	sp := s.t.begin("search.warm", s.parent(factID), 0)
	defer s.t.end(sp)
	return s.eng.Warm(factID)
}

// factOfDoc strips the "-dNNNN" suffix the corpus generator gives
// document IDs.
func factOfDoc(docID string) string {
	if i := strings.LastIndex(docID, "-d"); i > 0 {
		return docID[:i]
	}
	return docID
}

// tracedModel times every generation call of the wrapped model under the
// span in the call's context, and counts its prompt tokens.
type tracedModel struct {
	llm.Model
	t *tracer
}

// Generate implements llm.Model.
func (m tracedModel) Generate(ctx context.Context, req llm.Request) (llm.Response, error) {
	parent := spanFrom(ctx)
	var reqID int64
	if parent != nil {
		reqID = parent.req
	}
	sp := m.t.begin("llm.generate", parent, reqID)
	resp, err := m.Model.Generate(ctx, req)
	m.t.end(sp)
	m.t.promptTokens.Add(int64(resp.Usage.PromptTokens))
	return resp, err
}

// spanHeader carries the client span's ID to the handler wrapper, which
// links the handler span under it.
const spanHeader = "X-Bench-Span"

// tracedHandler times the service's handler and records the layer
// durations of the service's own Server-Timing header as its children.
func tracedHandler(h http.Handler, t *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		sp := t.begin("serve.handler", &span{name: "client", id: id}, id)
		h.ServeHTTP(w, r)
		t.end(sp)
		for name, dur := range parseServerTiming(w.Header().Get("Server-Timing")) {
			if name != "total" {
				t.child("serve."+name, sp, dur)
			}
		}
	})
}

// parseServerTiming reads a Server-Timing header ("lru;dur=0.012,
// verify;dur=4.1, total;dur=4.5") into per-layer durations.
func parseServerTiming(h string) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, entry := range strings.Split(h, ",") {
		name, params, ok := strings.Cut(strings.TrimSpace(entry), ";")
		if !ok {
			continue
		}
		for _, p := range strings.Split(params, ";") {
			if v, ok := strings.CutPrefix(strings.TrimSpace(p), "dur="); ok {
				if msv, err := strconv.ParseFloat(v, 64); err == nil {
					out[name] += time.Duration(msv * float64(time.Millisecond))
				}
			}
		}
	}
	return out
}
