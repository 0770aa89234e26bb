// Command loadgen replays deterministic request mixes against a factcheckd
// endpoint and reports throughput and latency percentiles — the serving
// path's benchmark harness.
//
// Usage:
//
//	loadgen [-addr http://localhost:8095] [-mix uniform] [-n 1000] [-c 8]
//	        [-seed 1] [-method DKA] [-models m1,m2] [-batch 16]
//	        [-zipf 1.2] [-consensus adaptive] [-digest FILE]
//	        [-scenario FILE] [-server-timing]
//	        [-cpuprofile FILE] [-memprofile FILE]
//
// Mixes (all seeded, so a mix replays identically):
//
//	uniform  single verifies, facts drawn uniformly across all datasets
//	zipf     single verifies, zipf-skewed over a shuffled fact list — a
//	         hot-fact workload that exercises the verdict LRU and
//	         singleflight coalescing
//	batch    the same uniform draw grouped into /v1/verify/batch calls
//	consensus  GET /v1/consensus lookups drawn uniformly, executed under
//	         -consensus (eager or adaptive); digest lines carry only
//	         the mode-independent verdict (final/tie/gold), so an eager run
//	         and an adaptive run over the same plan must digest identically
//	         — the early-stop engine's cross-mode equivalence gate
//	ingest   uniform verifies with every -ingestevery'th job replaced by a
//	         POST /v1/documents batch (202 = accepted), plus one seeded
//	         oversized probe that must be refused with 413 — live ingestion
//	         racing the read path. Digest lines carry only the fact's gold
//	         label: verdict details may legitimately move across corpus
//	         epochs mid-run, the gold labels never do, so the digest is
//	         epoch-stable while still catching served-garbage regressions
//
// With -server-timing, every request carries the `X-Server-Timing: 1`
// header, forcing the daemon to trace it; loadgen reads the Server-Timing
// response headers and prints a server-side layer attribution table next
// to the client-observed percentiles, so the gap between the two (network
// + queueing outside traced layers) is visible at a glance. Timing never
// enters the digest: a -server-timing run writes the same digest file as
// a plain one.
//
// Every response is checked against the service's backpressure contract:
// anything other than 200, or 429/503/504 carrying a positive integer
// Retry-After (or a malformed/failed item inside a 200 batch), is a
// violation and makes loadgen exit nonzero. With -digest, a canonical
// FNV-64a digest of every distinct verdict is written to FILE; two runs
// whose every job's final outcome was served against the same store/scale
// must produce identical digests, whatever mix of cold, store-warm and
// LRU-warm answers served them. A run where any job ended unserved
// refuses to write the file (its verdict never entered the digest, which
// would make the digest depend on throttling timing): give the limiter
// headroom, or retry rejections until served via a scenario.
//
// With -scenario FILE, a named chaos scenario (scenarios/*.json) pins the
// plan and adds a client policy and pass/fail contract: retry_rejected
// re-issues 429/503/504 outcomes after honouring Retry-After pacing
// (bounded by retry_budget, each wait capped by max_retry_wait_ms);
// slow_loris trickles every Nth request body one byte per byte_delay_ms
// so a -read-timeout server proves it cuts slow senders; transport errors
// (timeout/reset/eof/refused) become tracked outcome classes budgeted by
// the contract instead of instant violations. The exit status is the
// scenario's verdict, so a CI chaos sweep is one loadgen call per
// scenario file.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"factcheck/internal/consensus"
	"factcheck/internal/llm"
	"factcheck/internal/prof"
	"factcheck/internal/search"
	"factcheck/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// target is one dataset's fact list, fetched from /v1/facts.
type target struct {
	dataset string
	facts   []string
}

// job is one HTTP request: a single verify (one reqs entry), a batch
// (several), a consensus lookup (consensusFact set, reqs empty), or a
// document ingestion (ingest set). stable restricts the verdict digest
// line to the epoch-independent gold label (ingest mix). expect413 marks
// the oversized ingest probe, whose only acceptable answer is a 413.
// loris trickles the request body one byte at a time (slow-loris
// scenarios); the server cutting such a sender loose is an expected,
// tracked outcome rather than a violation.
type job struct {
	reqs          []serve.VerifyRequest
	consensusFact string
	consensusMode string
	ingest        []search.IngestDoc
	stable        bool
	expect413     bool
	loris         bool
}

// buildPlan expands a mix into the exact request sequence: pure function
// of (mix, seed, targets, models, method, n, batch, zipfS, consensusMode),
// so a plan replays identically across runs and machines.
func buildPlan(mix string, seed int64, targets []target, models []string, method string, n, batchSize int, zipfS float64, consensusMode string, ingestEvery int) ([]job, error) {
	type pair struct{ dataset, fact string }
	var pairs []pair
	for _, t := range targets {
		for _, f := range t.facts {
			pairs = append(pairs, pair{t.dataset, f})
		}
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("no facts to draw from")
	}
	if len(models) == 0 {
		return nil, fmt.Errorf("no models to draw from")
	}
	rng := rand.New(rand.NewSource(seed))
	pick := func(i int) serve.VerifyRequest {
		var p pair
		switch mix {
		case "uniform", "batch", "ingest":
			p = pairs[rng.Intn(len(pairs))]
		default: // zipf: caller pre-validated
			p = pairs[i]
		}
		return serve.VerifyRequest{Dataset: p.dataset, Method: method, Model: models[rng.Intn(len(models))], FactID: p.fact}
	}
	var jobs []job
	switch mix {
	case "uniform":
		for i := 0; i < n; i++ {
			jobs = append(jobs, job{reqs: []serve.VerifyRequest{pick(0)}})
		}
	case "zipf":
		// Shuffle so the zipf head is an arbitrary (but seeded) set of hot
		// facts, then draw ranks.
		rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		if zipfS <= 1 {
			return nil, fmt.Errorf("-zipf must be > 1")
		}
		z := rand.NewZipf(rng, zipfS, 1, uint64(len(pairs)-1))
		for i := 0; i < n; i++ {
			jobs = append(jobs, job{reqs: []serve.VerifyRequest{pick(int(z.Uint64()))}})
		}
	case "batch":
		if batchSize < 1 {
			return nil, fmt.Errorf("-batch must be >= 1")
		}
		for done := 0; done < n; {
			size := batchSize
			if n-done < size {
				size = n - done
			}
			var b job
			for i := 0; i < size; i++ {
				b.reqs = append(b.reqs, pick(0))
			}
			jobs = append(jobs, b)
			done += size
		}
	case "consensus":
		for i := 0; i < n; i++ {
			p := pairs[rng.Intn(len(pairs))]
			jobs = append(jobs, job{consensusFact: p.fact, consensusMode: consensusMode})
		}
	case "ingest":
		if ingestEvery < 2 {
			return nil, fmt.Errorf("-ingestevery must be >= 2")
		}
		docSeq := 0
		for i := 0; i < n; i++ {
			if (i+1)%ingestEvery == 0 {
				p := pairs[rng.Intn(len(pairs))]
				jobs = append(jobs, job{ingest: []search.IngestDoc{{
					FactID: p.fact,
					Title:  fmt.Sprintf("Load-run live update %04d", docSeq),
					Text: fmt.Sprintf("Streamed evidence item %04d concerning %s, observed while the grid was serving traffic.",
						docSeq, p.fact),
				}}})
				docSeq++
				continue
			}
			jobs = append(jobs, job{reqs: []serve.VerifyRequest{pick(0)}, stable: true})
		}
		// One oversized probe at a seeded position: its body crosses the
		// service's 1 MiB request cap, so anything but a 413 refusal is a
		// contract violation.
		probe := job{expect413: true, ingest: []search.IngestDoc{{
			FactID: pairs[rng.Intn(len(pairs))].fact,
			Title:  "Oversized probe",
			Text:   strings.Repeat("x", (1<<20)+4096),
		}}}
		at := rng.Intn(len(jobs) + 1)
		jobs = append(jobs[:at], append([]job{probe}, jobs[at:]...)...)
	default:
		return nil, fmt.Errorf("unknown mix %q (want uniform, zipf, batch, consensus or ingest)", mix)
	}
	return jobs, nil
}

// outcome is one request's observation. status 0 means the request
// never got a response (transportErr holds why). retryAfter carries the
// parsed Retry-After of a retryable rejection, retries how many
// re-issues the final outcome took; transport is the tracked
// connection-failure class a scenario assigned, and lorisCut marks a
// slow-loris job the server cut loose as designed.
type outcome struct {
	status       int
	latency      time.Duration
	sources      map[string]int
	verdicts     map[string]string // canonical key -> canonical verdict line
	timing       map[string]float64
	violation    string
	retryAfter   int
	retries      int
	transportErr error
	transport    string
	lorisCut     bool
}

// send fires one request, stamping the force-trace header when the run
// wants server-side attribution.
func send(client *http.Client, method, url, contentType string, body io.Reader, timing bool) (*http.Response, error) {
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if timing {
		req.Header.Set("X-Server-Timing", "1")
	}
	return client.Do(req)
}

// parseServerTiming reads a Server-Timing header ("lru;dur=0.012,
// verify;dur=4.1, total;dur=4.5") into per-layer milliseconds. Entries
// without a dur are skipped; a missing header yields an empty map.
func parseServerTiming(h string) map[string]float64 {
	out := map[string]float64{}
	for _, entry := range strings.Split(h, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ";")
		name := strings.TrimSpace(parts[0])
		for _, p := range parts[1:] {
			p = strings.TrimSpace(p)
			if v, ok := strings.CutPrefix(p, "dur="); ok {
				var ms float64
				if _, err := fmt.Sscanf(v, "%g", &ms); err == nil {
					out[name] = ms
				}
			}
		}
	}
	return out
}

// verdictKeyLine canonicalises a verdict for the digest. Source is
// excluded on purpose: the same verdict served cold, store-warm or
// LRU-warm must digest identically.
func verdictKeyLine(v *serve.VerdictResponse) (string, string) {
	key := fmt.Sprintf("%s/%s/%s/%s", v.Dataset, v.Method, v.Model, v.FactID)
	line := fmt.Sprintf("verdict=%s gold=%v correct=%v latency_ms=%g attempts=%d pt=%d ct=%d expl=%q",
		v.Verdict, v.Gold, v.Correct, v.LatencyMS, v.Attempts, v.PromptTokens, v.CompletionTokens, v.Explanation)
	return key, line
}

// consensusKeyLine canonicalises a consensus answer for the digest. Only
// the mode-independent fields enter the line: Final, Tie and Gold are
// identical whichever execution strategy served them, so an eager run and
// an adaptive run over one plan digest identically — while a verdict
// regression in either engine path flips the digest.
func consensusKeyLine(v *serve.ConsensusResponse) (string, string) {
	key := fmt.Sprintf("consensus/%s/%s", v.Dataset, v.FactID)
	line := fmt.Sprintf("final=%v tie=%v gold=%v", v.Final, v.Tie, v.Gold)
	return key, line
}

// jobOpts carries per-request behaviour from the run into doJob.
type jobOpts struct {
	timing     bool
	lorisDelay time.Duration // per-byte body delay for loris jobs
}

// checkRetryAfter records a retryable rejection: the Retry-After must
// parse as positive integer seconds (stored for pacing), else the
// response violates the backpressure contract.
func (o *outcome) checkRetryAfter(resp *http.Response) {
	ra, err := retryAfterOf(resp.Header.Get("Retry-After"))
	if err != nil {
		o.violation = fmt.Sprintf("%d: %v", resp.StatusCode, err)
		return
	}
	o.retryAfter = ra
}

// request is the HTTP exchange a job makes: its method, URL and JSON body
// (nil for a consensus lookup), and the status that means served.
func (j job) request(addr string) (method, url string, payload []byte, ok int, err error) {
	switch {
	case j.consensusFact != "":
		return "GET", addr + "/v1/consensus/" + j.consensusFact + "?mode=" + j.consensusMode, nil, http.StatusOK, nil
	case j.ingest != nil:
		payload, err = json.Marshal(serve.IngestRequest{Documents: j.ingest})
		return "POST", addr + "/v1/documents", payload, http.StatusAccepted, err
	case len(j.reqs) > 1:
		payload, err = json.Marshal(serve.BatchRequest{Requests: j.reqs})
		return "POST", addr + "/v1/verify/batch", payload, http.StatusOK, err
	default:
		payload, err = json.Marshal(j.reqs[0])
		return "POST", addr + "/v1/verify", payload, http.StatusOK, err
	}
}

// doJob fires one job and classifies the result: a transport or read
// failure, a served answer decoded into the digest, a retryable rejection
// carrying Retry-After, or a contract violation. Ingestion answers 202
// when served; the oversized probe inverts the contract, so only a 413
// refusal is acceptable for it.
func doJob(client *http.Client, addr string, j job, opt jobOpts) outcome {
	o := outcome{sources: map[string]int{}, verdicts: map[string]string{}}
	method, url, payload, ok, err := j.request(addr)
	if err != nil {
		o.violation = "marshal: " + err.Error()
		return o
	}
	var body io.Reader
	contentType := ""
	if payload != nil {
		body, contentType = bytes.NewReader(payload), "application/json"
		if j.loris && opt.lorisDelay > 0 {
			body = &trickleReader{data: payload, delay: opt.lorisDelay}
		}
	}
	start := time.Now()
	resp, err := send(client, method, url, contentType, body, opt.timing)
	o.latency = time.Since(start)
	if err != nil {
		o.violation = "transport: " + err.Error()
		o.transportErr = err
		return o
	}
	defer resp.Body.Close()
	if opt.timing {
		o.timing = parseServerTiming(resp.Header.Get("Server-Timing"))
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		o.violation = "read: " + err.Error()
		o.transportErr = err
		return o
	}
	o.status = resp.StatusCode
	switch {
	case j.expect413:
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			o.violation = fmt.Sprintf("oversized ingest probe got %d, want 413", resp.StatusCode)
		}
		return o
	case resp.StatusCode == ok:
	case resp.StatusCode == http.StatusTooManyRequests, resp.StatusCode == http.StatusServiceUnavailable,
		resp.StatusCode == http.StatusGatewayTimeout:
		o.checkRetryAfter(resp)
		return o
	case j.ingest != nil:
		o.violation = fmt.Sprintf("unexpected ingest status %d: %.120s", resp.StatusCode, data)
		return o
	default:
		o.violation = fmt.Sprintf("unexpected status %d: %.120s", resp.StatusCode, data)
		return o
	}
	switch {
	case j.consensusFact != "":
		o.decodeConsensus(data, j.consensusMode)
	case j.ingest == nil:
		o.decodeVerdicts(data, j)
	}
	return o
}

// decodeConsensus records a served consensus answer, which must come from
// the requested execution mode.
func (o *outcome) decodeConsensus(data []byte, mode string) {
	var v serve.ConsensusResponse
	if err := json.Unmarshal(data, &v); err != nil {
		o.violation = "malformed consensus response: " + err.Error()
		return
	}
	if v.Mode != mode {
		o.violation = fmt.Sprintf("consensus mode %q served for requested %q", v.Mode, mode)
		return
	}
	key, line := consensusKeyLine(&v)
	o.verdicts[key] = line
}

// decodeVerdicts records a served single or batch verify answer; a batch
// must answer every request with a verdict.
func (o *outcome) decodeVerdicts(data []byte, j job) {
	record := func(v *serve.VerdictResponse) {
		o.sources[v.Source]++
		key, line := verdictKeyLine(v)
		if j.stable {
			// Ingestion is racing this request: verdict details depend on
			// which corpus epoch served it. Only the gold label is
			// epoch-independent.
			line = fmt.Sprintf("gold=%v", v.Gold)
		}
		o.verdicts[key] = line
	}
	if len(j.reqs) == 1 {
		var v serve.VerdictResponse
		if err := json.Unmarshal(data, &v); err != nil {
			o.violation = "malformed verdict: " + err.Error()
			return
		}
		record(&v)
		return
	}
	var b serve.BatchResponse
	if err := json.Unmarshal(data, &b); err != nil {
		o.violation = "malformed batch response: " + err.Error()
		return
	}
	if len(b.Results) != len(j.reqs) {
		o.violation = fmt.Sprintf("batch returned %d results for %d requests", len(b.Results), len(j.reqs))
		return
	}
	for i, item := range b.Results {
		if item.Verdict == nil {
			o.violation = fmt.Sprintf("batch item %d failed: %s", i, item.Error)
			return
		}
		record(item.Verdict)
	}
}

// doJobRetry runs one job under a scenario's client policy: retryable
// rejections (429/503/504) are re-issued after sleeping the server's
// Retry-After (capped per scenario), up to the retry budget; transport
// errors become tracked outcome classes instead of instant violations,
// and a cut slow-loris sender is an expected outcome. With no scenario
// the job runs exactly once with the historical semantics.
func doJobRetry(client *http.Client, addr string, j job, opt jobOpts, sc *Scenario) outcome {
	o := doJob(client, addr, j, opt)
	if sc == nil {
		return o
	}
	if sc.RetryRejected {
		for attempt := 0; o.violation == "" && o.retryAfter > 0 && attempt < sc.retryBudget(); attempt++ {
			time.Sleep(sc.retryWait(o.retryAfter))
			retries := o.retries + 1
			o = doJob(client, addr, j, opt)
			o.retries = retries
		}
	}
	// A cut slow-loris sender is the outcome the scenario exists to
	// provoke. The cut surfaces either as a connection-level failure or
	// as the server refusing the half-read body (400 after its read
	// deadline killed the decode, or a stdlib 408).
	if j.loris && (o.transportErr != nil ||
		o.status == http.StatusBadRequest || o.status == http.StatusRequestTimeout) {
		o.lorisCut = true
		o.violation = ""
		o.transportErr = nil
		return o
	}
	if o.transportErr != nil {
		o.transport = classifyTransport(o.transportErr)
		o.violation = ""
	}
	return o
}

// percentile returns the q-quantile of sorted latencies (nearest-rank).
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*q+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// digestOf folds the canonical verdict map into an order-independent
// FNV-64a digest.
func digestOf(verdicts map[string]string) uint64 {
	keys := make([]string, 0, len(verdicts))
	for k := range verdicts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, verdicts[k])
	}
	return h.Sum64()
}

// printServerTiming renders the server-side layer attribution accumulated
// from Server-Timing headers: mean milliseconds per layer over the traced
// responses, with each layer's share of the server-side total. "total" is
// the root request span, so the residual between it and the layer rows is
// handler work outside any instrumented layer.
func printServerTiming(out io.Writer, sum map[string]float64, traced int) {
	if traced == 0 {
		fmt.Fprintln(out, "server-timing: no traced responses (daemon built without tracing?)")
		return
	}
	layers := make([]string, 0, len(sum))
	for name := range sum {
		if name != "total" {
			layers = append(layers, name)
		}
	}
	// Biggest contributor first; name tie-break keeps the table stable.
	sort.Slice(layers, func(i, j int) bool {
		if sum[layers[i]] != sum[layers[j]] {
			return sum[layers[i]] > sum[layers[j]]
		}
		return layers[i] < layers[j]
	})
	total := sum["total"]
	fmt.Fprintf(out, "server-timing: %d traced responses, mean per layer:\n", traced)
	for _, name := range layers {
		share := 0.0
		if total > 0 {
			share = 100 * sum[name] / total
		}
		fmt.Fprintf(out, "  %-16s %10.3fms %5.1f%%\n", name, sum[name]/float64(traced), share)
	}
	fmt.Fprintf(out, "  %-16s %10.3fms\n", "total", total/float64(traced))
}

// fetchTargets lists the endpoint's facts per dataset, in sorted dataset
// order so plans are deterministic.
func fetchTargets(client *http.Client, addr string) ([]target, error) {
	resp, err := client.Get(addr + "/v1/facts")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/facts: status %d", resp.StatusCode)
	}
	var payload struct {
		Datasets map[string][]string `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(payload.Datasets))
	for n := range payload.Datasets {
		names = append(names, n)
	}
	sort.Strings(names)
	var ts []target
	for _, n := range names {
		ts = append(ts, target{dataset: n, facts: payload.Datasets[n]})
	}
	return ts, nil
}

// fetchStats snapshots the server's /statsz counters; loadgen prints the
// retrieval block so per-layer reports show how much posting-list and
// ranking work the run induced.
func fetchStats(client *http.Client, addr string) (serve.Stats, error) {
	var st serve.Stats
	resp, err := client.Get(addr + "/statsz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /statsz: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func run(args []string, out io.Writer) error {
	fs := newFlagSet()
	if err := fs.fs.Parse(args); err != nil {
		return err
	}
	if fs.fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.fs.Args())
	}
	// Effective plan parameters: flags, overridden by any scenario field
	// the file pins.
	mix, n, c, seed := *fs.mix, *fs.n, *fs.c, *fs.seed
	method, models := *fs.method, strings.Split(*fs.models, ",")
	batch, zipfS := *fs.batch, *fs.zipfS
	consensusMode, ingestEvery := *fs.consensus, *fs.ingestEvery
	timeout := *fs.timeout
	var sc *Scenario
	if *fs.scenario != "" {
		var err error
		if sc, err = loadScenario(*fs.scenario); err != nil {
			return err
		}
		if sc.Mix != "" {
			mix = sc.Mix
		}
		if sc.N > 0 {
			n = sc.N
		}
		if sc.C > 0 {
			c = sc.C
		}
		if sc.Seed != 0 {
			seed = sc.Seed
		}
		if sc.Method != "" {
			method = sc.Method
		}
		if len(sc.Models) > 0 {
			models = sc.Models
		}
		if sc.Batch > 0 {
			batch = sc.Batch
		}
		if sc.ZipfS > 0 {
			zipfS = sc.ZipfS
		}
		if sc.Consensus != "" {
			consensusMode = sc.Consensus
		}
		if sc.IngestEvery > 0 {
			ingestEvery = sc.IngestEvery
		}
		if sc.TimeoutMS > 0 {
			timeout = time.Duration(sc.TimeoutMS) * time.Millisecond
		}
	}
	if n <= 0 || c <= 0 {
		return fmt.Errorf("-n and -c must be positive")
	}
	if _, err := consensus.ParseMode(consensusMode); err != nil {
		return fmt.Errorf("-consensus: %w", err)
	}
	stopProf, profErr := fs.prof.Start()
	if profErr != nil {
		return profErr
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", perr)
		}
	}()
	client := &http.Client{Timeout: timeout}
	addr := strings.TrimSuffix(*fs.addr, "/")
	targets, err := fetchTargets(client, addr)
	if err != nil {
		return err
	}
	jobs, err := buildPlan(mix, seed, targets, models, method, n, batch, zipfS, consensusMode, ingestEvery)
	if err != nil {
		return err
	}
	opt := jobOpts{timing: *fs.serverTiming}
	if sc != nil && sc.SlowLoris != nil {
		opt.lorisDelay = time.Duration(sc.SlowLoris.ByteDelayMS) * time.Millisecond
		markLoris(jobs, sc.SlowLoris.Every)
	}

	var (
		next        atomic.Int64
		mu          sync.Mutex
		latencies   []time.Duration
		statuses    = map[int]int{}
		sources     = map[string]int{}
		verdicts    = map[string]string{}
		transports  = map[string]int{}
		timingSum   = map[string]float64{}
		traced      int
		retried     int
		unserved    int
		lorisCut    int
		lorisServed int
		violations  []string
		wg          sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				o := doJobRetry(client, addr, jobs[i], opt, sc)
				// A job's final outcome counts as served when it got the
				// answer its contract wants — 200/202, or the 413 refusal
				// the oversized probe exists to provoke.
				served := o.violation == "" &&
					(o.status == http.StatusOK || o.status == http.StatusAccepted ||
						(jobs[i].expect413 && o.status == http.StatusRequestEntityTooLarge))
				mu.Lock()
				// Percentiles describe served verdicts only: a 429/503
				// rejection returns in microseconds and would drag p50
				// toward the rejection path instead of verification cost.
				if o.status == http.StatusOK && o.violation == "" {
					latencies = append(latencies, o.latency)
				}
				statuses[o.status]++
				for s, n := range o.sources {
					sources[s] += n
				}
				for k, l := range o.verdicts {
					verdicts[k] = l
				}
				if len(o.timing) > 0 {
					traced++
					for layer, ms := range o.timing {
						timingSum[layer] += ms
					}
				}
				retried += o.retries
				if o.transport != "" {
					transports[o.transport]++
				}
				switch {
				case o.lorisCut:
					lorisCut++
				case !served:
					unserved++
				case jobs[i].loris:
					lorisServed++
				}
				if o.violation != "" {
					violations = append(violations, o.violation)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	digest := digestOf(verdicts)
	fmt.Fprintf(out, "loadgen: mix=%s n=%d c=%d requests=%d elapsed=%.2fs throughput=%.1f req/s\n",
		mix, n, c, len(jobs), elapsed.Seconds(), float64(len(jobs))/elapsed.Seconds())
	if sc != nil {
		fmt.Fprintf(out, "scenario: %s retries=%d unserved=%d", sc.Name, retried, unserved)
		var classes []string
		for class := range transports {
			classes = append(classes, class)
		}
		sort.Strings(classes)
		for _, class := range classes {
			fmt.Fprintf(out, " transport_%s=%d", class, transports[class])
		}
		if sc.SlowLoris != nil {
			fmt.Fprintf(out, " loris_cut=%d loris_served=%d", lorisCut, lorisServed)
		}
		fmt.Fprintln(out)
	}
	var codes []int
	for code := range statuses {
		codes = append(codes, code)
	}
	sort.Ints(codes)
	fmt.Fprintf(out, "status: ")
	for _, code := range codes {
		fmt.Fprintf(out, " %d=%d", code, statuses[code])
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "latency: p50=%s p95=%s p99=%s max=%s\n",
		percentile(latencies, 0.50), percentile(latencies, 0.95),
		percentile(latencies, 0.99), percentile(latencies, 1.0))
	fmt.Fprintf(out, "sources: lru=%d store=%d computed=%d\n", sources["lru"], sources["store"], sources["computed"])
	if *fs.serverTiming {
		printServerTiming(out, timingSum, traced)
	}
	if st, err := fetchStats(client, addr); err != nil {
		fmt.Fprintf(out, "retrieval: unavailable (%v)\n", err)
	} else {
		fmt.Fprintf(out, "retrieval: queries=%d postings_touched=%d docs_scored=%d\n",
			st.Retrieval.SearchQueries, st.Retrieval.PostingsTouched, st.Retrieval.DocsScored)
		fmt.Fprintf(out, "consensus: requests=%d dispatched=%d skipped=%d escalations=%d arbiters=%d\n",
			st.ConsensusRequests, st.ConsensusDispatched, st.ConsensusSkipped,
			st.ConsensusEscalations, st.ConsensusArbiters)
	}
	fmt.Fprintf(out, "digest: %016x (%d distinct verdicts)\n", digest, len(verdicts))
	if *fs.digest != "" {
		// An unserved job's verdict never entered the map, so the digest
		// would depend on which jobs happened to be rejected or cut —
		// refuse to write a timing-dependent file. Final outcomes decide:
		// a job rejected with 429/503/504 and then served on a scenario
		// retry contributes its verdict like any other.
		if unserved > 0 {
			return fmt.Errorf("digest requested but %d jobs ended unserved; "+
				"the digest is only deterministic when every job's final outcome is served — "+
				"raise the server's -rate/-queue, lower -n/-c, or retry rejections via a "+
				"scenario's retry_rejected", unserved)
		}
		line := fmt.Sprintf("%016x %d\n", digest, len(verdicts))
		if err := os.WriteFile(*fs.digest, []byte(line), 0o644); err != nil {
			return err
		}
	}
	if sc != nil {
		transportErrs := 0
		for _, n := range transports {
			transportErrs += n
		}
		violations = append(violations, sc.Contract.check(unserved, transportErrs)...)
	}
	if len(violations) > 0 {
		max := len(violations)
		if max > 10 {
			max = 10
		}
		for _, v := range violations[:max] {
			fmt.Fprintf(out, "violation: %s\n", v)
		}
		return fmt.Errorf("%d contract violations", len(violations))
	}
	return nil
}

// flags bundles the flag set so run stays testable.
type flags struct {
	fs           *flag.FlagSet
	addr         *string
	mix          *string
	n, c         *int
	seed         *int64
	method       *string
	models       *string
	batch        *int
	zipfS        *float64
	consensus    *string
	ingestEvery  *int
	scenario     *string
	digest       *string
	serverTiming *bool
	timeout      *time.Duration
	prof         *prof.Flags
}

func newFlagSet() *flags {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	return &flags{
		fs:           fs,
		addr:         fs.String("addr", "http://localhost:8095", "factcheckd base URL"),
		mix:          fs.String("mix", "uniform", "request mix: uniform, zipf, batch, consensus or ingest"),
		n:            fs.Int("n", 1000, "number of verify requests to issue"),
		c:            fs.Int("c", 8, "concurrent workers"),
		seed:         fs.Int64("seed", 1, "plan seed (same seed -> identical request sequence)"),
		method:       fs.String("method", string(llm.MethodDKA), "verification method for every request"),
		models:       fs.String("models", strings.Join(llm.BenchmarkModels, ","), "comma-separated models to draw from"),
		batch:        fs.Int("batch", 16, "requests per batch call (batch mix)"),
		zipfS:        fs.Float64("zipf", 1.2, "zipf skew exponent (zipf mix; > 1)"),
		consensus:    fs.String("consensus", "adaptive", "consensus execution mode (consensus mix): eager or adaptive"),
		ingestEvery:  fs.Int("ingestevery", 8, "replace every Nth job with a document ingestion (ingest mix; >= 2)"),
		scenario:     fs.String("scenario", "", "run a named chaos scenario from this JSON file (see scenarios/); its fields override plan flags"),
		digest:       fs.String("digest", "", "write the verdict digest to this file"),
		serverTiming: fs.Bool("server-timing", false, "force a server trace per request (X-Server-Timing: 1) and print the server-side layer attribution"),
		timeout:      fs.Duration("timeout", 60*time.Second, "per-request HTTP timeout"),
		prof:         prof.Register(fs),
	}
}
