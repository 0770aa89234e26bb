package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"factcheck/internal/core"
	"factcheck/internal/llm"
	"factcheck/internal/resilience"
	"factcheck/internal/search"
	"factcheck/internal/serve"
)

// serveShape distinguishes the three serving workloads.
type serveShape struct {
	// stored deploys the way the CI serving gate does: a grid run fills
	// an on-disk store, the service opens it with background cell fills
	// on, and an untimed warm-up hydrates the verdict LRU.
	stored bool
	// writes replaces every fiftieth read with a document write.
	writes bool
	// sweep visits every verify key once instead of the zipf mix.
	sweep bool
}

func (c runConfig) shape() (serveShape, float64) {
	switch c.workload {
	case "serve-hot":
		return serveShape{stored: true}, c.size.hotScale
	case "serve-ingest":
		return serveShape{stored: true, writes: true}, c.size.hotScale
	}
	return serveShape{sweep: true}, c.size.sweepScale
}

// rig is one deployed service on a loopback HTTP server, wired as the
// factcheckd command wires it.
type rig struct {
	b      *core.Benchmark
	svc    *serve.Service
	srv    *http.Server
	served chan error
	url    string
	ts     *tracedSearcher
	open   time.Duration // core.OpenStore of the grid-filled store
}

func serveConfig(c runConfig, scale float64) core.Config {
	return core.Config{
		Scale: scale, Small: c.size.small, WorldConfig: worldConfig(c.seed, c.size.small),
		Parallelism: nproc(), Resilience: &resilience.Config{},
	}
}

// startRig builds the benchmark and service and starts serving. With a
// tracer, the RAG pipeline's searcher and the HTTP handler are wrapped so
// the tracer can record them once it is switched on.
func startRig(ctx context.Context, c runConfig, shape serveShape, scale float64, dir string, t *tracer) (*rig, error) {
	cfg := serveConfig(c, scale)
	storeDir := ""
	if shape.stored {
		storeDir = dir
		fill, err := core.OpenStore(dir)
		if err != nil {
			return nil, err
		}
		if _, err := core.NewBenchmark(cfg).Run(ctx, core.WithStore(fill)); err != nil {
			return nil, fmt.Errorf("filling the store: %w", err)
		}
	}
	r := &rig{b: core.NewBenchmark(cfg), served: make(chan error, 1)}
	if t != nil {
		r.ts = &tracedSearcher{eng: r.b.Engine, t: t}
		r.b.Pipeline.Searcher = r.ts
	}
	start := time.Now()
	store, err := core.OpenStore(storeDir)
	if err != nil {
		return nil, err
	}
	r.open = time.Since(start)
	r.svc = serve.New(r.b, store, serve.Config{
		QueueDepth: 64, Workers: nproc(), CacheCapacity: 1 << 16,
		// One client address would otherwise be held to 50 requests per
		// second; the CI serving gate raises the limit the same way.
		Rate: 1e9, Burst: 1e9,
		FillCells: shape.stored,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.svc.Drain()
		return nil, err
	}
	var h http.Handler = r.svc.Handler()
	if t != nil {
		h = tracedHandler(h, t)
	}
	r.srv = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	r.url = "http://" + ln.Addr().String()
	go func() { r.served <- r.srv.Serve(ln) }()
	return r, nil
}

// close stops serving and drains the service.
func (r *rig) close() error {
	r.svc.StartDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := r.srv.Shutdown(ctx)
	if serr := <-r.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	r.svc.Drain()
	return err
}

// client is one closed-loop caller on its own keep-alive connection.
type client struct {
	hc   *http.Client
	body []byte
	resp bytes.Buffer
	line []byte
	vr   serve.VerdictResponse
	cr   serve.ConsensusResponse

	samples              []float64 // round trip (ms) of each timed request; +Inf when it failed
	failed, ok           int64
	givAttempts, givRuns int64
	led                  *ledger
	wrong                error // first misrouted answer
}

func newClients(n int) []*client {
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = &client{
			hc: &http.Client{Transport: &http.Transport{
				MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
			}},
			led: newLedger(),
		}
	}
	return cs
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.hc.CloseIdleConnections()
	}
}

// phase is one closed-loop pass over a slice of the plan.
type phase struct {
	from, to int       // plan positions to draw from
	deadline time.Time // zero: run to the end of the slice
	timed    bool      // record latencies and outcomes
	traced   *tracer   // non-nil: open client spans and force Server-Timing
}

// drive runs the clients over ops[from:to]: each client claims the next
// plan position, sends it and waits for the answer before claiming
// another, until the slice or the deadline runs out. Positions are claimed
// in plan order, so exactly ops[from:end] were sent.
func drive(cs []*client, w *workload, ph phase) (end int, elapsed time.Duration) {
	var next atomic.Int64
	next.Store(int64(ph.from))
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				if !ph.deadline.IsZero() && !time.Now().Before(ph.deadline) {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= ph.to {
					return
				}
				c.do(w, i, ph)
			}
		}(c)
	}
	wg.Wait()
	return min(int(next.Load()), ph.to), time.Since(start)
}

// workload is what the clients need to know about a serve run.
type workload struct {
	url      string
	u        universe
	ops      []op
	goldOnly map[string]bool
}

func (c *client) do(w *workload, i int, ph phase) {
	o := w.ops[i]
	var req *http.Request
	var err error
	switch o.kind {
	case opVerify:
		r := w.u.request(o.arg)
		c.body = append(c.body[:0], `{"dataset":`...)
		c.body = strconv.AppendQuote(c.body, r.Dataset)
		c.body = append(c.body, `,"method":`...)
		c.body = strconv.AppendQuote(c.body, r.Method)
		c.body = append(c.body, `,"model":`...)
		c.body = strconv.AppendQuote(c.body, r.Model)
		c.body = append(c.body, `,"fact_id":`...)
		c.body = strconv.AppendQuote(c.body, r.FactID)
		c.body = append(c.body, '}')
		req, err = http.NewRequest(http.MethodPost, w.url+"/v1/verify", bytes.NewReader(c.body))
	case opConsensus:
		req, err = http.NewRequest(http.MethodGet, w.url+"/v1/consensus/"+w.u.pairs[o.arg].fact, nil)
	case opIngest:
		c.body, err = json.Marshal(serve.IngestRequest{Documents: []search.IngestDoc{ingestDoc(w.u, i, o.arg)}})
		if err == nil {
			req, err = http.NewRequest(http.MethodPost, w.url+"/v1/documents", bytes.NewReader(c.body))
		}
	}
	if err != nil {
		panic(err) // the URL and body are built by the benchmark itself
	}
	sp := ph.traced.begin("client", nil, 0)
	if sp != nil {
		sp.req = sp.id
		req.Header.Set("X-Server-Timing", "1")
		req.Header.Set(spanHeader, strconv.FormatInt(sp.id, 10))
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	status := 0
	if err == nil {
		c.resp.Reset()
		_, err = c.resp.ReadFrom(resp.Body)
		resp.Body.Close()
		status = resp.StatusCode
	}
	d := time.Since(start)
	ph.traced.end(sp)
	want := http.StatusOK
	if o.kind == opIngest {
		want = http.StatusAccepted
	}
	served := err == nil && status == want
	if ph.timed {
		lat := ms(d)
		if served {
			c.ok++
		} else {
			lat = math.Inf(1)
			c.failed++
		}
		c.samples = append(c.samples, lat)
	}
	if !served {
		return
	}
	switch o.kind {
	case opVerify:
		c.vr = serve.VerdictResponse{}
		if err := json.Unmarshal(c.resp.Bytes(), &c.vr); err != nil {
			c.misrouted(fmt.Errorf("malformed verdict: %w", err))
			return
		}
		r := w.u.request(o.arg)
		if c.vr.Dataset != r.Dataset || c.vr.Method != r.Method || c.vr.Model != r.Model || c.vr.FactID != r.FactID {
			c.misrouted(fmt.Errorf("asked for %s, answered %s/%s/%s/%s", keyName(w.u, o.arg), c.vr.Dataset, c.vr.Method, c.vr.Model, c.vr.FactID))
			return
		}
		if w.goldOnly[r.FactID] {
			c.line = appendGoldLine(c.line[:0], c.vr.Gold)
		} else {
			c.line = appendVerdictLine(c.line[:0], &c.vr)
		}
		c.led.add(o.arg, hashLine(c.line))
		if ph.timed && (r.Method == string(llm.MethodGIVZ) || r.Method == string(llm.MethodGIVF)) {
			c.givAttempts += int64(c.vr.Attempts)
			c.givRuns++
		}
	case opConsensus:
		c.cr = serve.ConsensusResponse{}
		if err := json.Unmarshal(c.resp.Bytes(), &c.cr); err != nil {
			c.misrouted(fmt.Errorf("malformed consensus: %w", err))
			return
		}
		fact := w.u.pairs[o.arg].fact
		if c.cr.FactID != fact {
			c.misrouted(fmt.Errorf("asked consensus on %s, answered %s", fact, c.cr.FactID))
			return
		}
		if w.goldOnly[fact] {
			c.line = appendGoldLine(c.line[:0], c.cr.Gold)
		} else {
			c.line = appendConsensusLine(c.line[:0], c.cr.Final, c.cr.Tie, c.cr.Gold)
		}
		c.led.add(consensusKey(o.arg), hashLine(c.line))
	}
}

func (c *client) misrouted(err error) {
	if c.wrong == nil {
		c.wrong = err
	}
}

// phaseStats sums the clients' timed requests since reset.
type phaseStats struct {
	samples              []float64
	ok, failed           int64
	givAttempts, givRuns int64
}

func collect(cs []*client) phaseStats {
	var s phaseStats
	for _, c := range cs {
		s.samples = append(s.samples, c.samples...)
		s.ok += c.ok
		s.failed += c.failed
		s.givAttempts += c.givAttempts
		s.givRuns += c.givRuns
		c.samples, c.ok, c.failed, c.givAttempts, c.givRuns = nil, 0, 0, 0, 0
	}
	return s
}

// runServe is the serve-hot, serve-sweep and serve-ingest workload. It
// deploys the service serveSetups times in turn. Each deployment is timed
// from construction to the end of its warm-up, serves its share of the
// run's time budget in the closed loop, and has its answers checked; a
// whole deployment can run fast or slow, so the run spreads its time over
// several. setup_s is the median deployment; throughput and latency cover
// every timed request of every deployment. A traced run adds a traced
// phase to the last deployment.
func runServe(ctx context.Context, c runConfig) (*result, error) {
	shape, scale := c.shape()
	res := &result{Correct: true, Metrics: metricSet{}, Info: map[string]any{}}
	n := c.size.serveSetups
	budget := c.seconds / time.Duration(n)
	var (
		w           *workload
		setups, lat []float64
		served      int64
		timed       time.Duration
		digest      string
	)
	for i := 0; i < n; i++ {
		var t *tracer
		if c.trace && i == n-1 {
			t = newTracer()
			t.off()
		}
		start := time.Now()
		r, err := startRig(ctx, c, shape, scale, filepath.Join(c.workDir, fmt.Sprintf("store-%d", i)), t)
		if err != nil {
			return nil, err
		}
		if w == nil {
			// Planning is the benchmark's work, not the service's set-up.
			planStart := time.Now()
			w = newWorkload(c, shape, r)
			start = start.Add(time.Since(planStart))
		}
		d, err := serveDeployment(ctx, c, r, w, start, budget, t, res)
		if cerr := r.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		// A daemon never carries a retired deployment's heap; collect it
		// here rather than in the next deployment's timed phase.
		runtime.GC()
		if digest != "" && d.digest != digest {
			return nil, fmt.Errorf("%s: deployments answered differently (digests %s and %s)", c.workload, digest, d.digest)
		}
		digest = d.digest
		setups = append(setups, d.setup.Seconds())
		lat = append(lat, d.st.samples...)
		served += d.st.ok
		timed += d.elapsed
		res.Attempted += d.st.ok + d.st.failed
		res.Failed += d.st.failed
	}
	res.Metrics.set("setup_s", "s", median(setups))
	res.Metrics.set("throughput_rps", "1/s", float64(served)/timed.Seconds())
	latencyMetrics(res, lat)
	res.Info["digest"] = digest
	return res, nil
}

// deployment is what one deployment of the service measured.
type deployment struct {
	setup, elapsed time.Duration // set-up, and the timed phase
	st             phaseStats    // the timed phase's requests
	digest         string
}

// serveDeployment warms the freshly started rig, runs the timed phase for
// budget (and, with a tracer, a traced phase of the same length that fills
// res's per-layer metrics), and checks the answers. start is when the
// rig's construction began.
func serveDeployment(ctx context.Context, c runConfig, r *rig, w *workload, start time.Time, budget time.Duration, t *tracer, res *result) (deployment, error) {
	var d deployment
	shape, _ := c.shape()
	cs := newClients(nproc())
	defer closeClients(cs)
	w.url = r.url
	if shape.stored {
		warm := &workload{url: r.url, u: w.u, ops: cellOps(w.u), goldOnly: w.goldOnly}
		drive(cs, warm, phase{to: len(warm.ops)})
	}
	from := min(c.size.warmup, len(w.ops))
	drive(cs, w, phase{to: from})
	d.setup = time.Since(start)
	// The store fill's and the warm-up's garbage is set-up's, not the
	// timed phase's.
	runtime.GC()

	end, elapsed := drive(cs, w, phase{from: from, to: len(w.ops), deadline: time.Now().Add(budget), timed: true})
	st := collect(cs)
	fmt.Fprintf(c.log, "%s: set-up %.2fs, then %d requests in %.2fs (plan positions %d..%d, %.0f rps), %d failed\n",
		c.workload, d.setup.Seconds(), st.ok+st.failed, elapsed.Seconds(), from, end, float64(st.ok)/elapsed.Seconds(), st.failed)
	d.st, d.elapsed = st, elapsed

	if t != nil {
		t.on()
		before := takeSnapshot(r.b.Engine, r.svc)
		_, tElapsed := drive(cs, w, phase{from: end, to: len(w.ops), deadline: time.Now().Add(budget), timed: true, traced: t})
		after := takeSnapshot(r.b.Engine, r.svc)
		t.off()
		tst := collect(cs)
		if tst.failed > 0 {
			return d, fmt.Errorf("%s: %d of %d traced requests failed", c.workload, tst.failed, tst.ok+tst.failed)
		}
		m := res.Metrics
		programLayers(m, delta{before, after}, tst.ok+tst.failed)
		if m["rag.retrievals"].Value > 0 && r.ts.fetchEvidence.Load() == 0 {
			return d, fmt.Errorf("%s: traced searcher saw no FetchEvidence calls; the RAG pipeline left its sparse path", c.workload)
		}
		tracedLayers(m, t)
		clientCalls, clientBusy := t.layer("client")
		handlerCalls, handlerBusy := t.layer("serve.handler")
		rows, unattributed := t.table(clientBusy, "serve.handler")
		printTable(c.log, c.workload+" traced phase", rows, clientBusy, unattributed)
		m.set("serve.http_us", "us", ratio(us(clientBusy-handlerBusy), float64(clientCalls)))
		m.set("serve.unattributed_us", "us", ratio(us(unattributed), float64(handlerCalls)))
		m.set("bench.unattributed_share", "ratio", share(unattributed, clientBusy))
		m.set("bench.trace_overhead", "ratio", ratio(float64(st.ok)/elapsed.Seconds(), float64(tst.ok)/tElapsed.Seconds())-1)
		m.set("strategy.giv_attempts_per_verify", "count", ratio(float64(tst.givAttempts), float64(tst.givRuns)))
		m.set("results.open_ms", "ms", ms(r.open))
		m.set("results.cells_put", "count", m["serve.fills"].Value)
		m.set("core.run_s", "s", 0)
		m.set("core.consensus_s", "s", 0)
		m.set("core.render_s", "s", 0)
		m.set("core.pool_util", "ratio", 0)
		res.tracer = t
	}

	var err error
	d.digest, err = checkServe(ctx, c, w, r.b, cs)
	return d, err
}

// newWorkload plans a serve run: the warm-up, then at most maxOps timed
// requests. The plan does not depend on the time budget, so neither do
// the facts it writes documents for, nor, through them, the pinned digest.
func newWorkload(c runConfig, shape serveShape, r *rig) *workload {
	u := newUniverse(r.b)
	w := &workload{u: u}
	n := c.size.warmup + c.size.maxOps
	if shape.sweep {
		w.ops = sweepPlan(u, c.seed)
		w.ops = w.ops[:min(n, len(w.ops))]
	} else {
		w.ops = hotPlan(u, c.seed, n, shape.writes)
	}
	w.goldOnly = ingestedFacts(u, w.ops)
	return w
}

func mergeLedgers(cs []*client) *ledger {
	led := newLedger()
	for _, c := range cs {
		led.merge(c.led)
	}
	return led
}

// checkServe checks every answer of one deployment and returns its answer
// digest: no client saw a misrouted or malformed answer, no key was
// answered two ways, every read among the plan's first `pinned` positions
// was answered and their digest matches the pin, and the deployment's
// share of the sampled answers equal a direct VerifyFact.
func checkServe(ctx context.Context, c runConfig, w *workload, b *core.Benchmark, cs []*client) (string, error) {
	for _, cl := range cs {
		if cl.wrong != nil {
			return "", fmt.Errorf("%s: %w", c.workload, cl.wrong)
		}
	}
	led := mergeLedgers(cs)
	digest, err := prefixDigest(w.u, w.ops, c.size.pinned, led)
	if err != nil {
		return "", fmt.Errorf("%s: %w", c.workload, err)
	}
	if err := checkDigest(c.workload+" answer", digest, c.pins[c.workload]); err != nil {
		return "", err
	}
	ref := newReference(b, w.u, w.goldOnly)
	n := c.size.serveSetups
	keys := sampleKeys(led, c.seed, (c.size.verifySamples+n-1)/n)
	if err := checkSample(ctx, w.u, led, keys, nproc(), ref.lineHash); err != nil {
		return "", fmt.Errorf("%s: %w", c.workload, err)
	}
	return digest, nil
}
