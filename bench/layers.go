package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"factcheck/internal/obs"
	"factcheck/internal/search"
	"factcheck/internal/serve"
)

// The program's own always-on instrumentation, read before and after a
// timed phase: the layer and endpoint histograms of the default obs
// registry, the search engine's counters, the service's counters and the
// Go runtime's.

// histNames lists the histograms the benchmark reads.
var histNames = func() []string {
	names := []string{
		"layer/ratelimit", "layer/admit", "layer/lru", "layer/coalesce", "layer/store",
		"layer/exec_wait", "layer/verify", "layer/search_query",
		"layer/rag_questions", "layer/rag_search", "layer/rag_rerank", "layer/rag_chunk",
		"endpoint/verify", "endpoint/consensus", "endpoint/documents",
	}
	for i := 0; i < 8; i++ {
		names = append(names, "layer/consensus_tier"+strconv.Itoa(i))
	}
	return names
}()

type hist struct {
	count uint64
	sum   time.Duration
}

// snapshot is one reading of the program's counters.
type snapshot struct {
	hists    map[string]hist
	search   search.Stats
	serve    serve.Stats
	mem      runtime.MemStats
	gcCPU    float64
	totalCPU float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func takeSnapshot(eng *search.Engine, svc *serve.Service) snapshot {
	s := snapshot{hists: map[string]hist{}}
	for _, n := range histNames {
		fam, label, _ := strings.Cut(n, "/")
		hs := obs.Default.Histogram(fam, label).Snapshot()
		s.hists[n] = hist{count: hs.Count, sum: hs.Sum}
	}
	s.search = eng.Stats()
	if svc != nil {
		s.serve = svc.Stats()
	}
	runtime.ReadMemStats(&s.mem)
	samples := append([]metrics.Sample(nil), cpuSamples...)
	metrics.Read(samples)
	s.gcCPU = samples[0].Value.Float64()
	s.totalCPU = samples[1].Value.Float64()
	return s
}

// delta is what happened between two snapshots.
type delta struct{ a, b snapshot }

func (d delta) hist(name string) hist {
	return hist{count: d.b.hists[name].count - d.a.hists[name].count, sum: d.b.hists[name].sum - d.a.hists[name].sum}
}

// meanUS is a histogram's mean observation in µs over the delta (0 when
// nothing was observed).
func (d delta) meanUS(name string) float64 {
	h := d.hist(name)
	if h.count == 0 {
		return 0
	}
	return us(h.sum) / float64(h.count)
}

// consensusDecideUS is the mean wall time of one consensus decision: the
// tier waves run one after another, and every decision runs tier 0.
func (d delta) consensusDecideUS() float64 {
	decisions := d.hist("layer/consensus_tier0").count
	if decisions == 0 {
		return 0
	}
	var sum time.Duration
	for i := 0; i < 8; i++ {
		sum += d.hist("layer/consensus_tier" + strconv.Itoa(i)).sum
	}
	return us(sum) / float64(decisions)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// programLayers fills the per-layer metrics the program's own counters
// give for a phase; requests is the number of requests the phase served
// (0 for the grid).
func programLayers(m metricSet, d delta, requests int64) {
	s := d.b.search
	a := d.a.search
	queries := float64(s.SearchQueries - a.SearchQueries)
	m.set("search.materialisations", "count", float64(s.Misses-a.Misses))
	m.set("search.evicted", "count", float64(s.Evicted-a.Evicted))
	m.set("search.postings_per_query", "count", ratio(float64(s.PostingsTouched-a.PostingsTouched), queries))
	m.set("search.docs_scored_per_query", "count", ratio(float64(s.DocsScored-a.DocsScored), queries))

	m.set("rag.retrievals", "count", float64(d.hist("layer/rag_questions").count))
	m.set("rag.questions_us", "us", d.meanUS("layer/rag_questions"))
	m.set("rag.search_us", "us", d.meanUS("layer/rag_search"))
	m.set("rag.rerank_us", "us", d.meanUS("layer/rag_rerank"))
	m.set("rag.chunk_us", "us", d.meanUS("layer/rag_chunk"))

	for _, l := range []string{"ratelimit", "admit", "lru", "coalesce", "store", "exec_wait", "verify"} {
		m.set("serve."+l+"_us", "us", d.meanUS("layer/"+l))
	}
	sv, sa := d.b.serve, d.a.serve
	answered := float64((sv.LRUHits - sa.LRUHits) + (sv.StoreHits - sa.StoreHits) + (sv.Computed - sa.Computed) + (sv.Coalesced - sa.Coalesced))
	m.set("serve.lru_hit_ratio", "ratio", ratio(float64(sv.LRUHits-sa.LRUHits), answered))
	m.set("serve.computed", "count", float64(sv.Computed-sa.Computed))
	m.set("serve.coalesced", "count", float64(sv.Coalesced-sa.Coalesced))
	m.set("serve.fills", "count", float64(sv.CellFills-sa.CellFills))
	m.set("serve.rejected", "count", float64((sv.RateLimited-sa.RateLimited)+(sv.QueueRejected-sa.QueueRejected)))
	m.set("serve.ingest_applied", "count", float64(sv.IngestApplied-sa.IngestApplied))
	m.set("serve.ingest_swept", "count", float64(sv.IngestSwept-sa.IngestSwept))
	m.set("serve.ingest_rejected", "count", float64(sv.IngestRejected-sa.IngestRejected))

	m.set("consensus.decide_us", "us", d.consensusDecideUS())
	dispatched := float64(sv.ConsensusDispatched - sa.ConsensusDispatched)
	skipped := float64(sv.ConsensusSkipped - sa.ConsensusSkipped)
	m.set("consensus.dispatched", "count", dispatched)
	m.set("consensus.skip_ratio", "ratio", ratio(skipped, dispatched+skipped))
	m.set("consensus.escalations", "count", float64(sv.ConsensusEscalations-sa.ConsensusEscalations))

	mallocs := float64(d.b.mem.Mallocs - d.a.mem.Mallocs)
	bytes := float64(d.b.mem.TotalAlloc - d.a.mem.TotalAlloc)
	m.set("serve.allocs_per_req", "count", ratio(mallocs, float64(requests)))
	m.set("serve.bytes_per_req", "B", ratio(bytes, float64(requests)))
	m.set("runtime.gc_cpu_share", "ratio", ratio(d.b.gcCPU-d.a.gcCPU, d.b.totalCPU-d.a.totalCPU))
	m.set("runtime.alloc_mb", "MB", bytes/(1<<20))
	m.set("runtime.gc_cycles", "count", float64(d.b.mem.NumGC-d.a.mem.NumGC))
}

// tracedLayers fills the per-layer metrics the benchmark's own spans
// give.
func tracedLayers(m metricSet, t *tracer) {
	meanUS := func(name string) float64 {
		calls, busy := t.layer(name)
		return ratio(us(busy), float64(calls))
	}
	searchCalls, _ := t.layer("search.search")
	m.set("search.calls", "count", float64(searchCalls))
	m.set("search.search_us", "us", meanUS("search.search"))
	m.set("search.fetch_us", "us", meanUS("search.fetch"))
	m.set("search.warm_ms", "ms", meanUS("search.warm")/1e3)
	m.set("rag.wait_us", "us", meanUS("rag.wait"))
	llmCalls, llmBusy := t.layer("llm.generate")
	m.set("llm.calls", "count", float64(llmCalls))
	m.set("llm.generate_us", "us", ratio(us(llmBusy), float64(llmCalls)))
	m.set("llm.prompt_tokens_per_call", "count", ratio(float64(t.promptTokens.Load()), float64(llmCalls)))
	verifies, verifyBusy := t.layer("strategy.verify")
	_, waitBusy := t.layer("rag.wait")
	m.set("strategy.verify_self_us", "us", ratio(us(verifyBusy-llmBusy-waitBusy), float64(verifies)))
	puts, putBusy := t.layer("results.put")
	m.set("results.put_ms", "ms", ratio(ms(putBusy), float64(puts)))
	m.set("results.cells_put", "count", float64(puts))
	m.set("serve.handler_us", "us", meanUS("serve.handler"))
}

// requireKeys fails when a metric the spec names was not measured.
func requireKeys(m metricSet, names []metricSpec) error {
	for _, n := range names {
		v, ok := m[n.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n.Name)
		}
		if v.Unit != n.Unit {
			return fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", n.Name, v.Unit, n.Unit)
		}
	}
	return nil
}
