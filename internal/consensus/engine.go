package consensus

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"factcheck/internal/dataset"
	"factcheck/internal/obs"
	"factcheck/internal/resilience"
	"factcheck/internal/strategy"
)

// tierNames and tierHists cache per-tier wave span names and histograms
// so Decide names a wave without allocating and records it with a single
// atomic add. Plans never exceed a handful of tiers (tier 0 is a quorum,
// each escalation adds one voter); deeper waves build their span name and
// collapse into the last histogram slot.
var (
	tierNames = func() (n [8]string) {
		for i := range n {
			n[i] = "consensus_tier" + strconv.Itoa(i)
		}
		return
	}()
	tierHists = func() (h [8]*obs.Histogram) {
		for i := range h {
			h[i] = obs.Layer(tierNames[i])
		}
		return
	}()
)

func tierName(wi int) string {
	if wi < len(tierNames) {
		return tierNames[wi]
	}
	return "consensus_tier" + strconv.Itoa(wi)
}

func tierHist(wi int) *obs.Histogram {
	if wi >= len(tierHists) {
		wi = len(tierHists) - 1
	}
	return tierHists[wi]
}

// Mode names an execution strategy of the consensus engine. All modes
// produce identical Final/Tie verdicts for a given voter set — an
// execution strategy changes when votes are fetched, never what they
// decide — which is what keeps early stopping out of the result-store
// fingerprint.
type Mode string

const (
	// ModeEager fetches every vote concurrently and waits for all of
	// them: the run-everything golden baseline (the package-level Decide
	// semantics, fanned out).
	ModeEager Mode = "eager"
	// ModeAdaptive dispatches the plan's cost-ordered tiers, checking the
	// Settled bound between tiers: once the majority is mathematically
	// decided the remaining voters are skipped, and expensive voters run
	// only when the cheap quorum disagrees.
	ModeAdaptive Mode = "adaptive"
)

// ParseMode validates a mode string (e.g. a ?mode= query parameter).
func ParseMode(s string) (Mode, error) {
	switch m := Mode(s); m {
	case ModeEager, ModeAdaptive:
		return m, nil
	}
	return "", fmt.Errorf("consensus: unknown mode %q (want eager or adaptive)", s)
}

// Plan is a deterministic dispatch schedule over a voter set. Build it
// with NewPlan; the zero value is an empty plan.
type Plan struct {
	// Order lists every voter in dispatch order: cost ascending with a
	// lexicographic tie-break, so the schedule depends only on the voter
	// set, never on input order.
	Order []string
	// Tiers cuts Order into dispatch waves. Tiers[0] is the cheapest
	// quorum able to settle a majority on its own (⌊n/2⌋+1 voters — any
	// smaller first wave could at best reach an even split, which the
	// Settled bound can never decide early); each later tier escalates
	// exactly one more voter, most expensive last.
	Tiers [][]string
}

// NewPlan builds the tier schedule for a voter set. cost prices one
// verification on a voter (see llm.Cost); a nil cost ranks voters
// lexicographically.
func NewPlan(voters []string, cost func(string) float64) Plan {
	if cost == nil {
		cost = func(string) float64 { return 0 }
	}
	order := append([]string(nil), voters...)
	sort.SliceStable(order, func(i, j int) bool {
		ci, cj := cost(order[i]), cost(order[j])
		if ci != cj {
			return ci < cj
		}
		return order[i] < order[j]
	})
	var tiers [][]string
	if len(order) > 0 {
		quorum := len(order)/2 + 1
		tiers = append(tiers, order[:quorum:quorum])
		for i := quorum; i < len(order); i++ {
			tiers = append(tiers, order[i:i+1:i+1])
		}
	}
	return Plan{Order: order, Tiers: tiers}
}

// Fetch resolves one voter's outcome for the fact under decision. The
// engine calls it for the votes Engine.Lookup does not hold, concurrently
// when a wave has two or more of them; implementations route it through
// whatever verdict stack they own (the serving layer's LRU/store/executor,
// a precomputed result set, ...).
type Fetch func(ctx context.Context, model string) (strategy.Outcome, error)

// RunStats counts the work one Decide actually performed, for the serving
// layer's /statsz counters.
type RunStats struct {
	// Dispatched and Skipped partition the plan's voters.
	Dispatched int
	Skipped    int
	// Escalations counts tiers dispatched beyond the first.
	Escalations int
	// ArbiterCalls counts tie-breaks.
	ArbiterCalls int
}

// Engine decides facts under one plan and mode.
type Engine struct {
	Plan Plan
	Mode Mode
	// Arbiter breaks ties when set.
	Arbiter Arbiter
	// AllowTie reports an unresolved tie in the Decision instead of
	// failing when no Arbiter is set (the serving layer's contract; the
	// offline reports keep Decide's tie-is-an-error behaviour).
	AllowTie bool
	// Degrade settles with the surviving ensemble when a voter is
	// unavailable (hard-down model, open circuit breaker — see
	// resilience.IsUnavailable) instead of erroring the whole decision:
	// the unavailable voters are reported in Decision.Unavailable, cast
	// no vote, and shrink the majority bound. Every voter unavailable is
	// still an error — there is no ensemble left to decide. Transient
	// (retry-exhausted) and semantic failures error regardless; only
	// dependency unavailability is survivable.
	Degrade bool
	// Lookup, when set, resolves the votes the caller already holds (a
	// precomputed result set, a warm cache) before any Fetch: a vote it
	// finds is resolved inline, and only the misses go to Fetch —
	// concurrently only when a wave has two or more of them. Lookup runs on
	// the calling goroutine. Verdicts, skip sets and latencies are
	// identical with and without it.
	Lookup func(model string) (strategy.Outcome, bool)
}

// errPending marks a wave slot Lookup did not resolve: the vote still
// needs a Fetch.
var errPending = errors.New("consensus: vote pending")

// Decide runs the engine for one fact. Every mode yields identical
// Final/Tie verdicts; they differ in which votes are fetched when, and in
// the honesty of LatencySeconds (decided-at time: per-tier critical paths
// summed, a skipped vote is never waited on). Early stopping is checked
// only at tier boundaries, so the skip set is a deterministic function of
// (plan, fact) — independent of scheduling, parallelism and timing.
func (e *Engine) Decide(ctx context.Context, f *dataset.Fact, fetch Fetch) (Decision, RunStats, error) {
	var st RunStats
	n := len(e.Plan.Order)
	if n == 0 {
		return Decision{}, st, fmt.Errorf("consensus: empty plan deciding fact %s", f.ID)
	}
	var waves [][]string
	switch e.Mode {
	case ModeEager:
		waves = [][]string{e.Plan.Order}
	case ModeAdaptive:
		waves = e.Plan.Tiers
	default:
		return Decision{}, st, fmt.Errorf("consensus: unknown mode %q", e.Mode)
	}

	d := Decision{FactID: f.ID, Gold: f.Gold, Mode: e.Mode}
	trues, falses := 0, 0
	var unavailErr error
	for wi, wave := range waves {
		if wi > 0 {
			if _, settled := Settled(trues, falses, n); settled {
				break
			}
			st.Escalations++
		}
		wouts := make([]strategy.Outcome, len(wave))
		werrs := make([]error, len(wave))
		wctx, endWave := obs.StartSpan(ctx, tierName(wi))
		waveStart := time.Now()
		misses := 0
		for i, m := range wave {
			if e.Lookup != nil {
				if o, ok := e.Lookup(m); ok {
					wouts[i] = o
					continue
				}
			}
			werrs[i] = errPending
			misses++
		}
		if misses < 2 {
			for i, m := range wave {
				if werrs[i] == errPending {
					wouts[i], werrs[i] = fetch(wctx, m)
				}
			}
		} else {
			var wg sync.WaitGroup
			for i, m := range wave {
				if werrs[i] != errPending {
					continue
				}
				wg.Add(1)
				go func(i int, m string) {
					defer wg.Done()
					wouts[i], werrs[i] = fetch(wctx, m)
				}(i, m)
			}
			wg.Wait()
		}
		tierHist(wi).Observe(time.Since(waveStart))
		endWave()
		lat := 0.0
		for i, m := range wave {
			if werrs[i] != nil {
				if e.Degrade && resilience.IsUnavailable(werrs[i]) {
					// The voter's dependency is down, not the vote wrong:
					// drop it from the ensemble. n shrinks with it, so the
					// Settled bound at the next tier boundary is over the
					// survivors.
					d.Unavailable = append(d.Unavailable, m)
					if unavailErr == nil {
						unavailErr = werrs[i]
					}
					n--
					continue
				}
				return Decision{}, st, fmt.Errorf("consensus: %s vote on %s: %w", m, f.ID, werrs[i])
			}
			o := wouts[i]
			if o.FactID != f.ID {
				return Decision{}, st, fmt.Errorf("consensus: outcome fact %s != %s", o.FactID, f.ID)
			}
			d.Votes = append(d.Votes, Vote{Model: m, Verdict: o.Verdict})
			if o.Verdict.Bool() {
				trues++
			} else {
				falses++
			}
			if s := o.Latency.Seconds(); s > lat {
				lat = s // a fanned-out wave pays its critical path
			}
		}
		st.Dispatched += len(wave)
		d.TierLatencySeconds = append(d.TierLatencySeconds, lat)
		d.LatencySeconds += lat
	}
	if st.Skipped = len(e.Plan.Order) - st.Dispatched; st.Skipped > 0 {
		d.Skipped = append([]string(nil), e.Plan.Order[st.Dispatched:]...)
	}
	// Wrapping the first voter's error keeps the unavailability
	// classification (resilience.IsUnavailable) intact, so the serving
	// layer maps an all-down ensemble to 503, not 500.
	if len(d.Votes) == 0 {
		return Decision{}, st, fmt.Errorf("consensus: every voter unavailable for %s (%v): %w", f.ID, d.Unavailable, unavailErr)
	}

	// A partial dispatch only ever stops settled, so the majority of the
	// cast votes equals the full-ensemble majority and a tie implies every
	// voter was heard.
	d.Final, d.Tie = Majority(d.Votes)
	if d.Tie {
		switch {
		case e.Arbiter != nil:
			st.ArbiterCalls++
			if err := BreakTie(ctx, &d, f, e.Arbiter); err != nil {
				return Decision{}, st, err
			}
		case !e.AllowTie:
			return Decision{}, st, fmt.Errorf("consensus: tie on %s with no arbiter", f.ID)
		}
	}
	return d, st, nil
}
