// Package strategy implements the benchmark's verification strategies
// (paper §3.1–3.2): Direct Knowledge Assessment (DKA), Guided Iterative
// Verification in zero- and few-shot form (GIV-Z / GIV-F) with the
// re-prompting protocol for non-conformant outputs, and Retrieval-Augmented
// Generation (RAG) on top of the rag pipeline.
package strategy

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"
	"unique"

	"factcheck/internal/dataset"
	"factcheck/internal/llm"
	"factcheck/internal/prompt"
	"factcheck/internal/rag"
	"factcheck/internal/verbalize"
)

// Verdict is a verification outcome label.
type Verdict int8

// Verdict values. Invalid marks responses that repeatedly failed the
// required output format (paper §3.1).
const (
	Invalid Verdict = iota
	True
	False
)

// String returns the verdict name.
func (v Verdict) String() string {
	switch v {
	case True:
		return "true"
	case False:
		return "false"
	default:
		return "invalid"
	}
}

// Bool converts the verdict to the paper's binary vote v_i ∈ {0,1}; invalid
// responses vote 0 ("false"), the conservative reading of the formula in
// §3.3.
func (v Verdict) Bool() bool { return v == True }

// Outcome records one model's verification of one fact under one method.
type Outcome struct {
	FactID  string
	Model   string
	Method  llm.Method
	Verdict Verdict
	Gold    bool
	// Correct is true when the verdict matches the gold label (invalid
	// verdicts are never correct).
	Correct bool
	// Latency is the simulated end-to-end response time including
	// re-prompts and, for RAG, retrieval.
	Latency time.Duration
	// Token accounting across all attempts.
	PromptTokens     int
	CompletionTokens int
	// Attempts is the number of generation calls made (>1 on re-prompts).
	Attempts int
	// Explanation is the model's stated reason, consumed by error analysis.
	Explanation string
	// EvidenceChunks counts the context passages used (RAG only).
	EvidenceChunks int
	// Claim is the structured claim (kept for downstream analysis),
	// interned: every outcome of one fact shares one copy. The zero handle
	// stands for the zero claim.
	Claim unique.Handle[llm.Claim]
}

// Verifier verifies facts with a model under a fixed method.
type Verifier interface {
	// Method names the strategy.
	Method() llm.Method
	// Verify produces an outcome for the fact using the model.
	Verify(ctx context.Context, m llm.Model, f *dataset.Fact) (Outcome, error)
}

// Prefetcher is implemented by verifiers with model-independent per-fact
// state worth warming ahead of model fan-out. The grid scheduler calls
// Prefetch once per (method, fact) before any model verifies the fact, so
// the expensive shared stage (RAG retrieval) runs exactly once instead of
// once per model racing through the singleflight cache.
type Prefetcher interface {
	// Prefetch warms per-fact state; it must be safe to call concurrently
	// and to skip (Verify must work without it).
	Prefetch(ctx context.Context, f *dataset.Fact) error
}

// ClaimFor builds the structured claim handed to simulated models.
func ClaimFor(f *dataset.Fact) llm.Claim {
	return llm.Claim{
		Key:          f.Key(),
		FactID:       f.ID,
		Dataset:      string(f.Dataset),
		Gold:         f.Gold,
		Popularity:   f.Popularity,
		Category:     string(f.Relation.Category),
		Topic:        f.Topic,
		Sentence:     verbalize.Sentence(f),
		SubjectLabel: f.Subject.Label,
		ObjectLabel:  f.Object.Label,
		Phrase:       f.Relation.Phrase,
	}
}

// ClaimHandle returns the fact's interned claim: ClaimFor(f) through
// unique.Make, built once per fact.
func ClaimHandle(f *dataset.Fact) unique.Handle[llm.Claim] { return memoOf(f).claim }

// maxExplanations bounds a fact's explanation table. A simulated model
// gives a fact at most a dozen distinct explanations over the grid's 20
// verifications; past the bound an outcome keeps the string it parsed.
const maxExplanations = 16

// factMemo is the model-independent state of a fact's verifications,
// built on first use and kept on the fact (dataset.Fact.Memo): its
// interned claim, and one copy of each distinct explanation its outcomes
// carry, so outcomes share explanation bytes instead of each pinning a
// parsed response.
type factMemo struct {
	claim unique.Handle[llm.Claim]

	mu           sync.Mutex
	n            int
	explanations [maxExplanations]string
}

func memoOf(f *dataset.Fact) *factMemo { return f.Memo(newMemo).(*factMemo) }

func newMemo(f *dataset.Fact) any { return &factMemo{claim: unique.Make(ClaimFor(f))} }

// explanation returns the table's copy of s, adding a copy of s while the
// table has room.
func (m *factMemo) explanation(s string) string {
	if s == "" {
		return s
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.explanations[:m.n] {
		if e == s {
			return e
		}
	}
	if m.n == maxExplanations {
		return s
	}
	s = strings.Clone(s)
	m.explanations[m.n] = s
	m.n++
	return s
}

// DKA is the Direct Knowledge Assessment baseline: one direct prompt, no
// guidance.
type DKA struct{}

// Method implements Verifier.
func (DKA) Method() llm.Method { return llm.MethodDKA }

// Verify implements Verifier.
func (DKA) Verify(ctx context.Context, m llm.Model, f *dataset.Fact) (Outcome, error) {
	memo := memoOf(f)
	c := memo.claim.Value()
	system, user := prompt.DKA(c)
	resp, err := m.Generate(ctx, llm.Request{
		System: system, Prompt: user, Claim: c, Method: llm.MethodDKA,
	})
	if err != nil {
		return Outcome{}, fmt.Errorf("dka: %s on %s: %w", m.Name(), f.ID, err)
	}
	out := newOutcome(f, m, llm.MethodDKA, memo.claim)
	out.Attempts = 1
	accumulate(&out, resp)
	if v, reason, ok := prompt.ParseFree(resp.Text); ok {
		out.setVerdict(v, memo.explanation(reason), f.Gold)
	}
	return out, nil
}

// GIV is Guided Iterative Verification: a structured prompt with an output
// schema, optional few-shot exemplars, and re-prompting on non-conformant
// responses. Responses that fail MaxAttempts times are marked invalid.
type GIV struct {
	// FewShot selects the GIV-F variant.
	FewShot bool
	// MaxAttempts bounds the re-prompt loop (default 3).
	MaxAttempts int
}

// Method implements Verifier.
func (g GIV) Method() llm.Method {
	if g.FewShot {
		return llm.MethodGIVF
	}
	return llm.MethodGIVZ
}

// Verify implements Verifier.
func (g GIV) Verify(ctx context.Context, m llm.Model, f *dataset.Fact) (Outcome, error) {
	maxAttempts := g.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 3
	}
	memo := memoOf(f)
	c := memo.claim.Value()
	method := g.Method()
	out := newOutcome(f, m, method, memo.claim)
	for attempt := 0; attempt < maxAttempts; attempt++ {
		system, user := prompt.GIV(c, g.FewShot, attempt)
		resp, err := m.Generate(ctx, llm.Request{
			System: system, Prompt: user, Claim: c, Method: method,
			FewShot: g.FewShot, Attempt: attempt,
		})
		if err != nil {
			return Outcome{}, fmt.Errorf("giv: %s on %s: %w", m.Name(), f.ID, err)
		}
		out.Attempts++
		accumulate(&out, resp)
		if v, reason, ok := prompt.ParseGIV(resp.Text); ok {
			out.setVerdict(v, memo.explanation(reason), f.Gold)
			return out, nil
		}
	}
	return out, nil // verdict stays Invalid
}

// RAG verifies with retrieved external evidence via the pipeline.
type RAG struct {
	Pipeline *rag.Pipeline
}

// Method implements Verifier.
func (RAG) Method() llm.Method { return llm.MethodRAG }

// Prefetch implements Prefetcher by warming the pipeline's evidence cache
// for the fact — which also materialises the fact's search-index shard
// (pool + posting lists), so model fan-out hits a fully warm retrieval
// substrate.
func (r RAG) Prefetch(ctx context.Context, f *dataset.Fact) error {
	if r.Pipeline == nil {
		return fmt.Errorf("rag: verifier has no pipeline")
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := r.Pipeline.Warm(f); err != nil {
		return fmt.Errorf("rag: prefetch %s: %w", f.ID, err)
	}
	return nil
}

// Verify implements Verifier.
func (r RAG) Verify(ctx context.Context, m llm.Model, f *dataset.Fact) (Outcome, error) {
	if r.Pipeline == nil {
		return Outcome{}, fmt.Errorf("rag: verifier has no pipeline")
	}
	ev, err := r.Pipeline.RetrieveCtx(ctx, f)
	if err != nil {
		return Outcome{}, fmt.Errorf("rag: retrieve %s: %w", f.ID, err)
	}
	memo := memoOf(f)
	c := memo.claim.Value()
	chunks := ev.ChunkTexts()
	system, user := prompt.RAG(c, chunks)
	resp, err := m.Generate(ctx, llm.Request{
		System: system, Prompt: user, Claim: c, Method: llm.MethodRAG,
		Evidence: chunks,
	})
	if err != nil {
		return Outcome{}, fmt.Errorf("rag: %s on %s: %w", m.Name(), f.ID, err)
	}
	out := newOutcome(f, m, llm.MethodRAG, memo.claim)
	out.Attempts = 1
	out.EvidenceChunks = len(chunks)
	accumulate(&out, resp)
	out.Latency += ev.Latency
	if v, reason, ok := prompt.ParseFree(resp.Text); ok {
		out.setVerdict(v, memo.explanation(reason), f.Gold)
	}
	return out, nil
}

// ForMethod returns the verifier implementing the named method. RAG
// requires a pipeline; passing nil for other methods is fine.
func ForMethod(m llm.Method, p *rag.Pipeline) (Verifier, error) {
	switch m {
	case llm.MethodDKA:
		return DKA{}, nil
	case llm.MethodGIVZ:
		return GIV{FewShot: false}, nil
	case llm.MethodGIVF:
		return GIV{FewShot: true}, nil
	case llm.MethodRAG:
		if p == nil {
			return nil, fmt.Errorf("strategy: RAG verifier needs a pipeline")
		}
		return RAG{Pipeline: p}, nil
	default:
		return nil, fmt.Errorf("strategy: unknown method %q", m)
	}
}

func newOutcome(f *dataset.Fact, m llm.Model, method llm.Method, claim unique.Handle[llm.Claim]) Outcome {
	return Outcome{
		FactID:  f.ID,
		Model:   m.Name(),
		Method:  method,
		Verdict: Invalid,
		Gold:    f.Gold,
		Claim:   claim,
	}
}

func accumulate(o *Outcome, resp llm.Response) {
	o.Latency += resp.Usage.Latency
	o.PromptTokens += resp.Usage.PromptTokens
	o.CompletionTokens += resp.Usage.CompletionTokens
}

func (o *Outcome) setVerdict(v bool, reason string, gold bool) {
	if v {
		o.Verdict = True
	} else {
		o.Verdict = False
	}
	o.Correct = v == gold
	o.Explanation = reason
}
