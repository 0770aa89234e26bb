// Package llm provides the language-model substrate of the benchmark. The
// paper runs four open-source 7–9B models via Ollama plus OpenAI's GPT-4o
// mini; this package substitutes deterministic *simulated* models that
// preserve every behavioural property the benchmark exercises:
//
//   - parametric knowledge: each model holds a popularity-weighted noisy
//     view of the synthetic world, so it genuinely "knows" head facts and
//     guesses on tail facts (the head-to-tail effect of Sun et al.);
//   - a positive-response prior that produces the paper's class biases
//     (e.g. near-zero F1(F) on the 99%-true YAGO dataset);
//   - prompting sensitivity: per-method elicitation modifiers reproduce the
//     paper's DKA/GIV-Z/GIV-F orderings, including models that degrade
//     under zero-shot structured prompting;
//   - format (non-)conformance: GIV outputs occasionally fail the required
//     JSON schema and must be re-prompted;
//   - evidence reading: under RAG the model derives its verdict from the
//     stance of supplied context chunks — parsed lexically from the chunk
//     text itself, not from hidden labels — with an imperfect context skill
//     and a contextual-trust parameter;
//   - resource usage: a latency and token model calibrated per model so
//     execution-time tables have the published shape.
//
// All stochastic choices are keyed deterministic hashes, so the benchmark is
// exactly reproducible.
package llm

import (
	"context"
	"strconv"
	"strings"
	"time"

	"factcheck/internal/text"
)

// Method names the verification strategies; they modulate model behaviour.
type Method string

// The benchmark's four verification methods.
const (
	MethodDKA  Method = "DKA"
	MethodGIVZ Method = "GIV-Z"
	MethodGIVF Method = "GIV-F"
	MethodRAG  Method = "RAG"
)

// AllMethods lists methods in the paper's presentation order.
var AllMethods = []Method{MethodDKA, MethodGIVZ, MethodGIVF, MethodRAG}

// Claim is the structured view of the statement under verification. A real
// LLM recovers this from the prompt text; the simulator receives it
// alongside the prompt as its handle into the synthetic world. The prompt
// is still charged for by its words, and output text is still parsed by
// the calling strategy. A claim handed to a simulated model is built by
// NewClaim.
type Claim struct {
	// Key is the canonical world identity "subject|relation|object".
	Key string
	// FactID is the dataset-scoped fact identifier.
	FactID string
	// Dataset names the owning dataset ("FactBench", "YAGO", "DBpedia").
	Dataset string
	// Gold is the ground-truth label of the claim.
	Gold bool
	// Popularity in (0,1] drives parametric-knowledge coverage.
	Popularity float64
	// Category is the relation category (geo, role, relationship, genre,
	// identifier) used for error-explanation generation.
	Category string
	// Topic is the fact's domain stratum; some domains are better covered
	// by parametric knowledge than others (paper §7's stratified study).
	Topic string
	// Sentence is the verbalised claim.
	Sentence string
	// SubjectLabel, ObjectLabel and Phrase expose the claim's surface parts
	// for evidence-stance reading.
	SubjectLabel string
	ObjectLabel  string
	Phrase       string

	// shared holds the draws every model reads, made by NewClaim.
	shared sharedDraws
}

// Part is a span of prompt text with its word count (text.CountWords),
// counted once where the span is made: a static template part once per
// process, a fact's sentence once per fact. A Passages part holds its
// chunks instead of Text.
type Part struct {
	Text     string
	Words    int
	passages []string
}

// NewPart counts the words of s.
func NewPart(s string) Part { return Part{Text: s, Words: text.CountWords(s)} }

// Passages returns the part that numbers chunks as context passages, one
// "[i] chunk\n" line each, without rendering them. Each "[i]" is one word,
// so the part counts len(chunks) words plus the chunks' own.
func Passages(chunks []string) Part {
	words := len(chunks)
	for _, c := range chunks {
		words += text.CountWords(c)
	}
	return Part{Words: words, passages: chunks}
}

// maxPromptParts is the most parts a Prompt holds: GIV's constraints,
// few-shot block, retry flag, statement head, sentence and answer tail.
const maxPromptParts = 6

// Prompt is a user prompt held as the parts it concatenates, so it is
// charged without being rendered. Where two parts meet, one of them has
// ASCII whitespace at the boundary: no word spans two parts, and the
// prompt's word count is the sum of theirs. The parts live in the value,
// so building a prompt from memoised parts allocates nothing.
type Prompt struct {
	parts [maxPromptParts]Part
	n     int
}

// PromptOf returns the prompt made of parts, leaving out empty ones. It
// panics when more than maxPromptParts remain.
func PromptOf(parts ...Part) Prompt {
	var p Prompt
	for _, pt := range parts {
		if pt.Text != "" || len(pt.passages) > 0 {
			p.parts[p.n] = pt
			p.n++
		}
	}
	return p
}

// Words returns the prompt's word count.
func (p Prompt) Words() int {
	n := 0
	for _, pt := range p.parts[:p.n] {
		n += pt.Words
	}
	return n
}

// String renders the prompt's text.
func (p Prompt) String() string {
	var b strings.Builder
	for _, pt := range p.parts[:p.n] {
		b.WriteString(pt.Text)
		for i, c := range pt.passages {
			b.WriteString("[" + strconv.Itoa(i+1) + "] " + c + "\n")
		}
	}
	return b.String()
}

// Request is a single generation call.
type Request struct {
	// System and Prompt are the prompt (token-charged).
	System string
	Prompt Prompt
	// Claim is the simulator's handle to the statement under verification.
	Claim Claim
	// Method tells the simulator which elicitation regime applies.
	Method Method
	// FewShot marks GIV few-shot prompting.
	FewShot bool
	// Evidence carries the context chunks under RAG (token-charged and
	// stance-read by the model).
	Evidence []string
	// Attempt is the re-prompt attempt index (0 = first try). Conformance
	// improves on re-prompts, as the paper's flagging protocol intends.
	Attempt int
}

// Usage accounts for one call's resource consumption.
type Usage struct {
	PromptTokens     int
	CompletionTokens int
	// Latency is the simulated wall-clock duration of the call.
	Latency time.Duration
}

// Response is a generation result.
type Response struct {
	// Text is the raw model output; strategies parse verdicts from it.
	Text string
	// Usage reports simulated resource consumption.
	Usage Usage
}

// Model is a language model capable of fact-verification generation.
type Model interface {
	// Name returns the model identifier (e.g. "gemma2:9b").
	Name() string
	// ParamsB returns the parameter count in billions.
	ParamsB() float64
	// Generate produces a response for the request. The context is honoured
	// for cancellation.
	Generate(ctx context.Context, req Request) (Response, error)
}
