package llm

import (
	"context"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"factcheck/internal/det"
	"factcheck/internal/text"
)

// MethodMod adjusts a model's behaviour under a specific prompting method,
// reproducing the paper's observation that prompting regime changes both
// the response distribution and format reliability.
type MethodMod struct {
	// PriorShift moves the model's true-bias when it lacks knowledge
	// (negative values make the model answer "false" more often).
	PriorShift float64
	// AccShift adjusts correctness on known facts (few-shot exemplars
	// help; awkward zero-shot templates hurt).
	AccShift float64
	// Flip is extra elicitation noise: probability the reported verdict
	// flips regardless of belief.
	Flip float64
	// Conformance is the probability a GIV-format answer parses on the
	// first attempt. Re-prompts add ConformanceRetryBoost each.
	Conformance float64
	// GoldNudge is the probability that, on a fact outside the model's
	// parametric knowledge, the method still elicits the correct answer —
	// the mechanism behind few-shot exemplars "activating" latent
	// knowledge, which lifts recall of both classes simultaneously.
	GoldNudge float64
}

// DatasetMod adjusts behaviour per dataset, modelling knowledge-coverage
// differences (schema diversity, tail entities) and per-dataset evidence
// legibility under RAG.
type DatasetMod struct {
	CoverageScale float64
	PriorShift    float64
	AccShift      float64
	// ReadNoise adds to the chunk misread probability under RAG: DBpedia's
	// heterogeneous evidence is harder to map onto the claim.
	ReadNoise float64
}

// Profile is the full behavioural parameterisation of a simulated model.
type Profile struct {
	Name   string
	Params float64 // billions
	// Coverage is the base probability scale of knowing a head fact.
	Coverage float64
	// Accuracy is the probability of judging a known fact correctly.
	Accuracy float64
	// TruePrior is the probability of answering "true" on unknown facts.
	TruePrior float64
	// ContextSkill is the probability of reading evidence stance correctly
	// under RAG.
	ContextSkill float64
	// TrustContext is the probability of following decisive evidence over
	// the internal belief (contextual bias; Leng et al.).
	TrustContext float64

	// Latency model: tokens/second for prompt ingestion and generation plus
	// a fixed per-call overhead (seconds).
	PromptTPS float64
	GenTPS    float64
	Overhead  float64

	Methods  map[Method]MethodMod
	Datasets map[string]DatasetMod
}

// ConformanceRetryBoost is how much each re-prompt improves the chance of a
// schema-conformant answer.
const ConformanceRetryBoost = 0.45

// Sim is a deterministic simulated model.
type Sim struct {
	p Profile

	// private holds the model-private draw keys, NewKey(name, kind), one
	// per drawKind.
	private [numDrawKinds]det.Key

	// sysTokens is systemTokens' memo.
	sysTokens [maxSystemPrompts]atomic.Pointer[promptCount]
}

// NewSim builds a simulated model from a profile.
func NewSim(p Profile) *Sim {
	s := &Sim{p: p}
	for k, d := range drawKinds {
		s.private[k] = det.NewKey(p.Name, d.name)
	}
	return s
}

// Name implements Model.
func (s *Sim) Name() string { return s.p.Name }

// ParamsB implements Model.
func (s *Sim) ParamsB() float64 { return s.p.Params }

// Profile exposes the model's parameterisation (read-only by convention).
func (s *Sim) Profile() Profile { return s.p }

func (s *Sim) methodMod(m Method) MethodMod {
	if mm, ok := s.p.Methods[m]; ok {
		return mm
	}
	return MethodMod{Conformance: 1}
}

func (s *Sim) datasetMod(ds string) DatasetMod {
	if dm, ok := s.p.Datasets[ds]; ok {
		return dm
	}
	return DatasetMod{CoverageScale: 1}
}

// drawKind names a stochastic decision about a claim whose draw may be
// shared by every model.
type drawKind uint8

const (
	drawKnows drawKind = iota
	drawAcc
	drawNudge
	drawPrior
	numDrawKinds
)

// drawKinds holds each kind's hash part and shared-draw weight: the
// probability that the decision is drawn from a *claim-level* stream
// shared by every model rather than a model-private stream. Shared draws
// encode the paper's observation that open-source LLMs "share much of
// their internal knowledge as well as their error profiles" (§7): facts
// easy for one model tend to be easy for all, and shared misconceptions
// survive majority voting.
var drawKinds = [numDrawKinds]struct {
	name string
	w    float64
}{
	drawKnows: {"knows", 0.65},
	drawAcc:   {"acc", 0.50},
	drawNudge: {"nudge", 0.50},
	drawPrior: {"prior", 0.45},
}

// sharedDraws are a claim's claim-level draws, one per drawKind: the
// shared uniform where the claim's pick chose the shared stream, -1 where
// the model-private stream decides. made marks draws NewClaim made.
type sharedDraws struct {
	u    [numDrawKinds]float64
	made bool
}

// NewClaim returns c with its claim-level draws made from c.Key. A Sim
// verifies only claims built here, after their Key is set: the draws
// depend on the key alone, so a fact hashes them once however many
// models and methods verify it.
func NewClaim(c Claim) Claim {
	for k, d := range drawKinds {
		c.shared.u[k] = -1
		if det.Bool(d.w, "shared-pick", d.name, c.Key) {
			c.shared.u[k] = det.Uniform("shared", d.name, c.Key)
		}
	}
	c.shared.made = true
	return c
}

// draw returns a uniform sample for (claim, kind): with the kind's weight
// it comes from the claim-level shared stream (identical for all models),
// otherwise from the model-private stream. Marginally uniform either way.
func (s *Sim) draw(c *Claim, k drawKind) float64 {
	if !c.shared.made {
		panic("llm: claim not built by NewClaim")
	}
	if u := c.shared.u[k]; u >= 0 {
		return u
	}
	return s.private[k].Uniform(c.Key)
}

// Knows reports whether the model's parametric knowledge covers the claim.
// It is method-independent: the same model consults the same knowledge
// regardless of prompting, which is what makes cross-method prediction
// overlaps (paper Fig. 4) large. The draw is partly shared across models,
// so higher-coverage models know a superset of what lower-coverage models
// know on common-knowledge facts.
func (s *Sim) Knows(c *Claim) bool { return s.knows(c, s.datasetMod(c.Dataset)) }

func (s *Sim) knows(c *Claim, dm DatasetMod) bool {
	cov := s.p.Coverage * dm.CoverageScale * (0.45 + 0.55*c.Popularity) * topicCoverage(c.Topic)
	return s.draw(c, drawKnows) < clamp01(cov)
}

// topicCoverage scales knowledge coverage by domain: web-prominent domains
// (education, news) are better represented in training data than long-tail
// ones (architecture, transportation) — the gradient behind the paper's
// topic-stratified error rates (§7).
func topicCoverage(topic string) float64 {
	switch topic {
	case "Education":
		return 1.18
	case "News":
		return 1.05
	case "Culture":
		return 0.96
	case "Business":
		return 0.90
	case "Sports":
		return 0.88
	case "Architecture":
		return 0.72
	case "Transportation":
		return 0.58
	default:
		return 1.0
	}
}

// Belief returns the model's internal belief about the claim (true/false),
// before any method-specific elicitation effects. Beliefs are fixed per
// (model, claim) so methods disagree only through elicitation, mirroring
// the paper's finding of limited true complementarity.
func (s *Sim) Belief(c *Claim, method Method) bool {
	return s.belief(c, s.methodMod(method), s.datasetMod(c.Dataset))
}

func (s *Sim) belief(c *Claim, mm MethodMod, dm DatasetMod) bool {
	if s.knows(c, dm) {
		acc := clamp01(s.p.Accuracy + dm.AccShift + mm.AccShift)
		if s.draw(c, drawAcc) < acc {
			return c.Gold
		}
		return !c.Gold
	}
	if mm.GoldNudge > 0 && s.draw(c, drawNudge) < mm.GoldNudge {
		return c.Gold
	}
	prior := clamp01(s.p.TruePrior + dm.PriorShift + mm.PriorShift)
	return s.draw(c, drawPrior) < prior
}

// Generate implements Model.
func (s *Sim) Generate(ctx context.Context, req Request) (Response, error) {
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	k := newDrawKeys(s.p.Name, &req)
	mm := s.methodMod(req.Method)

	verdict := s.decide(&req, k, mm)

	// Format conformance: GIV methods demand a JSON schema; the model
	// sometimes rambles instead. Re-prompts (Attempt > 0) flag the
	// non-compliance and raise conformance.
	conf := mm.Conformance
	if conf == 0 {
		conf = 1
	}
	conf = clamp01(conf + float64(req.Attempt)*ConformanceRetryBoost)
	conformant := k.method.Bool(conf, "conform", strconv.Itoa(req.Attempt))

	out := s.render(&req, k.method, verdict, conformant)
	return Response{Text: out, Usage: s.usage(&req, k, out)}, nil
}

// drawKeys are the keys every model-private draw about a request
// continues: claim is NewKey(model name, claim key), and method extends
// it with the request's method.
type drawKeys struct{ claim, method det.Key }

func newDrawKeys(name string, req *Request) drawKeys {
	k := det.NewKey(name, req.Claim.Key)
	return drawKeys{claim: k, method: k.Extend(string(req.Method))}
}

// decide produces the model's verdict for the request.
func (s *Sim) decide(req *Request, k drawKeys, mm MethodMod) bool {
	dm := s.datasetMod(req.Claim.Dataset)
	if req.Method == MethodRAG && len(req.Evidence) > 0 {
		if v, decisive := s.readEvidence(req, k, dm); decisive {
			return v
		}
	}
	verdict := s.belief(&req.Claim, mm, dm)
	if mm.Flip > 0 && k.method.Bool(mm.Flip, "flip") {
		verdict = !verdict
	}
	return verdict
}

// readEvidence reads the stance of the supplied chunks from their text and
// returns (verdict, decisive). Reading is imperfect: each chunk's stance is
// misread with probability 1-ContextSkill, and decisive evidence is only
// followed with probability TrustContext.
func (s *Sim) readEvidence(req *Request, k drawKeys, dm DatasetMod) (bool, bool) {
	misread := clamp01((1 - s.p.ContextSkill) + dm.ReadNoise)
	score := 0
	for i, chunk := range req.Evidence {
		st := ReadStance(&req.Claim, chunk)
		if st == 0 {
			continue
		}
		if k.claim.Bool(misread, "read", strconv.Itoa(i)) {
			st = -st // misreading inverts the chunk's contribution
		}
		score += st
	}
	if score == 0 {
		return false, false
	}
	if !k.claim.Bool(s.p.TrustContext, "trust") {
		return false, false // fall back to internal belief
	}
	return score > 0, true
}

// ReadStance lexically derives a chunk's stance toward the claim from its
// text: +1 supporting, -1 refuting, 0 neutral/unrelated. Exported so tests
// and the error-analysis module can replicate the model's reading.
func ReadStance(c *Claim, chunkText string) int {
	i := strings.Index(chunkText, c.SubjectLabel)
	if c.SubjectLabel == "" || i < 0 {
		return 0
	}
	if strings.Contains(chunkText, "not the case that") &&
		strings.Contains(chunkText, c.ObjectLabel) {
		return -1
	}
	// Find the first assertion "<subject> <phrase> " without building it:
	// try each occurrence of the subject in order, overlapping ones too.
	for n := len(c.Phrase) + 2; ; {
		rest := chunkText[i+len(c.SubjectLabel):]
		if len(rest) >= n && rest[0] == ' ' && rest[1:n-1] == c.Phrase && rest[n-1] == ' ' {
			if strings.HasPrefix(rest[n:], c.ObjectLabel) {
				return 1
			}
			return -1 // asserts a different value for the same relation
		}
		j := strings.Index(chunkText[i+1:], c.SubjectLabel)
		if j < 0 {
			return 0
		}
		i += 1 + j
	}
}

// render produces the output text. Conformant GIV answers use the required
// JSON schema; non-conformant ones ramble. DKA answers are free text. km
// is the request's method key.
func (s *Sim) render(req *Request, km det.Key, verdict, conformant bool) string {
	c := &req.Claim
	label, lower := "FALSE", "false"
	if verdict {
		label, lower = "TRUE", "true"
	}
	r := s.reason(c, km, verdict)
	switch req.Method {
	case MethodGIVZ, MethodGIVF:
		if !conformant {
			return r.join("", "Well, considering the statement about ", c.SubjectLabel,
				", one could argue it ", lower, ". ")
		}
		if r.verbatim() {
			return r.join(`"}`, `{"verdict": "`, lower, `", "reason": "`)
		}
		// strconv.Quote renders a string exactly as fmt's %q does.
		return `{"verdict": "` + lower + `", "reason": ` + strconv.Quote(r.join("")) + `}`
	case MethodRAG:
		return r.join("", label, ". Based on the provided context: ")
	default:
		return r.join("", label, ". ")
	}
}

// reasonParts is an explanation as the template parts and labels it
// concatenates; unused parts are empty.
type reasonParts [5]string

// join returns head (at most five parts), the explanation and tail as one
// string, built in one allocation.
func (r *reasonParts) join(tail string, head ...string) string {
	var all [5 + len(reasonParts{}) + 1]string
	n := copy(all[:5], head)
	n += copy(all[n:], r[:])
	all[n] = tail
	return strings.Join(all[:n+1], "")
}

// verbatim reports quoteVerbatim of the explanation's text. The templates
// are printable ASCII and no two labels meet, so the text is verbatim
// exactly when each part is.
func (r *reasonParts) verbatim() bool {
	for _, p := range r {
		if !quoteVerbatim(p) {
			return false
		}
	}
	return true
}

// reason generates an explanation whose vocabulary tracks the claim's
// relation category; the error-analysis pipeline clusters these texts into
// the paper's E1–E6 buckets. One draw, continuing the request's method
// key km, picks among the branch's n templates.
func (s *Sim) reason(c *Claim, km det.Key, verdict bool) reasonParts {
	subj, obj := c.SubjectLabel, c.ObjectLabel
	pick := func(n int) int { return km.IntN(n, "reason") }
	if verdict {
		switch pick(3) {
		case 0:
			return reasonParts{"The statement matches well-established information about ", subj, "."}
		case 1:
			return reasonParts{"Available knowledge about ", subj, " confirms this relation to ", obj, "."}
		default:
			return reasonParts{"This is consistent with the recorded facts for ", subj, "."}
		}
	}
	switch c.Category {
	case "geo":
		switch pick(3) {
		case 0:
			return reasonParts{"The stated place conflicts with the known location or nationality of ", subj, "."}
		case 1:
			return reasonParts{"Geographic records associate ", subj, " with a different country or city than ", obj, "."}
		default:
			return reasonParts{"The location ", obj, " is inconsistent with the geography of ", subj, "."}
		}
	case "relationship":
		if pick(2) == 0 {
			return reasonParts{"The marital or personal relationship between ", subj, " and ", obj, " is not supported."}
		}
		return reasonParts{"Known relationship information about ", subj, " contradicts a link to ", obj, "."}
	case "role":
		if pick(2) == 0 {
			return reasonParts{"The role linking ", subj, " to ", obj, " appears misattributed."}
		}
		return reasonParts{subj, " is associated with a different team, employer or position than ", obj, "."}
	case "genre":
		if pick(2) == 0 {
			return reasonParts{"The genre classification of ", subj, " does not include ", obj, "."}
		}
		return reasonParts{subj, " is categorised under a different genre than ", obj, "."}
	case "identifier":
		if pick(2) == 0 {
			return reasonParts{"The biographical identifier or award attributed to ", subj, " is inaccurate."}
		}
		return reasonParts{"Records of awards and identifiers for ", subj, " do not mention ", obj, "."}
	default:
		if pick(2) == 0 {
			return reasonParts{"The supplied context does not mention the asserted details about ", subj, "."}
		}
		return reasonParts{"No relevant information about ", subj, " and ", obj, " could be recalled."}
	}
}

// quoteVerbatim reports whether strconv.Quote(s) is s between double
// quotes: s is valid UTF-8 and every rune printable (strconv.IsPrint)
// other than the quote and backslash.
func quoteVerbatim(s string) bool {
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c < ' ' || c > '~' || c == '"' || c == '\\' {
				return false
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if (r == utf8.RuneError && size == 1) || !strconv.IsPrint(r) {
			return false
		}
		i += size
	}
	return true
}

// maxSystemPrompts bounds a Sim's memo of system-prompt token counts.
// Strategies send one of a few fixed system prompts with every call; a
// caller with more distinct ones has the rest counted per call.
const maxSystemPrompts = 8

// promptCount is one memoised system prompt and its token count.
type promptCount struct {
	prompt string
	tokens int
}

// systemTokens returns text.CountTokens(system), counting each distinct
// system prompt once. Slots fill in order and are never replaced, so a
// prompt lands in one slot; lookups compare strings, which for the shared
// template constants is a pointer comparison.
func (s *Sim) systemTokens(system string) int {
	for i := range s.sysTokens {
		slot := &s.sysTokens[i]
		e := slot.Load()
		if e == nil {
			e = &promptCount{system, text.CountTokens(system)}
			if !slot.CompareAndSwap(nil, e) {
				e = slot.Load()
			}
		}
		if e.prompt == system {
			return e.tokens
		}
	}
	return text.CountTokens(system)
}

// usage computes the simulated token and latency accounting for a call.
func (s *Sim) usage(req *Request, k drawKeys, output string) Usage {
	pt := s.systemTokens(req.System) + text.TokensOfWords(req.Prompt.Words())
	for _, e := range req.Evidence {
		pt += text.CountTokens(e)
	}
	ct := text.CountTokens(output)
	secs := s.p.Overhead + float64(pt)/s.p.PromptTPS + float64(ct)/s.p.GenTPS
	secs = k.method.Jitter(secs, 0.18, "lat")
	// A thin tail of slow responses models the outliers the paper's IQR
	// filter removes.
	if k.method.Bool(0.03, "slow") {
		secs *= 3 + 4*k.claim.Uniform("slowmag")
	}
	return Usage{
		PromptTokens:     pt,
		CompletionTokens: ct,
		Latency:          time.Duration(secs * float64(time.Second)),
	}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
