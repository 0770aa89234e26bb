package llm

import (
	"context"
	"strconv"
	"strings"
	"time"

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
}

// NewSim builds a simulated model from a profile.
func NewSim(p Profile) *Sim { return &Sim{p: p} }

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

// Shared-draw weights: the probability that a stochastic decision about a
// claim is drawn from a *claim-level* stream shared by every model rather
// than a model-private stream. Shared draws encode the paper's observation
// that open-source LLMs "share much of their internal knowledge as well as
// their error profiles" (§7): facts easy for one model tend to be easy for
// all, and shared misconceptions survive majority voting.
const (
	sharedKnows = 0.65
	sharedAcc   = 0.50
	sharedPrior = 0.45
	sharedNudge = 0.50
)

// draw returns a uniform sample for (claim, kind): with probability w it
// comes from the claim-level shared stream (identical for all models),
// otherwise from the model-private stream. Marginally uniform either way.
func (s *Sim) draw(c Claim, kind string, w float64) float64 {
	if det.Bool(w, "shared-pick", kind, c.Key) {
		return det.Uniform("shared", kind, c.Key)
	}
	return det.Uniform(s.p.Name, kind, c.Key)
}

// Knows reports whether the model's parametric knowledge covers the claim.
// It is method-independent: the same model consults the same knowledge
// regardless of prompting, which is what makes cross-method prediction
// overlaps (paper Fig. 4) large. The draw is partly shared across models,
// so higher-coverage models know a superset of what lower-coverage models
// know on common-knowledge facts.
func (s *Sim) Knows(c Claim) bool {
	dm := s.datasetMod(c.Dataset)
	cov := s.p.Coverage * dm.CoverageScale * (0.45 + 0.55*c.Popularity) * topicCoverage(c.Topic)
	return s.draw(c, "knows", sharedKnows) < clamp01(cov)
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
func (s *Sim) Belief(c Claim, method Method) bool {
	dm := s.datasetMod(c.Dataset)
	mm := s.methodMod(method)
	if s.Knows(c) {
		acc := clamp01(s.p.Accuracy + dm.AccShift + mm.AccShift)
		if s.draw(c, "acc", sharedAcc) < acc {
			return c.Gold
		}
		return !c.Gold
	}
	if mm.GoldNudge > 0 && s.draw(c, "nudge", sharedNudge) < mm.GoldNudge {
		return c.Gold
	}
	prior := clamp01(s.p.TruePrior + dm.PriorShift + mm.PriorShift)
	return s.draw(c, "prior", sharedPrior) < prior
}

// Generate implements Model.
func (s *Sim) Generate(ctx context.Context, req Request) (Response, error) {
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	c := req.Claim
	mm := s.methodMod(req.Method)

	verdict := s.decide(req)

	// Format conformance: GIV methods demand a JSON schema; the model
	// sometimes rambles instead. Re-prompts (Attempt > 0) flag the
	// non-compliance and raise conformance.
	conf := mm.Conformance
	if conf == 0 {
		conf = 1
	}
	conf = clamp01(conf + float64(req.Attempt)*ConformanceRetryBoost)
	conformant := det.Bool(conf, s.p.Name, c.Key, string(req.Method), "conform", strconv.Itoa(req.Attempt))

	out := s.render(req, verdict, conformant)
	usage := s.usage(req, out)
	return Response{Text: out, Usage: usage}, nil
}

// decide produces the model's verdict for the request.
func (s *Sim) decide(req Request) bool {
	c := req.Claim
	mm := s.methodMod(req.Method)

	if req.Method == MethodRAG && len(req.Evidence) > 0 {
		if v, decisive := s.readEvidence(req); decisive {
			return v
		}
	}
	verdict := s.Belief(c, req.Method)
	if mm.Flip > 0 && det.Bool(mm.Flip, s.p.Name, c.Key, string(req.Method), "flip") {
		verdict = !verdict
	}
	return verdict
}

// readEvidence reads the stance of the supplied chunks from their text and
// returns (verdict, decisive). Reading is imperfect: each chunk's stance is
// misread with probability 1-ContextSkill, and decisive evidence is only
// followed with probability TrustContext.
func (s *Sim) readEvidence(req Request) (bool, bool) {
	c := req.Claim
	dm := s.datasetMod(c.Dataset)
	misread := clamp01((1 - s.p.ContextSkill) + dm.ReadNoise)
	score := 0
	for i, chunk := range req.Evidence {
		st := ReadStance(c, chunk)
		if st == 0 {
			continue
		}
		if det.Bool(misread, s.p.Name, c.Key, "read", strconv.Itoa(i)) {
			st = -st // misreading inverts the chunk's contribution
		}
		score += st
	}
	if score == 0 {
		return false, false
	}
	if !det.Bool(s.p.TrustContext, s.p.Name, c.Key, "trust") {
		return false, false // fall back to internal belief
	}
	return score > 0, true
}

// ReadStance lexically derives a chunk's stance toward the claim from its
// text: +1 supporting, -1 refuting, 0 neutral/unrelated. Exported so tests
// and the error-analysis module can replicate the model's reading.
func ReadStance(c Claim, chunkText string) int {
	if c.SubjectLabel == "" || !strings.Contains(chunkText, c.SubjectLabel) {
		return 0
	}
	if strings.Contains(chunkText, "not the case that") &&
		strings.Contains(chunkText, c.ObjectLabel) {
		return -1
	}
	assertion := c.SubjectLabel + " " + c.Phrase + " "
	if idx := strings.Index(chunkText, assertion); idx >= 0 {
		rest := chunkText[idx+len(assertion):]
		if strings.HasPrefix(rest, c.ObjectLabel) {
			return 1
		}
		return -1 // asserts a different value for the same relation
	}
	return 0
}

// render produces the output text. Conformant GIV answers use the required
// JSON schema; non-conformant ones ramble. DKA answers are free text.
func (s *Sim) render(req Request, verdict, conformant bool) string {
	c := req.Claim
	label, lower := "FALSE", "false"
	if verdict {
		label, lower = "TRUE", "true"
	}
	reason := s.reason(c, verdict, req.Method)
	switch req.Method {
	case MethodGIVZ, MethodGIVF:
		if !conformant {
			return "Well, considering the statement about " + c.SubjectLabel +
				", one could argue it " + lower + ". " + reason
		}
		// strconv.Quote renders a string exactly as fmt's %q does.
		return `{"verdict": "` + lower + `", "reason": ` + strconv.Quote(reason) + `}`
	case MethodRAG:
		return label + ". Based on the provided context: " + reason
	default:
		return label + ". " + reason
	}
}

// reason generates an explanation whose vocabulary tracks the claim's
// relation category; the error-analysis pipeline clusters these texts into
// the paper's E1–E6 buckets.
func (s *Sim) reason(c Claim, verdict bool, method Method) string {
	pick := func(opts []string) string {
		return opts[det.IntN(len(opts), s.p.Name, c.Key, string(method), "reason")]
	}
	if verdict {
		return pick([]string{
			"The statement matches well-established information about " + c.SubjectLabel + ".",
			"Available knowledge about " + c.SubjectLabel + " confirms this relation to " + c.ObjectLabel + ".",
			"This is consistent with the recorded facts for " + c.SubjectLabel + ".",
		})
	}
	switch c.Category {
	case "geo":
		return pick([]string{
			"The stated place conflicts with the known location or nationality of " + c.SubjectLabel + ".",
			"Geographic records associate " + c.SubjectLabel + " with a different country or city than " + c.ObjectLabel + ".",
			"The location " + c.ObjectLabel + " is inconsistent with the geography of " + c.SubjectLabel + ".",
		})
	case "relationship":
		return pick([]string{
			"The marital or personal relationship between " + c.SubjectLabel + " and " + c.ObjectLabel + " is not supported.",
			"Known relationship information about " + c.SubjectLabel + " contradicts a link to " + c.ObjectLabel + ".",
		})
	case "role":
		return pick([]string{
			"The role linking " + c.SubjectLabel + " to " + c.ObjectLabel + " appears misattributed.",
			c.SubjectLabel + " is associated with a different team, employer or position than " + c.ObjectLabel + ".",
		})
	case "genre":
		return pick([]string{
			"The genre classification of " + c.SubjectLabel + " does not include " + c.ObjectLabel + ".",
			c.SubjectLabel + " is categorised under a different genre than " + c.ObjectLabel + ".",
		})
	case "identifier":
		return pick([]string{
			"The biographical identifier or award attributed to " + c.SubjectLabel + " is inaccurate.",
			"Records of awards and identifiers for " + c.SubjectLabel + " do not mention " + c.ObjectLabel + ".",
		})
	default:
		return pick([]string{
			"The supplied context does not mention the asserted details about " + c.SubjectLabel + ".",
			"No relevant information about " + c.SubjectLabel + " and " + c.ObjectLabel + " could be recalled.",
		})
	}
}

// usage computes the simulated token and latency accounting for a call.
func (s *Sim) usage(req Request, output string) Usage {
	pt := text.CountTokens(req.System) + text.CountTokens(req.Prompt)
	for _, e := range req.Evidence {
		pt += text.CountTokens(e)
	}
	ct := text.CountTokens(output)
	secs := s.p.Overhead + float64(pt)/s.p.PromptTPS + float64(ct)/s.p.GenTPS
	secs = det.Jitter(secs, 0.18, s.p.Name, req.Claim.Key, string(req.Method), "lat")
	// A thin tail of slow responses models the outliers the paper's IQR
	// filter removes.
	if det.Bool(0.03, s.p.Name, req.Claim.Key, string(req.Method), "slow") {
		secs *= 3 + 4*det.Uniform(s.p.Name, req.Claim.Key, "slowmag")
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
