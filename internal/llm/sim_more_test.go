package llm

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"factcheck/internal/det"
	"factcheck/internal/text"
)

func TestProfileAccessor(t *testing.T) {
	m := MustNew(Gemma2)
	p := m.Profile()
	if p.Name != Gemma2 || p.Coverage <= 0 || p.PromptTPS <= 0 {
		t.Errorf("profile incomplete: %+v", p)
	}
}

func TestMethodAndDatasetModDefaults(t *testing.T) {
	// A bare profile (no mods) must behave with sane defaults rather than
	// zero conformance / zero coverage scale.
	s := NewSim(Profile{
		Name: "bare", Params: 1,
		Coverage: 0.5, Accuracy: 0.9, TruePrior: 0.5,
		ContextSkill: 0.9, TrustContext: 0.9,
		PromptTPS: 1000, GenTPS: 300, Overhead: 0.1,
	})
	c := claim(true)
	c.Dataset = "SomethingElse"
	resp, err := s.Generate(context.Background(), Request{
		System: "s", Prompt: "p", Claim: c, Method: MethodGIVZ,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Default conformance is 1: output must be valid JSON.
	if !strings.HasPrefix(strings.TrimSpace(resp.Text), "{") {
		t.Errorf("default-conformance output not JSON: %q", resp.Text)
	}
}

func TestTopicCoverageGradient(t *testing.T) {
	// Education must be covered strictly better than Architecture and
	// Transportation; unknown topics are neutral.
	edu := topicCoverage("Education")
	arch := topicCoverage("Architecture")
	trans := topicCoverage("Transportation")
	news := topicCoverage("News")
	culture := topicCoverage("Culture")
	business := topicCoverage("Business")
	sports := topicCoverage("Sports")
	other := topicCoverage("SomethingNew")
	if !(edu > news && news > culture && culture > business && business > sports) {
		t.Error("head-domain gradient violated")
	}
	if arch >= sports || trans >= sports {
		t.Error("tail domains not penalised")
	}
	if other != 1.0 {
		t.Errorf("unknown topic factor = %f, want 1", other)
	}
}

func TestTopicAffectsKnowledge(t *testing.T) {
	m := MustNew(Gemma2)
	knowRate := func(topic string) float64 {
		hits := 0
		const n = 2000
		for i := 0; i < n; i++ {
			c := claim(true)
			c.Key = "T|award|K" + itoa(i)
			c.Popularity = 0.3
			c.Topic = topic
			if m.Knows(c) {
				hits++
			}
		}
		return float64(hits) / n
	}
	if knowRate("Education") <= knowRate("Architecture") {
		t.Error("education facts not better covered than architecture facts")
	}
}

func TestReasonVocabularyPerCategory(t *testing.T) {
	m := MustNew(Mistral)
	ctx := context.Background()
	wants := map[string][]string{
		"geo":          {"place", "country", "city", "location", "geograph"},
		"relationship": {"relationship", "marital"},
		"role":         {"role", "team", "employer", "position"},
		"genre":        {"genre", "categor"},
		"identifier":   {"identifier", "award", "biograph"},
		"other":        {"context", "recalled"},
	}
	for cat, keywords := range wants {
		found := false
		// Sample several claims per category; the model must emit a reason
		// containing category vocabulary whenever it answers "false".
		for i := 0; i < 60 && !found; i++ {
			c := claim(true)
			c.Key = "R|" + cat + "|x" + itoa(i)
			c.Category = cat
			c.Popularity = 0.9 // likely known -> mostly correct, some wrong
			c.Gold = false     // a known false fact yields verdict false
			resp, err := m.Generate(ctx, Request{System: "s", Prompt: "p", Claim: c, Method: MethodDKA})
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(strings.ToUpper(resp.Text), "FALSE") {
				continue
			}
			lower := strings.ToLower(resp.Text)
			for _, kw := range keywords {
				if strings.Contains(lower, kw) {
					found = true
					break
				}
			}
		}
		if !found {
			t.Errorf("category %s: no reason contained its vocabulary", cat)
		}
	}
}

func TestSlowResponseTail(t *testing.T) {
	// ~3% of calls are slow outliers, which the IQR filter later removes;
	// verify the tail exists.
	m := MustNew(Qwen25)
	ctx := context.Background()
	var base, maxLat float64
	const n = 400
	for i := 0; i < n; i++ {
		c := claim(true)
		c.Key = "L|homeCity|z" + itoa(i)
		r, err := m.Generate(ctx, Request{System: "s", Prompt: "p q r s t", Claim: c, Method: MethodDKA})
		if err != nil {
			t.Fatal(err)
		}
		s := r.Usage.Latency.Seconds()
		base += s
		if s > maxLat {
			maxLat = s
		}
	}
	mean := base / n
	if maxLat < 2*mean {
		t.Errorf("no slow tail: max %.3fs vs mean %.3fs", maxLat, mean)
	}
}

// refReason is Sim.reason as it was before it built only the picked
// template: every template of the branch built, then one picked by the
// same draw.
func refReason(s *Sim, c Claim, verdict bool, method Method) string {
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

// fmtRender is the fmt-based body of Sim.render that the concatenating one
// replaced, kept as the byte-for-byte reference.
func fmtRender(s *Sim, req Request, verdict, conformant bool) string {
	c := req.Claim
	label := "FALSE"
	if verdict {
		label = "TRUE"
	}
	reason := refReason(s, c, verdict, req.Method)
	switch req.Method {
	case MethodGIVZ, MethodGIVF:
		if !conformant {
			return fmt.Sprintf("Well, considering the statement about %s, one could argue it %s. %s",
				c.SubjectLabel, strings.ToLower(label), reason)
		}
		return fmt.Sprintf(`{"verdict": %q, "reason": %q}`, strings.ToLower(label), reason)
	case MethodRAG:
		return fmt.Sprintf("%s. Based on the provided context: %s", label, reason)
	default:
		return fmt.Sprintf("%s. %s", label, reason)
	}
}

// TestRenderMatchesFmt pins Sim.render to fmtRender for every method,
// verdict and conformance outcome, over reasons carrying quotes,
// backslashes, control characters, non-ASCII text and invalid UTF-8 (the
// reasons quote the claim's labels), and over plain printable ASCII, which
// GIV answers render without strconv.Quote. It also holds quoteVerbatim
// to strconv.Quote on every single byte and on the labels.
func TestRenderMatchesFmt(t *testing.T) {
	s := MustNew(Gemma2)
	labels := []string{
		"Ada Example",
		"Plain ~!#$%&'()*+,-./:;<=>?@[]^_`{|} 0189 Ltd",
		`The "Quoted" Band`,
		`Back\slash \n Ltd`,
		"Ctrl\x00\x01\t\r\n\x7f Entity",
		"Zoë Ångström 東京 😀",
		"bad \xff\xfe utf8",
		"100% %s %q",
	}
	categories := []string{"geo", "relationship", "role", "genre", "identifier", "other"}
	for i, subj := range labels {
		for _, m := range []Method{MethodDKA, MethodGIVZ, MethodGIVF, MethodRAG} {
			for _, verdict := range []bool{false, true} {
				for _, conformant := range []bool{false, true} {
					for k, cat := range categories {
						c := claim(verdict)
						c.Key = fmt.Sprintf("k%d-%d", i, k)
						c.SubjectLabel, c.ObjectLabel, c.Category = subj, labels[(i+1)%len(labels)], cat
						req := Request{Claim: c, Method: m}
						if got, want := s.reason(c, verdict, m), refReason(s, c, verdict, m); got != want {
							t.Errorf("reason(%s, %q, verdict=%v) = %q, want %q", m, subj, verdict, got, want)
						}
						if got, want := s.render(req, verdict, conformant), fmtRender(s, req, verdict, conformant); got != want {
							t.Errorf("render(%s, %q, verdict=%v, conformant=%v) = %q, want %q",
								m, subj, verdict, conformant, got, want)
						}
					}
				}
			}
		}
	}
	quoted := append([]string{"", `say "hi"`, "naïve café", "\u2028 line sep", "\u00ad soft", "\ufffd", "\xc3", "\xed\xa0\x80"}, labels...)
	for b := 0; b < 256; b++ {
		quoted = append(quoted, string([]byte{byte(b)}), "x"+string([]byte{byte(b)})+"y")
	}
	for r := rune(0x80); r < 0x3100; r++ {
		quoted = append(quoted, string(r))
	}
	for _, q := range quoted {
		if quoteVerbatim(q) != (strconv.Quote(q) == `"`+q+`"`) {
			t.Errorf("quoteVerbatim(%q) = %v, but strconv.Quote gives %s", q, quoteVerbatim(q), strconv.Quote(q))
		}
	}
}

// TestSystemTokensMemo checks the system-prompt token memo: counts equal
// text.CountTokens, memoised or not, and the memo stops at its bound.
func TestSystemTokensMemo(t *testing.T) {
	s := MustNew(Mistral)
	for round := 0; round < 2; round++ {
		for i := 0; i < 3*maxSystemPrompts; i++ {
			system := fmt.Sprintf("system prompt %d with %s words", i, strings.Repeat("x ", i))
			if got, want := s.systemTokens(system), text.CountTokens(system); got != want {
				t.Fatalf("systemTokens(%q) = %d, want %d", system, got, want)
			}
		}
	}
	for i := range s.sysTokens {
		if e := s.sysTokens[i].Load(); e == nil || !strings.HasPrefix(e.prompt, fmt.Sprintf("system prompt %d ", i)) {
			t.Errorf("memo slot %d holds %+v, want prompt %d", i, e, i)
		}
	}
}
