package llm

import (
	"context"
	"strings"
	"testing"
)

func claim(gold bool) Claim {
	return NewClaim(Claim{
		Key:          "Subject_One|birthPlace|City_Two",
		FactID:       "factbench-000001",
		Dataset:      "FactBench",
		Gold:         gold,
		Popularity:   0.4,
		Category:     "geo",
		Sentence:     "Subject One was born in City Two.",
		SubjectLabel: "Subject One",
		ObjectLabel:  "City Two",
		Phrase:       "was born in",
	})
}

// keyedClaim is claim(gold) under key, its shared draws made for key.
func keyedClaim(gold bool, key string) Claim {
	c := claim(gold)
	c.Key = key
	return NewClaim(c)
}

func TestRegistry(t *testing.T) {
	for _, name := range Names() {
		m, err := New(name)
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		if m.Name() != name {
			t.Errorf("Name() = %s, want %s", m.Name(), name)
		}
		if m.ParamsB() <= 0 {
			t.Errorf("%s has non-positive params", name)
		}
	}
	if _, err := New("gpt-999"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic")
		}
	}()
	MustNew("no-such-model")
}

func TestUpgradeMapComplete(t *testing.T) {
	for _, m := range OpenSourceModels {
		up, ok := Upgrade[m]
		if !ok {
			t.Fatalf("no upgrade for %s", m)
		}
		big := MustNew(up)
		base := MustNew(m)
		if big.ParamsB() <= base.ParamsB() {
			t.Errorf("upgrade %s (%.0fB) not larger than %s (%.0fB)",
				up, big.ParamsB(), m, base.ParamsB())
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	m := MustNew(Gemma2)
	req := Request{System: "sys", Prompt: textPrompt("p"), Claim: claim(true), Method: MethodDKA}
	a, err := m.Generate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := m.Generate(context.Background(), req)
	if a.Text != b.Text || a.Usage != b.Usage {
		t.Error("Generate not deterministic")
	}
}

func TestGenerateRespectsContext(t *testing.T) {
	m := MustNew(Gemma2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Generate(ctx, Request{Claim: claim(true), Method: MethodDKA}); err == nil {
		t.Error("cancelled context accepted")
	}
}

func TestDKAOutputParseable(t *testing.T) {
	m := MustNew(Mistral)
	resp, err := m.Generate(context.Background(), Request{
		System: "s", Prompt: textPrompt("p"), Claim: claim(true), Method: MethodDKA,
	})
	if err != nil {
		t.Fatal(err)
	}
	up := strings.ToUpper(resp.Text)
	if !strings.HasPrefix(up, "TRUE") && !strings.HasPrefix(up, "FALSE") {
		t.Errorf("DKA output %q lacks verdict prefix", resp.Text)
	}
}

func TestUsageAccounting(t *testing.T) {
	m := MustNew(Llama31)
	resp, err := m.Generate(context.Background(), Request{
		System: "system prompt words here", Prompt: textPrompt("user prompt with several words"),
		Claim: claim(true), Method: MethodDKA,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Usage.PromptTokens <= 0 || resp.Usage.CompletionTokens <= 0 {
		t.Errorf("usage = %+v, want positive token counts", resp.Usage)
	}
	if resp.Usage.Latency <= 0 {
		t.Error("non-positive latency")
	}
	// Evidence must be token-charged.
	withEv, _ := m.Generate(context.Background(), Request{
		System: "system prompt words here", Prompt: textPrompt("user prompt with several words"),
		Claim: claim(true), Method: MethodRAG,
		Evidence: []string{"a long evidence chunk with many additional words to count"},
	})
	if withEv.Usage.PromptTokens <= resp.Usage.PromptTokens {
		t.Error("evidence not charged to prompt tokens")
	}
}

func TestKnowledgeAccuracyOnKnownFacts(t *testing.T) {
	// A model that knows a fact should usually judge it correctly under DKA.
	m := MustNew(Gemma2)
	correct, known := 0, 0
	for i := 0; i < 2000; i++ {
		c := keyedClaim(i%2 == 0, "S|birthPlace|O"+string(rune('a'+i%26))+itoa(i))
		c.Popularity = 0.8
		if !m.Knows(&c) {
			continue
		}
		known++
		if m.Belief(&c, MethodDKA) == c.Gold {
			correct++
		}
	}
	if known < 200 {
		t.Fatalf("only %d known facts at popularity 0.8", known)
	}
	acc := float64(correct) / float64(known)
	if acc < 0.85 {
		t.Errorf("accuracy on known facts = %.3f, want >= 0.85", acc)
	}
}

func TestPopularityDrivesKnowledge(t *testing.T) {
	m := MustNew(Qwen25)
	knowsAt := func(pop float64) float64 {
		hit := 0
		const n = 1500
		for i := 0; i < n; i++ {
			c := keyedClaim(true, "P|award|X"+itoa(i))
			c.Popularity = pop
			if m.Knows(&c) {
				hit++
			}
		}
		return float64(hit) / n
	}
	head, tail := knowsAt(0.95), knowsAt(0.02)
	if head <= tail {
		t.Errorf("head coverage %.3f <= tail coverage %.3f", head, tail)
	}
}

func TestReadStance(t *testing.T) {
	c := claim(true)
	tests := []struct {
		text string
		want int
	}{
		{"Subject One was born in City Two. More text.", 1},
		{"Subject One was born in Other Place. Contrary text.", -1},
		{"Contrary to some claims, it is not the case that Subject One was born in City Two.", -1},
		{"Subject One is discussed in this article.", 0},
		{"Totally unrelated content.", 0},
		{"", 0},
	}
	for _, tc := range tests {
		if got := ReadStance(&c, tc.text); got != tc.want {
			t.Errorf("ReadStance(%q) = %d, want %d", tc.text, got, tc.want)
		}
	}
}

// refReadStance is ReadStance as it was when it built the assertion
// string to search for.
func refReadStance(c *Claim, chunkText string) int {
	if c.SubjectLabel == "" || !strings.Contains(chunkText, c.SubjectLabel) {
		return 0
	}
	if strings.Contains(chunkText, "not the case that") &&
		strings.Contains(chunkText, c.ObjectLabel) {
		return -1
	}
	assertion := c.SubjectLabel + " " + c.Phrase + " "
	if idx := strings.Index(chunkText, assertion); idx >= 0 {
		if strings.HasPrefix(chunkText[idx+len(assertion):], c.ObjectLabel) {
			return 1
		}
		return -1
	}
	return 0
}

// TestReadStanceMatchesReference holds ReadStance to refReadStance over
// the golden claims' evidence and over texts where the subject recurs,
// overlaps itself or ends the text, and labels or phrases are empty.
func TestReadStanceMatchesReference(t *testing.T) {
	check := func(c Claim, text string) {
		t.Helper()
		if got, want := ReadStance(&c, text), refReadStance(&c, text); got != want {
			t.Errorf("ReadStance(%q/%q/%q, %q) = %d, reference %d",
				c.SubjectLabel, c.Phrase, c.ObjectLabel, text, got, want)
		}
	}
	for i, c := range goldenClaims(120) {
		for _, ev := range goldenEvidence(c, i) {
			check(c, ev)
		}
	}
	for _, c := range []Claim{
		{SubjectLabel: "aa", Phrase: "is", ObjectLabel: "b"},
		{SubjectLabel: "a a", Phrase: "a", ObjectLabel: "a"},
		{SubjectLabel: "x", Phrase: "", ObjectLabel: ""},
		{SubjectLabel: "", Phrase: "is", ObjectLabel: "b"},
	} {
		for _, text := range []string{
			"", "aa", "aaa is b", "aa isn't b; aa is c", "a a a a a", "a a a a b",
			"x  y", "x ", "xx  ", "aa is ", "aa is b", "not the case that aa is b",
			"aa is b, not the case that", "aaaa is bb",
		} {
			check(c, text)
		}
	}
}

func TestRAGFollowsEvidence(t *testing.T) {
	m := MustNew(GPT4oMini) // highest context skill
	c := claim(false)       // model would need evidence to say true
	c.Popularity = 0.01     // make internal knowledge unlikely
	support := "Subject One was born in City Two. Multiple records agree."
	followed := 0
	const n = 300
	for i := 0; i < n; i++ {
		cc := c
		cc.Key = "S|birthPlace|C" + itoa(i)
		cc = NewClaim(cc)
		resp, err := m.Generate(context.Background(), Request{
			System: "s", Prompt: textPrompt("p"), Claim: cc, Method: MethodRAG,
			Evidence: []string{support, support, support},
		})
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(strings.ToUpper(resp.Text), "TRUE") {
			followed++
		}
	}
	if rate := float64(followed) / n; rate < 0.85 {
		t.Errorf("evidence followed %.2f of the time, want >= 0.85", rate)
	}
}

func TestGIVConformanceImprovesOnRetry(t *testing.T) {
	m := MustNew(Llama31) // lowest GIV-Z conformance
	ctx := context.Background()
	firstFail, retryFail := 0, 0
	const n = 800
	for i := 0; i < n; i++ {
		c := keyedClaim(true, "S|award|A"+itoa(i))
		r0, _ := m.Generate(ctx, Request{Claim: c, Method: MethodGIVZ, Attempt: 0})
		if !strings.HasPrefix(strings.TrimSpace(r0.Text), "{") {
			firstFail++
			r1, _ := m.Generate(ctx, Request{Claim: c, Method: MethodGIVZ, Attempt: 1})
			if !strings.HasPrefix(strings.TrimSpace(r1.Text), "{") {
				retryFail++
			}
		}
	}
	if firstFail == 0 {
		t.Fatal("model never produced non-conformant output")
	}
	if float64(retryFail)/float64(firstFail) > 0.7 {
		t.Errorf("retry fixed too few failures: %d/%d still failing", retryFail, firstFail)
	}
}

func TestBeliefStableAcrossInternalMethods(t *testing.T) {
	// Knows is method-independent; beliefs may shift via method mods but the
	// knowledge set itself must not.
	m := MustNew(Gemma2)
	for i := 0; i < 100; i++ {
		c := keyedClaim(i%2 == 0, "X|spouse|Y"+itoa(i))
		k := m.Knows(&c)
		for j := 0; j < 3; j++ {
			if m.Knows(&c) != k {
				t.Fatal("Knows is not stable")
			}
		}
	}
}

func TestSharedKnowledgeCorrelation(t *testing.T) {
	// Models share a claim-level knowledge stream: agreement between two
	// models on the "knows" decision must exceed independence.
	a, b := MustNew(Gemma2), MustNew(Llama31)
	agree, n := 0, 2000
	var ka, kb int
	for i := 0; i < n; i++ {
		c := keyedClaim(true, "C|employer|E"+itoa(i))
		c.Popularity = 0.3
		x, y := a.Knows(&c), b.Knows(&c)
		if x {
			ka++
		}
		if y {
			kb++
		}
		if x == y {
			agree++
		}
	}
	pa, pb := float64(ka)/float64(n), float64(kb)/float64(n)
	indep := pa*pb + (1-pa)*(1-pb)
	got := float64(agree) / float64(n)
	if got <= indep+0.05 {
		t.Errorf("agreement %.3f not above independence %.3f", got, indep)
	}
}

func TestLatencyOrderingAcrossMethods(t *testing.T) {
	m := MustNew(Gemma2)
	ctx := context.Background()
	lat := func(method Method, system, prompt string, evidence []string) float64 {
		total := 0.0
		for i := 0; i < 50; i++ {
			c := keyedClaim(true, "L|capital|Q"+itoa(i))
			r, _ := m.Generate(ctx, Request{
				System: system, Prompt: textPrompt(prompt), Claim: c, Method: method, Evidence: evidence,
			})
			total += r.Usage.Latency.Seconds()
		}
		return total / 50
	}
	short := strings.Repeat("word ", 40)
	long := strings.Repeat("word ", 400)
	ev := []string{strings.Repeat("evidence ", 100)}
	dka := lat(MethodDKA, "sys", short, nil)
	giv := lat(MethodGIVZ, "sys", long, nil)
	ragL := lat(MethodRAG, "sys", long, ev)
	if !(dka < giv && giv < ragL) {
		t.Errorf("latency ordering violated: dka=%.3f giv=%.3f rag=%.3f", dka, giv, ragL)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

// textPrompt is s as a one-part prompt.
func textPrompt(s string) Prompt { return PromptOf(NewPart(s)) }

// TestPromptParts pins Prompt: empty parts are left out, the words of its
// parts add up, and its text is theirs joined.
func TestPromptParts(t *testing.T) {
	p := PromptOf(NewPart("Statement: "), Part{}, NewPart("Ada  was born"), NewPart("\nAnswer:"))
	if got, want := p.String(), "Statement: Ada  was born\nAnswer:"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if got := p.Words(); got != 5 {
		t.Errorf("Words() = %d, want 5", got)
	}
	if p.n != 3 {
		t.Errorf("prompt holds %d parts, want the 3 non-empty ones", p.n)
	}
	if PromptOf().String() != "" || PromptOf().Words() != 0 {
		t.Error("the empty prompt is not empty")
	}
}
