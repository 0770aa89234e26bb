package prompt

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"factcheck/internal/corpus"
	"factcheck/internal/dataset"
	"factcheck/internal/llm"
	"factcheck/internal/rag"
	"factcheck/internal/search"
	"factcheck/internal/text"
	"factcheck/internal/verbalize"
	"factcheck/internal/world"
)

func testClaim() llm.Claim {
	return llm.Claim{
		Dataset:      "FactBench",
		Sentence:     "Ada Example was born in Sampletown.",
		SubjectLabel: "Ada Example",
		ObjectLabel:  "Sampletown",
		Phrase:       "was born in",
	}
}

// sentenceOf returns the claim's sentence as a prompt part.
func sentenceOf(c llm.Claim) llm.Part { return llm.NewPart(c.Sentence) }

func TestDKAPrompt(t *testing.T) {
	system, prompt := DKA(sentenceOf(testClaim()))
	if system != DKASystem {
		t.Error("DKA system prompt mismatch")
	}
	if user := prompt.String(); !strings.Contains(user, "Ada Example was born in Sampletown.") {
		t.Errorf("DKA user prompt missing sentence: %q", user)
	}
}

func TestGIVPromptParts(t *testing.T) {
	c := testClaim()
	giv := func(fewShot bool, attempt int) (string, string) {
		system, user := GIV(c.Dataset, sentenceOf(c), fewShot, attempt)
		return system, user.String()
	}
	system, zero := giv(false, 0)
	if !strings.Contains(system, `{"verdict": "true" | "false"`) {
		t.Error("GIV system prompt missing schema")
	}
	if !strings.Contains(zero, ConstraintsFor("FactBench")) {
		t.Error("GIV prompt missing dataset constraints")
	}
	if strings.Contains(zero, "Examples:") {
		t.Error("zero-shot prompt contains examples")
	}

	_, few := giv(true, 0)
	if !strings.Contains(few, "Examples:") {
		t.Error("few-shot prompt missing examples")
	}
	for _, ex := range FewShotExamples {
		if !strings.Contains(few, ex.Statement) {
			t.Errorf("few-shot prompt missing example %q", ex.Statement)
		}
	}
	if len(few) <= len(zero) {
		t.Error("few-shot prompt not longer than zero-shot")
	}

	_, retry := giv(false, 1)
	if !strings.Contains(retry, "did not conform") {
		t.Error("re-prompt missing non-compliance flag")
	}
}

func TestConstraintsForAllDatasets(t *testing.T) {
	for _, ds := range []string{"FactBench", "YAGO", "DBpedia"} {
		if ConstraintsFor(ds) == "" {
			t.Errorf("no constraints for %s", ds)
		}
	}
	if ConstraintsFor("Other") != "" {
		t.Error("constraints for unknown dataset")
	}
}

func TestRAGPrompt(t *testing.T) {
	chunks := []string{"First passage.", "Second passage."}
	system, prompt := RAG(testClaim(), llm.Passages(chunks))
	if system != RAGSystem {
		t.Error("RAG system prompt mismatch")
	}
	user := prompt.String()
	if !strings.Contains(user, "[1] First passage.") || !strings.Contains(user, "[2] Second passage.") {
		t.Errorf("RAG prompt missing numbered chunks: %q", user)
	}
	if !strings.Contains(user, "Ada Example was born in Sampletown.") {
		t.Error("RAG prompt missing statement")
	}
}

func TestParseGIV(t *testing.T) {
	tests := []struct {
		in      string
		verdict bool
		ok      bool
	}{
		{`{"verdict": "true", "reason": "it holds"}`, true, true},
		{`{"verdict": "false", "reason": "it does not"}`, false, true},
		{`  {"verdict": "TRUE", "reason": "case-insensitive"}  `, true, true},
		{"{\n  \"verdict\": \"false\",\n  \"reason\": \"pretty-printed\"\n}", false, true},
		{`{"verdict": "maybe", "reason": "x"}`, false, false},
		{`not json at all`, false, false},
		{`{"reason": "missing verdict"}`, false, false},
		{``, false, false},
	}
	for _, tc := range tests {
		v, _, ok := ParseGIV(tc.in)
		if ok != tc.ok || (ok && v != tc.verdict) {
			t.Errorf("ParseGIV(%q) = (%v, %v), want (%v, %v)", tc.in, v, ok, tc.verdict, tc.ok)
		}
	}
}

// TestParseGIVRamblingAllocatesNothing pins the leading-byte reject: the
// simulator's rambling GIV answers, and other inputs that are no JSON
// object, fail to parse without allocating (json.Unmarshal made 12
// allocations on a rambling answer).
func TestParseGIVRamblingAllocatesNothing(t *testing.T) {
	m := llm.MustNew(llm.Llama31)
	var rambling []string
	for attempt := 0; attempt < 40 && len(rambling) < 5; attempt++ {
		c := testClaim()
		c.Key = fmt.Sprint("ramble|", attempt)
		c = llm.NewClaim(c)
		resp, err := m.Generate(context.Background(), llm.Request{Claim: c, Method: llm.MethodGIVZ})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(resp.Text, "{") {
			rambling = append(rambling, resp.Text)
		}
	}
	if len(rambling) == 0 {
		t.Fatal("the simulator gave no rambling answer")
	}
	for _, in := range append(rambling, "null", `["verdict", "true"]`, `"true"`, "  true ", "") {
		if _, _, ok := ParseGIV(in); ok {
			t.Errorf("ParseGIV(%q) parsed", in)
		}
		if n := testing.AllocsPerRun(20, func() { ParseGIV(in) }); n != 0 {
			t.Errorf("ParseGIV(%q) makes %v allocations, want 0", in, n)
		}
	}
}

func TestParseGIVReason(t *testing.T) {
	_, reason, ok := ParseGIV(`{"verdict": "true", "reason": "solid evidence"}`)
	if !ok || reason != "solid evidence" {
		t.Errorf("reason = %q, ok = %v", reason, ok)
	}
}

func TestParseFree(t *testing.T) {
	tests := []struct {
		in      string
		verdict bool
		reason  string
		ok      bool
	}{
		{"TRUE. It matches records.", true, "It matches records.", true},
		{"FALSE. Contradicted.", false, "Contradicted.", true},
		{"true - lowercase works", true, "- lowercase works", true},
		{"  FALSE: with colon", false, "with colon", true},
		{"I think the answer is yes", false, "", false},
		{"", false, "", false},
	}
	for _, tc := range tests {
		v, r, ok := ParseFree(tc.in)
		if ok != tc.ok || v != tc.verdict {
			t.Errorf("ParseFree(%q) = (%v, %q, %v), want (%v, %q, %v)",
				tc.in, v, r, ok, tc.verdict, tc.reason, tc.ok)
		}
		if ok && tc.reason != "" && !strings.Contains(tc.in, r) {
			t.Errorf("reason %q not a substring of input", r)
		}
	}
}

// TestParseFreeMatchesLabelBytes pins the label to the response's own
// bytes: a non-ASCII letter whose upper case is an ASCII one does not
// spell a label, and the reason starts right after the label matched.
func TestParseFreeMatchesLabelBytes(t *testing.T) {
	if v, r, ok := ParseFree("falſe. The reason"); ok {
		t.Errorf(`ParseFree("falſe. The reason") = (%v, %q, true), want no label`, v, r)
	}
	if v, r, ok := ParseFree("fAlSe. The reason"); !ok || v || r != "The reason" {
		t.Errorf(`ParseFree("fAlSe. The reason") = (%v, %q, %v), want (false, "The reason", true)`, v, r, ok)
	}
	if v, r, ok := ParseFree("Trueſ tail"); !ok || !v || r != "ſ tail" {
		t.Errorf(`ParseFree("Trueſ tail") = (%v, %q, %v), want (true, "ſ tail", true)`, v, r, ok)
	}
	if allocs := testing.AllocsPerRun(100, func() { ParseFree("  TRUE. It matches records. ") }); allocs != 0 {
		t.Errorf("ParseFree made %v allocations, want 0", allocs)
	}
}

// jsonParseGIV is ParseGIV as it was before its exact-shape fast path:
// json.Unmarshal on every input. FuzzParseGIV holds ParseGIV to it.
func jsonParseGIV(out string) (verdict bool, reason string, ok bool) {
	out = strings.TrimSpace(out)
	var a givAnswer
	if err := json.Unmarshal([]byte(out), &a); err != nil {
		return false, "", false
	}
	switch strings.ToLower(a.Verdict) {
	case "true":
		return true, a.Reason, true
	case "false":
		return false, a.Reason, true
	default:
		return false, "", false
	}
}

// FuzzParseGIV holds ParseGIV to the json-only parser on any input. The
// seeds are the simulator's conformant and rambling answers and the
// schema's shape with escapes, non-ASCII text, invalid UTF-8, surrounding
// whitespace, and reordered, extra and differently cased keys.
func FuzzParseGIV(f *testing.F) {
	m := llm.MustNew(llm.Llama31)
	for _, gold := range []bool{false, true} {
		for _, cat := range []string{"geo", "role", "other"} {
			for attempt := 0; attempt < 3; attempt++ {
				c := testClaim()
				c.Key, c.Gold, c.Category = fmt.Sprint("seed|", cat, "|", attempt), gold, cat
				c = llm.NewClaim(c)
				for _, method := range []llm.Method{llm.MethodGIVZ, llm.MethodGIVF} {
					resp, err := m.Generate(context.Background(), llm.Request{Claim: c, Method: method, Attempt: attempt})
					if err != nil {
						f.Fatal(err)
					}
					f.Add(resp.Text)
				}
			}
		}
	}
	for _, s := range []string{
		`{"verdict": "true", "reason": "it holds"}`,
		`{"verdict": "false", "reason": ""}`,
		`{"verdict": "true", "reason": "say \"hi\" \\ \n \u00e9 \ud83d\ude00"}`,
		`{"verdict": "false", "reason": "Zoë Ångström 東京 😀"}`,
		"{\"verdict\": \"true\", \"reason\": \"bad \xff\xfe utf8\"}",
		"{\"verdict\": \"true\", \"reason\": \"tab\there\"}",
		"{\"verdict\": \"true\", \"reason\": \"del\x7f\"}",
		" \t\n{\"verdict\": \"true\", \"reason\": \"padded\"}\r\n ",
		`{"reason": "reordered", "verdict": "false"}`,
		`{"verdict": "true", "reason": "extra", "confidence": 0.9}`,
		`{"Verdict": "TRUE", "REASON": "cased keys"}`,
		`{"verdict":"true","reason":"compact"}`,
		`{"verdict": "true", "reason": "dup", "reason": "second"}`,
		`{"verdict": "maybe", "reason": "x"}`,
		`{"verdict": "true", "reason": "unterminated`,
		`{"verdict": "true", "reason": "x"} trailing`,
		`not json at all`,
		``,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		v, r, ok := ParseGIV(in)
		wv, wr, wok := jsonParseGIV(in)
		if v != wv || r != wr || ok != wok {
			t.Fatalf("ParseGIV(%q) = (%v, %q, %v), json parser (%v, %q, %v)", in, v, r, ok, wv, wr, wok)
		}
	})
}

func TestGIVRoundTripWithSim(t *testing.T) {
	// A conformant simulated GIV answer must parse.
	out := `{"verdict": "false", "reason": "The stated place conflicts with known records."}`
	if _, _, ok := ParseGIV(out); !ok {
		t.Error("canonical sim output does not parse")
	}
	if allocs := testing.AllocsPerRun(100, func() { ParseGIV(out) }); allocs != 0 {
		t.Errorf("ParseGIV of a conformant answer made %v allocations, want 0", allocs)
	}
}

// ConstraintsFor returns the dataset's constraint text, "" for a dataset
// without one.
func ConstraintsFor(ds string) string {
	return strings.TrimSuffix(constraintsBlock(ds).Text, "\n\n")
}

// fmtDKA, fmtGIV and fmtRAG are the fmt-based renderers DKA, GIV and RAG
// replaced, kept as the byte-for-byte reference.
func fmtDKA(c llm.Claim) string {
	return fmt.Sprintf("Is the following statement true or false?\n%s", c.Sentence)
}

func fmtGIV(c llm.Claim, fewShot bool, attempt int) string {
	var b strings.Builder
	if cons := ConstraintsFor(c.Dataset); cons != "" {
		b.WriteString(cons)
		b.WriteString("\n\n")
	}
	if fewShot {
		b.WriteString("Examples:\n")
		for _, ex := range FewShotExamples {
			b.WriteString(fmt.Sprintf("Statement: %s\nAnswer: {\"verdict\": %q, \"reason\": %q}\n",
				ex.Statement, ex.Verdict, ex.Reason))
		}
		b.WriteString("\n")
	}
	if attempt > 0 {
		b.WriteString("Your previous answer did not conform to the required JSON schema. Reply with ONLY the JSON object.\n\n")
	}
	b.WriteString(fmt.Sprintf("Statement: %s\nAnswer:", c.Sentence))
	return b.String()
}

func fmtRAG(c llm.Claim, chunks []string) string {
	var b strings.Builder
	b.WriteString("Context passages:\n")
	for i, ch := range chunks {
		b.WriteString(fmt.Sprintf("[%d] %s\n", i+1, ch))
	}
	b.WriteString(fmt.Sprintf("\nStatement: %s\nIs the statement true or false?", c.Sentence))
	return b.String()
}

// awkwardSentences exercise fmt verbs, quotes, backslashes and non-ASCII
// text in the claim.
var awkwardSentences = []string{
	"Ada Example was born in Sampletown.",
	`100% of "quoted" \ claims %d %s %!`,
	"Zoë Ångström wurde in Köln geboren — 東京   tab\there.",
	"",
}

// checkRender checks a prompt against the text its template renders: its
// String() is that text, and its parts' word sum is the text's word count.
func checkRender(t *testing.T, what string, p llm.Prompt, want string) {
	t.Helper()
	if got := p.String(); got != want {
		t.Errorf("%s = %q, want %q", what, got, want)
	}
	if got, want := p.Words(), text.CountWords(want); got != want {
		t.Errorf("%s: parts hold %d words, the rendered text %d", what, got, want)
	}
}

// checkDKAGIV checks the DKA prompt and every GIV prompt (both variants,
// attempts 0–2) of the claim against the fmt-based renderers.
func checkDKAGIV(t *testing.T, c llm.Claim) {
	t.Helper()
	_, dka := DKA(sentenceOf(c))
	checkRender(t, fmt.Sprintf("DKA(%q)", c.Sentence), dka, fmtDKA(c))
	for _, fewShot := range []bool{false, true} {
		for attempt := 0; attempt < 3; attempt++ {
			_, giv := GIV(c.Dataset, sentenceOf(c), fewShot, attempt)
			checkRender(t, fmt.Sprintf("GIV(%s, %q, fewShot=%v, attempt=%d)", c.Dataset, c.Sentence, fewShot, attempt),
				giv, fmtGIV(c, fewShot, attempt))
		}
	}
}

// TestPromptsMatchFmt pins DKA, GIV (zero- and few-shot, attempts 0–2,
// every dataset and an unknown one) and RAG (0, 1 and 20 chunks) to the
// fmt-based renderers they replaced, byte for byte.
func TestPromptsMatchFmt(t *testing.T) {
	for _, ds := range []string{"FactBench", "YAGO", "DBpedia", "other"} {
		for _, sent := range awkwardSentences {
			c := testClaim()
			c.Dataset, c.Sentence = ds, sent
			checkDKAGIV(t, c)
		}
	}
	var chunks []string
	for i := 0; i < 20; i++ {
		chunks = append(chunks, fmt.Sprintf(`chunk %d: 50%% "sure" \ naïve café 😀 %%s`, i))
	}
	for _, n := range []int{0, 1, 20} {
		for _, sent := range awkwardSentences {
			c := testClaim()
			c.Sentence = sent
			_, got := RAG(c, llm.Passages(chunks[:n]))
			checkRender(t, fmt.Sprintf("RAG(%q, %d chunks)", sent, n), got, fmtRAG(c, chunks[:n]))
		}
	}
}

// checkRAG checks the claim's RAG prompt over chunks against fmtRAG.
func checkRAG(t *testing.T, c llm.Claim, chunks []string) {
	t.Helper()
	_, got := RAG(c, llm.Passages(chunks))
	checkRender(t, fmt.Sprintf("RAG(%q, %q)", c.Sentence, chunks), got, fmtRAG(c, chunks))
}

// TestPromptPartsMatchRender checks every DKA, GIV and RAG prompt of the
// small grid, each fact of each dataset in both GIV variants at attempts
// 0–2 and over the evidence the RAG pipeline retrieves for it: the parts
// render the template's bytes, and their word counts sum to the rendered
// text's, so charging the parts charges what a text model reads.
func TestPromptPartsMatchRender(t *testing.T) {
	ctx := context.Background()
	w := world.New(world.SmallConfig())
	gen := corpus.NewGenerator(w)
	withEvidence := 0
	for _, d := range dataset.Universe(w, 0.05) {
		p := rag.New(search.NewEngine(gen, d))
		for _, f := range d.Facts {
			c := llm.Claim{Dataset: string(f.Dataset), Sentence: verbalize.Sentence(f)}
			checkDKAGIV(t, c)
			ev, err := p.RetrieveCtx(ctx, f)
			if err != nil {
				t.Fatal(err)
			}
			chunks := ev.ChunkTexts()
			checkRAG(t, c, chunks)
			p.Invalidate(f.ID)
			if len(chunks) > 0 {
				withEvidence++
			}
		}
	}
	if withEvidence == 0 {
		t.Fatal("no RAG prompt carried evidence")
	}
}

// FuzzPromptWordsMatchRender holds the parts rule on any sentence,
// dataset and chunk list: DKA, GIV and RAG prompts render the template's
// bytes, and their parts' word sum is the rendered text's word count. The
// seeds put ASCII and Unicode spaces (U+00A0, U+2003, U+0085) at the edges
// of the sentence and of the chunks, where they meet the template. The
// chunk list is the third argument split at '|', n of them kept: n = 0 is
// the empty list, and an empty field an empty chunk.
func FuzzPromptWordsMatchRender(f *testing.F) {
	for i, s := range []string{
		"", " ", "\n", "Ada Example was born in Sampletown.", "  leading", "trailing \t",
		"\u00a0Ada\u00a0Example\u00a0", "\u2003em\u2003space\u2003", "next\u0085line", "Zoë 東京 😀",
		"bad \xff utf8", "\xe2\x80", "%d %s \"quoted\" \\",
	} {
		f.Add(s, uint8(i), "A chunk.|\u00a0lead and trail\u2003| tab\t|\u0085|bad \xff|", uint8(i))
	}
	f.Add("Ada.", uint8(0), "", uint8(1))
	f.Add("Ada.", uint8(1), "||", uint8(3))
	datasets := []string{"FactBench", "YAGO", "DBpedia", "other"}
	f.Fuzz(func(t *testing.T, sentence string, ds uint8, chunkList string, n uint8) {
		c := testClaim()
		c.Dataset, c.Sentence = datasets[int(ds)%len(datasets)], sentence
		checkDKAGIV(t, c)
		chunks := strings.Split(chunkList, "|")
		checkRAG(t, c, chunks[:int(n)%(len(chunks)+1)])
	})
}
