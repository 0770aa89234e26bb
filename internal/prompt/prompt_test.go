package prompt

import (
	"fmt"
	"strings"
	"testing"

	"factcheck/internal/llm"
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

func TestDKAPrompt(t *testing.T) {
	system, user := DKA(testClaim())
	if system != DKASystem {
		t.Error("DKA system prompt mismatch")
	}
	if !strings.Contains(user, "Ada Example was born in Sampletown.") {
		t.Errorf("DKA user prompt missing sentence: %q", user)
	}
}

func TestGIVPromptParts(t *testing.T) {
	c := testClaim()
	system, zero := GIV(c, false, 0)
	if !strings.Contains(system, `{"verdict": "true" | "false"`) {
		t.Error("GIV system prompt missing schema")
	}
	if !strings.Contains(zero, ConstraintsFor("FactBench")) {
		t.Error("GIV prompt missing dataset constraints")
	}
	if strings.Contains(zero, "Examples:") {
		t.Error("zero-shot prompt contains examples")
	}

	_, few := GIV(c, true, 0)
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

	_, retry := GIV(c, false, 1)
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
	system, user := RAG(testClaim(), chunks)
	if system != RAGSystem {
		t.Error("RAG system prompt mismatch")
	}
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

func TestGIVRoundTripWithSim(t *testing.T) {
	// A conformant simulated GIV answer must parse.
	out := `{"verdict": "false", "reason": "The stated place conflicts with known records."}`
	if _, _, ok := ParseGIV(out); !ok {
		t.Error("canonical sim output does not parse")
	}
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

// TestPromptsMatchFmt pins DKA, GIV (zero- and few-shot, attempts 0 and 1,
// every dataset and an unknown one) and RAG (0, 1 and 20 chunks) to the
// fmt-based renderers they replaced, byte for byte.
func TestPromptsMatchFmt(t *testing.T) {
	for _, ds := range []string{"FactBench", "YAGO", "DBpedia", "other"} {
		for _, sent := range awkwardSentences {
			c := testClaim()
			c.Dataset, c.Sentence = ds, sent
			if _, got := DKA(c); got != fmtDKA(c) {
				t.Errorf("DKA(%s, %q) = %q, want %q", ds, sent, got, fmtDKA(c))
			}
			for _, fewShot := range []bool{false, true} {
				for _, attempt := range []int{0, 1} {
					if _, got := GIV(c, fewShot, attempt); got != fmtGIV(c, fewShot, attempt) {
						t.Errorf("GIV(%s, %q, fewShot=%v, attempt=%d) = %q, want %q",
							ds, sent, fewShot, attempt, got, fmtGIV(c, fewShot, attempt))
					}
				}
			}
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
			if _, got := RAG(c, chunks[:n]); got != fmtRAG(c, chunks[:n]) {
				t.Errorf("RAG(%q, %d chunks) = %q, want %q", sent, n, got, fmtRAG(c, chunks[:n]))
			}
		}
	}
}
