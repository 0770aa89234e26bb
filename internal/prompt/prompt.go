// Package prompt builds the verification prompts of the benchmark's
// strategies (paper §3.1–3.2) and parses model outputs back into verdicts.
// Prompt text is what gets token-charged in the resource accounting, so the
// templates' lengths matter: DKA is a short direct question, GIV adds a
// structured schema plus optional dataset constraints and few-shot
// exemplars, and RAG prepends retrieved context chunks.
package prompt

import (
	"encoding/json"
	"strconv"
	"strings"
	"unicode/utf8"

	"factcheck/internal/llm"
)

// DKASystem is the minimal system prompt of Direct Knowledge Assessment.
const DKASystem = "You are a fact-checking assistant. Answer with TRUE or FALSE followed by a one-sentence justification."

// GIVSystem is the structured system prompt of Guided Iterative
// Verification: it pins the output schema the strategy re-prompts on. The
// template is deliberately long — it spells out the whole verification
// protocol — which is why GIV calls cost roughly three times a DKA call in
// the paper's Table 8.
const GIVSystem = `You are a meticulous knowledge-graph fact-validation assistant.
Your task is to evaluate the factual accuracy of a single statement extracted from a knowledge graph, using only your internal knowledge. Do not assume access to the web, to documents, or to any external tool.

Follow this verification protocol strictly, in order:
1. Identify the subject entity, the predicate (the asserted relation), and the object entity of the statement. Statements may use knowledge-graph surface conventions such as camelCase predicates, underscore-separated entity names, or infobox property labels; normalise these mentally before judging.
2. Recall what you know about the subject entity: its type, its principal attributes, and the values you can attribute to the asserted relation with confidence.
3. Compare the asserted object against your recalled knowledge. The statement is true only if the exact assertion holds; a statement that is merely plausible, partially correct, related to a true fact, or correct for a different entity with a similar name must be judged false.
4. If the relation is functional (a person has one birth place, a country has one capital), any object different from the known value makes the statement false. If the relation admits multiple values (awards, starring roles), the statement is true when the object is any one of the known values.
5. Judge the statement against the state of the world at the time the knowledge-graph snapshot was taken; do not penalise facts that changed afterwards.
6. If you genuinely cannot recall enough to decide, reason about the typical distribution of such statements rather than refusing to answer.

You MUST answer with a single JSON object and nothing else, following exactly this schema:
{"verdict": "true" | "false", "reason": "<one concise sentence>"}
The value of "verdict" must be the lowercase string "true" or the lowercase string "false"; no other value is accepted. The value of "reason" must be one grammatical English sentence justifying the verdict. Do not wrap the object in markdown code fences. Do not add a preface, an apology, restated instructions, or any trailing commentary. Any deviation from the schema will be rejected and the question will be asked again.`

// RAGSystem instructs evidence-grounded verification.
const RAGSystem = `You are a fact-checking assistant. You are given a statement and context passages retrieved from the web.
Judge the statement primarily on the provided context; fall back to your own knowledge only when the context is silent.
Answer with TRUE or FALSE followed by a one-sentence justification grounded in the context.`

// FewShotExamples are the shared exemplars of GIV-F (paper §3.1: "shared
// across datasets and KG-independent at the semantic level"). The encoding
// below is adapted per target KG by ConstraintsFor.
var FewShotExamples = []struct {
	Statement string
	Verdict   string
	Reason    string
}{
	{"Marie Curie was born in Warsaw.", "true",
		"Biographical records consistently place Marie Curie's birth in Warsaw in 1867, and the birthPlace relation is functional, so the asserted object matches the single known value."},
	{"The Eiffel Tower is located in Berlin.", "false",
		"The Eiffel Tower stands in Paris; since locatedIn is functional for a monument, the assertion of Berlin contradicts the known location and must be judged false."},
	{"Isaac Newton received the Copley Medal.", "true",
		"The Royal Society awarded Newton the Copley Medal in 1705, and because the award relation admits multiple values it is sufficient that the medal appears among his recorded honours."},
	{"The Nile has as its capital Cairo.", "false",
		"A river is not the kind of entity that has a capital city, so the relation is mis-typed for this subject and the exact assertion as stated cannot hold."},
	{"Alexander_III_of_Russia isMarriedTo Maria Feodorovna.", "true",
		"After normalising the underscore and camelCase conventions, the statement asserts the historically recorded marriage between Alexander III of Russia and Maria Feodorovna, which holds."},
}

// ConstraintsFor returns the optional dataset-specific constraint block GIV
// prompts may enforce (predicate and schema conventions per KG).
func ConstraintsFor(ds string) string {
	switch ds {
	case "FactBench":
		return "Constraints: statements use DBpedia/Freebase-style predicates; subject and object are named entities; judge the predicate exactly."
	case "YAGO":
		return "Constraints: statements use YAGO camelCase predicates (e.g. isMarriedTo); most facts in this source are correct, but do not assume correctness."
	case "DBpedia":
		return "Constraints: statements use raw DBpedia infobox properties, which vary in casing and wording; normalise the predicate meaning before judging."
	default:
		return ""
	}
}

// DKA renders the Direct Knowledge Assessment prompt.
func DKA(c llm.Claim) (system, user string) {
	return DKASystem, "Is the following statement true or false?\n" + c.Sentence
}

// fewShotBlock is GIV-F's exemplar block, rendered once from
// FewShotExamples when the package initialises.
var fewShotBlock = renderFewShot()

func renderFewShot() string {
	var b strings.Builder
	b.WriteString("Examples:\n")
	for _, ex := range FewShotExamples {
		b.WriteString("Statement: " + ex.Statement + "\nAnswer: {\"verdict\": " + strconv.Quote(ex.Verdict) +
			", \"reason\": " + strconv.Quote(ex.Reason) + "}\n")
	}
	b.WriteString("\n")
	return b.String()
}

// givRetry is the non-compliance flag of a GIV re-prompt.
const givRetry = "Your previous answer did not conform to the required JSON schema. Reply with ONLY the JSON object.\n\n"

// GIV renders the Guided Iterative Verification prompt. fewShot selects the
// GIV-F variant; attempt > 0 adds the explicit non-compliance flag the
// paper's re-prompting protocol sends.
func GIV(c llm.Claim, fewShot bool, attempt int) (system, user string) {
	cons, sep := ConstraintsFor(c.Dataset), ""
	if cons != "" {
		sep = "\n\n"
	}
	examples := ""
	if fewShot {
		examples = fewShotBlock
	}
	retry := ""
	if attempt > 0 {
		retry = givRetry
	}
	return GIVSystem, cons + sep + examples + retry + "Statement: " + c.Sentence + "\nAnswer:"
}

// RAG renders the retrieval-augmented prompt over the given context chunks.
func RAG(c llm.Claim, chunks []string) (system, user string) {
	const head, statement, tail = "Context passages:\n", "\nStatement: ", "\nIs the statement true or false?"
	n := len(head) + len(statement) + len(c.Sentence) + len(tail)
	for _, ch := range chunks {
		n += len("[0000] \n") + len(ch)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(head)
	var num [20]byte
	for i, ch := range chunks {
		b.WriteByte('[')
		b.Write(strconv.AppendInt(num[:0], int64(i+1), 10))
		b.WriteString("] ")
		b.WriteString(ch)
		b.WriteByte('\n')
	}
	b.WriteString(statement)
	b.WriteString(c.Sentence)
	b.WriteString(tail)
	return RAGSystem, b.String()
}

// givAnswer is the JSON schema GIV responses must follow.
type givAnswer struct {
	Verdict string `json:"verdict"`
	Reason  string `json:"reason"`
}

// ParseGIV parses a GIV response. ok is false when the output does not
// conform to the schema (triggering a re-prompt). The schema's exact shape,
// which conformant models answer in, is read without encoding/json;
// anything else goes through json.Unmarshal.
func ParseGIV(out string) (verdict bool, reason string, ok bool) {
	out = strings.TrimSpace(out)
	if verdict, reason, ok := parseGIVExact(out); ok {
		return verdict, reason, true
	}
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

// parseGIVExact reads exactly {"verdict": "true"|"false", "reason": "<s>"}
// where <s> is valid UTF-8 with no quote, backslash or control byte: the
// input on which json.Unmarshal would decode <s> unchanged. The reason is
// a substring of out. ok is false for every other input.
func parseGIVExact(out string) (verdict bool, reason string, ok bool) {
	const head, mid, tail = `{"verdict": "`, `", "reason": "`, `"}`
	if len(out) < len(head)+len(tail) || !strings.HasPrefix(out, head) || !strings.HasSuffix(out, tail) {
		return false, "", false
	}
	rest := out[len(head) : len(out)-len(tail)]
	switch {
	case strings.HasPrefix(rest, "true"+mid):
		verdict, rest = true, rest[len("true"+mid):]
	case strings.HasPrefix(rest, "false"+mid):
		rest = rest[len("false"+mid):]
	default:
		return false, "", false
	}
	for i := 0; i < len(rest); i++ {
		if c := rest[i]; c < 0x20 || c == '"' || c == '\\' {
			return false, "", false
		}
	}
	if !utf8.ValidString(rest) {
		return false, "", false
	}
	return verdict, rest, true
}

// ParseFree parses a free-text (DKA/RAG) response of the form
// "TRUE. <reason>" / "FALSE. <reason>". ok is false when neither label is
// found at the start of the output. Labels match ASCII case-insensitively
// on the output's own bytes, and the reason starts right after the label.
func ParseFree(out string) (verdict bool, reason string, ok bool) {
	t := strings.TrimSpace(out)
	switch {
	case hasLabel(t, "TRUE"):
		return true, trimReason(t, len("TRUE")), true
	case hasLabel(t, "FALSE"):
		return false, trimReason(t, len("FALSE")), true
	default:
		return false, "", false
	}
}

// hasLabel reports whether s starts with the upper-case ASCII label in
// any ASCII letter case.
func hasLabel(s, label string) bool {
	if len(s) < len(label) {
		return false
	}
	for i := 0; i < len(label); i++ {
		if c := s[i]; c != label[i] && c != label[i]+('a'-'A') {
			return false
		}
	}
	return true
}

func trimReason(t string, n int) string {
	r := strings.TrimLeft(t[n:], ".:,; ")
	return strings.TrimSpace(r)
}
