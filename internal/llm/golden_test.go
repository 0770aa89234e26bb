package llm

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// goldenLabels are entity labels for goldenClaims: plain ASCII, quotes,
// backslashes, control bytes, non-ASCII and invalid UTF-8, so GIV's
// reasons take both the verbatim and the strconv.Quote path.
var goldenLabels = []string{
	"Ada Example", "City Two", "Plain Co 42", `The "Quoted" Band`,
	`Back\slash Ltd`, "Tab\tEntity", "Zoë Ångström", "東京", "bad \xff utf8",
	"Saint-Étienne", "O'Neil", "Ctrl\x01 Corp",
}

var (
	goldenDatasets   = []string{"FactBench", "YAGO", "DBpedia", "Other"}
	goldenCategories = []string{"geo", "relationship", "role", "genre", "identifier", "other"}
	goldenTopics     = []string{"Education", "News", "Culture", "Business", "Sports", "Architecture", "Transportation", ""}
	goldenPhrases    = []string{"was born in", "is married to", "plays for", "is a genre of"}
	goldenSystems    = []string{"You verify facts.", "Answer with the required JSON schema only."}
)

// goldenClaims returns n claims that vary every field the simulator reads.
func goldenClaims(n int) []Claim {
	claims := make([]Claim, n)
	for i := range claims {
		subj := goldenLabels[i%len(goldenLabels)]
		obj := goldenLabels[(i*5+1)%len(goldenLabels)]
		phrase := goldenPhrases[i%len(goldenPhrases)]
		claims[i] = NewClaim(Claim{
			Key:          fmt.Sprintf("S%d|rel%d|O%d", i, i%7, i*31%97),
			FactID:       fmt.Sprintf("golden-%06d", i),
			Dataset:      goldenDatasets[i%len(goldenDatasets)],
			Gold:         i%3 != 0,
			Popularity:   float64(i%20+1) / 20,
			Category:     goldenCategories[i%len(goldenCategories)],
			Topic:        goldenTopics[i%len(goldenTopics)],
			Sentence:     subj + " " + phrase + " " + obj + ".",
			SubjectLabel: subj,
			ObjectLabel:  obj,
			Phrase:       phrase,
		})
	}
	return claims
}

// goldenEvidence returns chunks that support, refute, contradict and
// ignore c, in an order that varies with i.
func goldenEvidence(c Claim, i int) []string {
	chunks := []string{
		c.SubjectLabel + " " + c.Phrase + " " + c.ObjectLabel + " according to records.",
		"It is not the case that " + c.SubjectLabel + " " + c.Phrase + " " + c.ObjectLabel + ".",
		c.SubjectLabel + " " + c.Phrase + " Somewhere Else.",
		"An unrelated passage about the weather.",
		c.SubjectLabel + " is mentioned here without a relation.",
	}
	k := i % len(chunks)
	return append(chunks[k:], chunks[:k]...)[:1+i%len(chunks)]
}

// generateDigest hashes the Text, PromptTokens, CompletionTokens and
// Latency of Generate over every registered profile × method × attempts
// 0–2 × claims, each once without evidence and once with.
func generateDigest(t *testing.T, claims []Claim) string {
	t.Helper()
	ctx := context.Background()
	h := sha256.New()
	for _, name := range Names() {
		m := MustNew(name)
		for _, method := range AllMethods {
			for attempt := 0; attempt < 3; attempt++ {
				for i, c := range claims {
					for _, ev := range [][]string{nil, goldenEvidence(c, i)} {
						resp, err := m.Generate(ctx, Request{
							System:   goldenSystems[i%len(goldenSystems)],
							Prompt:   PromptOf(NewPart("Statement: "), NewPart(c.Sentence)),
							Claim:    c,
							Method:   method,
							Evidence: ev,
							Attempt:  attempt,
						})
						if err != nil {
							t.Fatal(err)
						}
						u := resp.Usage
						fmt.Fprintf(h, "%q %d %d %d\n", resp.Text, u.PromptTokens, u.CompletionTokens, int64(u.Latency))
					}
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// generateGolden is generateDigest over 360 goldenClaims, as printed by the
// simulator before its draws continued one hash prefix per request and its
// claim-shared draws moved onto the claim.
const generateGolden = "88650ec364983c9ba75183a3cea785fc5805e59f04d841226f924387066af67e"

// TestGenerateGolden pins every text, token count and latency the
// simulator produces: a change to how draws are hashed or answers are
// built must leave all of them byte-identical.
func TestGenerateGolden(t *testing.T) {
	if got := generateDigest(t, goldenClaims(360)); got != generateGolden {
		t.Errorf("Generate digest %s, pinned %s", got, generateGolden)
	}
}
