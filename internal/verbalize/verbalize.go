// Package verbalize implements phase 1 of the RAG pipeline: transforming a
// structured KG triple into a human-readable natural-language sentence
// (paper §3.2, "Triple Transformation"). The paper performs this with an
// LLM; here a deterministic template engine plays that role, handling
// underscore/camelCase notation and predicates lacking grammatical context.
package verbalize

import (
	"strings"

	"factcheck/internal/dataset"
)

// CleanLabel converts a KG-encoded local name into readable text:
// underscores become spaces and camelCase is split ("isMarriedTo" ->
// "is married to", "Alexander_III_of_Russia" -> "alexander iii of russia"
// with original casing preserved for proper nouns).
func CleanLabel(local string) string {
	local = strings.ReplaceAll(local, "_", " ")
	// Split camelCase runs while preserving existing spaces.
	var b strings.Builder
	prevLower := false
	for _, r := range local {
		if r >= 'A' && r <= 'Z' && prevLower {
			b.WriteByte(' ')
		}
		b.WriteRune(r)
		prevLower = r >= 'a' && r <= 'z'
	}
	return strings.Join(strings.Fields(b.String()), " ")
}

// Sentence renders the fact as a natural-language statement using the base
// relation's verbalisation phrase and the entities' clean labels. This is
// the transformation function s = f_LLM(t) of the paper.
func Sentence(f *dataset.Fact) string {
	s := f.Subject.Label
	o := f.Object.Label
	var phrase string
	if f.Relation != nil {
		phrase = f.Relation.Phrase
	} else {
		phrase = CleanLabel(f.PredicateName)
	}
	return s + " " + phrase + " " + o + "."
}
