// Package verbalize implements phase 1 of the RAG pipeline: transforming a
// structured KG triple into a human-readable natural-language sentence
// (paper §3.2, "Triple Transformation"). The paper performs this with an
// LLM; here a deterministic template plays that role: every base relation
// carries a verbalisation phrase, which gives predicates lacking
// grammatical context their wording.
package verbalize

import "factcheck/internal/dataset"

// Sentence renders the fact as a natural-language statement using the base
// relation's verbalisation phrase and the entities' clean labels. This is
// the transformation function s = f_LLM(t) of the paper.
func Sentence(f *dataset.Fact) string {
	return f.Subject.Label + " " + f.Relation.Phrase + " " + f.Object.Label + "."
}
