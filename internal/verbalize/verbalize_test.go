package verbalize

import (
	"strings"
	"testing"

	"factcheck/internal/dataset"
	"factcheck/internal/world"
)

func TestSentenceUsesRelationPhrase(t *testing.T) {
	w := world.New(world.SmallConfig())
	d := dataset.Build(w, dataset.FactBench, 0.1)
	for _, f := range d.Facts[:20] {
		s := Sentence(f)
		if !strings.Contains(s, f.Subject.Label) {
			t.Errorf("sentence %q missing subject %q", s, f.Subject.Label)
		}
		if !strings.Contains(s, f.Object.Label) {
			t.Errorf("sentence %q missing object %q", s, f.Object.Label)
		}
		if !strings.Contains(s, f.Relation.Phrase) {
			t.Errorf("sentence %q missing phrase %q", s, f.Relation.Phrase)
		}
		if !strings.HasSuffix(s, ".") {
			t.Errorf("sentence %q lacks final period", s)
		}
	}
}
