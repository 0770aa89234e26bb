package verbalize

import (
	"strings"
	"testing"

	"factcheck/internal/dataset"
	"factcheck/internal/world"
)

func TestCleanLabel(t *testing.T) {
	tests := []struct{ in, want string }{
		{"Alexander_III_of_Russia", "Alexander III of Russia"},
		{"isMarriedTo", "is Married To"},
		{"birthPlace", "birth Place"},
		{"Paris", "Paris"},
		{"two  spaces", "two spaces"},
	}
	for _, tc := range tests {
		if got := CleanLabel(tc.in); got != tc.want {
			t.Errorf("CleanLabel(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

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
