package world

import (
	"testing"

	"factcheck/internal/det"
	"factcheck/internal/kg"
)

func small() *World { return New(SmallConfig()) }

func TestDeterministicGeneration(t *testing.T) {
	w1 := New(SmallConfig())
	w2 := New(SmallConfig())
	if len(w1.Entities) != len(w2.Entities) {
		t.Fatalf("entity counts differ: %d vs %d", len(w1.Entities), len(w2.Entities))
	}
	if len(w1.Facts) != len(w2.Facts) {
		t.Fatalf("fact counts differ: %d vs %d", len(w1.Facts), len(w2.Facts))
	}
	for i := range w1.Facts {
		if w1.Facts[i].Key() != w2.Facts[i].Key() {
			t.Fatalf("fact %d differs: %s vs %s", i, w1.Facts[i].Key(), w2.Facts[i].Key())
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	cfg := SmallConfig()
	cfg.Seed = "alternative"
	w1, w2 := small(), New(cfg)
	same := 0
	n := min(len(w1.Facts), len(w2.Facts))
	for i := 0; i < n; i++ {
		if w1.Facts[i].Key() == w2.Facts[i].Key() {
			same++
		}
	}
	if same == n {
		t.Error("different seeds generated identical fact sequences")
	}
}

func TestDomainRangeInvariant(t *testing.T) {
	w := small()
	for _, f := range w.Facts {
		if f.S.Type != f.Relation.Domain {
			t.Fatalf("fact %s: subject type %s != domain %s", f.Key(), f.S.Type, f.Relation.Domain)
		}
		if f.O.Type != f.Relation.Range {
			t.Fatalf("fact %s: object type %s != range %s", f.Key(), f.O.Type, f.Relation.Range)
		}
	}
}

func TestLabelsUnique(t *testing.T) {
	w := small()
	seen := map[string]bool{}
	for _, e := range w.Entities {
		if seen[e.Label] {
			t.Fatalf("duplicate label %q", e.Label)
		}
		seen[e.Label] = true
	}
}

func TestPopularityMonotonicWithinType(t *testing.T) {
	w := small()
	for _, et := range AllTypes {
		pool := w.ByType(et)
		for i := 1; i < len(pool); i++ {
			if pool[i].Popularity > pool[i-1].Popularity {
				t.Fatalf("%s pool not popularity-sorted at %d", et, i)
			}
		}
		if len(pool) > 0 && pool[0].Popularity != 1 {
			t.Errorf("%s head popularity = %f, want 1", et, pool[0].Popularity)
		}
	}
}

func TestIsTrueFactConsistent(t *testing.T) {
	w := small()
	for _, f := range w.Facts[:50] {
		if !w.IsTrueFact(kg.LocalName(f.S.IRI), f.Relation.Name, kg.LocalName(f.O.IRI)) {
			t.Fatalf("generated fact %s not reported true", f.Key())
		}
	}
	if w.IsTrueFact("Nonexistent", "birthPlace", "Nowhere") {
		t.Error("IsTrueFact true for fabricated statement")
	}
}

func TestTrueObjects(t *testing.T) {
	w := small()
	f := w.Facts[0]
	objs := w.TrueObjects(kg.LocalName(f.S.IRI), f.Relation.Name)
	if !objs[kg.LocalName(f.O.IRI)] {
		t.Fatalf("TrueObjects missing %s", f.O.Label)
	}
}

func TestCorruptObject(t *testing.T) {
	w := small()
	rng := det.Source("corrupt-test")
	for _, f := range w.Facts[:100] {
		c, ok := w.Corrupt(f, CorruptObject, rng)
		if !ok {
			t.Fatalf("object corruption failed for %s", f.Key())
		}
		if w.factSet[c.Key()] {
			t.Fatalf("corruption %s is a true fact", c.Key())
		}
		if c.O.Type != f.Relation.Range {
			t.Fatalf("corrupted object type %s violates range %s", c.O.Type, f.Relation.Range)
		}
		if c.S != f.S || c.Relation != f.Relation {
			t.Fatal("object corruption changed subject or relation")
		}
	}
}

func TestCorruptSubject(t *testing.T) {
	w := small()
	rng := det.Source("corrupt-test-s")
	f := w.Facts[0]
	c, ok := w.Corrupt(f, CorruptSubject, rng)
	if !ok {
		t.Fatal("subject corruption failed")
	}
	if c.S.Type != f.Relation.Domain {
		t.Fatalf("corrupted subject type %s violates domain %s", c.S.Type, f.Relation.Domain)
	}
	if c.O != f.O || c.Relation != f.Relation {
		t.Fatal("subject corruption changed object or relation")
	}
}

func TestCorruptPredicate(t *testing.T) {
	w := small()
	rng := det.Source("corrupt-test-p")
	// birthPlace has deathPlace/bandOrigin-style same-signature alternatives.
	var f Fact
	for _, ff := range w.Facts {
		if ff.Relation.Name == "birthPlace" {
			f = ff
			break
		}
	}
	c, ok := w.Corrupt(f, CorruptPredicate, rng)
	if !ok {
		t.Fatal("predicate corruption failed for birthPlace")
	}
	if c.Relation == f.Relation {
		t.Fatal("predicate corruption kept the relation")
	}
	if c.Relation.Domain != f.Relation.Domain || c.Relation.Range != f.Relation.Range {
		t.Fatal("predicate corruption changed signature")
	}
}

func TestCorruptPredicateNoAlternative(t *testing.T) {
	w := small()
	rng := det.Source("corrupt-test-np")
	// artist: Album -> Band has no same-signature sibling.
	var f Fact
	for _, ff := range w.Facts {
		if ff.Relation.Name == "artist" {
			f = ff
			break
		}
	}
	if _, ok := w.Corrupt(f, CorruptPredicate, rng); ok {
		t.Fatal("predicate corruption succeeded for relation without alternatives")
	}
}

// TestFactSetIsSnapshot: the fact set is the world's KG snapshot. Every
// generated fact is true under IsTrueFact and TrueObjects, each is
// generated once, and every entity resolves by its label.
func TestFactSetIsSnapshot(t *testing.T) {
	w := small()
	seen := map[string]bool{}
	for _, f := range w.Facts {
		k := f.Key()
		if seen[k] {
			t.Fatalf("fact %s generated twice", k)
		}
		seen[k] = true
		s, o := kg.LocalName(f.S.IRI), kg.LocalName(f.O.IRI)
		if !w.IsTrueFact(s, f.Relation.Name, o) {
			t.Fatalf("fact %s not true in its own world", k)
		}
		if !w.TrueObjects(s, f.Relation.Name)[o] {
			t.Fatalf("fact %s missing from TrueObjects", k)
		}
	}
	if len(w.factSet) != len(w.Facts) {
		t.Errorf("fact set holds %d keys for %d facts", len(w.factSet), len(w.Facts))
	}
	for _, e := range w.Entities {
		if w.ByLabel(e.Label) != e {
			t.Fatalf("entity %s does not resolve by its label", e.IRI)
		}
	}
}

func TestRelationVocabularyComplete(t *testing.T) {
	// Every category is represented (the error analysis depends on it).
	seen := map[Category]bool{}
	for _, r := range Relations {
		seen[r.Category] = true
		if r.Phrase == "" || r.Question == "" || r.Topic == "" {
			t.Errorf("relation %s missing verbalisation metadata", r.Name)
		}
	}
	for _, c := range []Category{CatRelationship, CatRole, CatGeo, CatGenre, CatIdentifier} {
		if !seen[c] {
			t.Errorf("no relation with category %s", c)
		}
	}
}

func TestRelationByName(t *testing.T) {
	if RelationByName("birthPlace") == nil {
		t.Error("birthPlace not found")
	}
	if RelationByName("noSuchRelation") != nil {
		t.Error("unknown relation resolved")
	}
}

func TestFactsByRelation(t *testing.T) {
	w := small()
	byRel := w.FactsByRelation()
	total := 0
	for name, fs := range byRel {
		total += len(fs)
		for _, f := range fs {
			if f.Relation.Name != name {
				t.Fatalf("fact %s grouped under %s", f.Key(), name)
			}
		}
	}
	if total != len(w.Facts) {
		t.Errorf("grouped %d facts, want %d", total, len(w.Facts))
	}
}

func TestFactPopularityBlend(t *testing.T) {
	w := small()
	f := w.Facts[0]
	want := 0.7*f.S.Popularity + 0.3*f.O.Popularity
	if got := f.Popularity(); got != want {
		t.Errorf("Popularity = %f, want %f", got, want)
	}
}

func TestByLookups(t *testing.T) {
	w := small()
	e := w.Entities[10]
	if w.ByLabel(e.Label) != e {
		t.Error("ByLabel failed")
	}
	if w.ByLabel("does-not-exist") != nil {
		t.Error("ByLabel returned non-nil for unknown label")
	}
}
