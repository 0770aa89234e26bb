package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"

	"factcheck/internal/kg"
	"factcheck/internal/world"
)

func testWorld(t *testing.T) *world.World {
	t.Helper()
	return world.New(world.SmallConfig())
}

func TestBuildDeterministic(t *testing.T) {
	w := testWorld(t)
	d1 := Build(w, FactBench, 0.1)
	d2 := Build(w, FactBench, 0.1)
	if len(d1.Facts) != len(d2.Facts) {
		t.Fatalf("sizes differ: %d vs %d", len(d1.Facts), len(d2.Facts))
	}
	for i := range d1.Facts {
		if d1.Facts[i].Key() != d2.Facts[i].Key() || d1.Facts[i].Gold != d2.Facts[i].Gold {
			t.Fatalf("fact %d differs", i)
		}
	}
}

func TestGoldLabelsMatchWorld(t *testing.T) {
	w := testWorld(t)
	for _, name := range AllNames {
		d := Build(w, name, 0.1)
		for _, f := range d.Facts {
			isTrue := w.IsTrueFact(kg.LocalName(f.Subject.IRI), f.Relation.Name, kg.LocalName(f.Object.IRI))
			if f.Gold != isTrue {
				t.Fatalf("%s: fact %s gold=%v but world says %v", name, f.ID, f.Gold, isTrue)
			}
		}
	}
}

func TestGoldAccuracyTargets(t *testing.T) {
	w := testWorld(t)
	targets := map[Name]float64{FactBench: 0.54, YAGO: 0.99, DBpedia: 0.85}
	for name, mu := range targets {
		d := Build(w, name, 0.2)
		st := d.Stats()
		if math.Abs(st.GoldAccuracy-mu) > 0.05 {
			t.Errorf("%s gold accuracy = %.3f, want ~%.2f", name, st.GoldAccuracy, mu)
		}
	}
}

func TestPredicateVocabulary(t *testing.T) {
	w := testWorld(t)
	fb := Build(w, FactBench, 0.2).Stats()
	if fb.NumPredicates > 10 {
		t.Errorf("FactBench has %d predicates, want <= 10", fb.NumPredicates)
	}
	yago := Build(w, YAGO, 0.2).Stats()
	if yago.NumPredicates > 16 {
		t.Errorf("YAGO has %d predicates, want <= 16", yago.NumPredicates)
	}
	// DBpedia's predicate variants must substantially exceed the base
	// relation count even at small scale.
	dbp := Build(w, DBpedia, 0.2).Stats()
	if dbp.NumPredicates <= len(world.Relations) {
		t.Errorf("DBpedia has %d predicates, want > %d base relations",
			dbp.NumPredicates, len(world.Relations))
	}
}

func TestCorruptionMetadata(t *testing.T) {
	w := testWorld(t)
	d := Build(w, FactBench, 0.2)
	strategies := map[world.CorruptionStrategy]int{}
	for _, f := range d.Facts {
		if f.Gold && f.Corruption != "" {
			t.Fatalf("positive fact %s has corruption %q", f.ID, f.Corruption)
		}
		if !f.Gold {
			if f.Corruption == "" {
				t.Fatalf("negative fact %s lacks corruption strategy", f.ID)
			}
			strategies[f.Corruption]++
		}
	}
	if len(strategies) < 2 {
		t.Errorf("only %d corruption strategies used, want >= 2: %v", len(strategies), strategies)
	}
}

func TestNegativesRespectDomainRange(t *testing.T) {
	w := testWorld(t)
	for _, name := range AllNames {
		d := Build(w, name, 0.1)
		for _, f := range d.Facts {
			if f.Gold {
				continue
			}
			if f.Subject.Type != f.Relation.Domain || f.Object.Type != f.Relation.Range {
				t.Fatalf("%s: negative %s violates domain/range", name, f.ID)
			}
		}
	}
}

func TestTripleEncoding(t *testing.T) {
	w := testWorld(t)
	d := Build(w, FactBench, 0.1)
	f := d.Facts[0]
	if !strings.HasPrefix(string(f.Triple.S), kg.NSDBpediaResource) {
		t.Errorf("FactBench subject namespace wrong: %s", f.Triple.S)
	}
	if !strings.HasPrefix(string(f.Triple.P), kg.NSDBpediaOntology) {
		t.Errorf("FactBench predicate namespace wrong: %s", f.Triple.P)
	}
	if strings.Contains(kg.LocalName(f.Triple.S), " ") {
		t.Error("entity local name contains spaces, want underscores")
	}
	y := Build(w, YAGO, 0.1).Facts[0]
	if !strings.HasPrefix(string(y.Triple.S), kg.NSYAGOResource) {
		t.Errorf("YAGO namespace wrong: %s", y.Triple.S)
	}
	db := Build(w, DBpedia, 0.1).Facts[0]
	if !strings.HasPrefix(string(db.Triple.P), kg.NSDBpediaProperty) {
		t.Errorf("DBpedia predicate namespace wrong: %s", db.Triple.P)
	}
}

func TestIDsUniqueAndStable(t *testing.T) {
	w := testWorld(t)
	d := Build(w, DBpedia, 0.1)
	seen := map[string]bool{}
	for _, f := range d.Facts {
		if seen[f.ID] {
			t.Fatalf("duplicate fact ID %s", f.ID)
		}
		seen[f.ID] = true
		if !strings.HasPrefix(f.ID, "dbpedia-") {
			t.Fatalf("fact ID %s lacks dataset prefix", f.ID)
		}
	}
}

func TestScaleControlsSize(t *testing.T) {
	w := testWorld(t)
	small := Build(w, FactBench, 0.05)
	large := Build(w, FactBench, 0.2)
	if len(large.Facts) <= len(small.Facts) {
		t.Errorf("scale 0.2 (%d facts) not larger than 0.05 (%d)", len(large.Facts), len(small.Facts))
	}
	ratio := float64(len(large.Facts)) / float64(len(small.Facts))
	if ratio < 2.5 || ratio > 6 {
		t.Errorf("size ratio %.1f not ~4", ratio)
	}
}

func TestPredicateVariantsDistinct(t *testing.T) {
	vs := predicateVariants("birthPlace", 42)
	if len(vs) != 42 {
		t.Fatalf("got %d variants, want 42", len(vs))
	}
	seen := map[string]bool{}
	for _, v := range vs {
		if seen[v] {
			t.Fatalf("duplicate variant %q", v)
		}
		seen[v] = true
	}
	if vs[0] != "birthPlace" {
		t.Errorf("first variant %q, want the base name", vs[0])
	}
}

func TestCamelToSnake(t *testing.T) {
	tests := []struct{ in, want string }{
		{"birthPlace", "birth_place"},
		{"isMarriedTo", "is_married_to"},
		{"simple", "simple"},
	}
	for _, tc := range tests {
		if got := camelToSnake(tc.in); got != tc.want {
			t.Errorf("camelToSnake(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestSampleCount(t *testing.T) {
	if got := sampleCount(2.42, 0.9); got != 2 {
		t.Errorf("sampleCount(2.42, .9) = %d, want 2", got)
	}
	if got := sampleCount(2.42, 0.1); got != 3 {
		t.Errorf("sampleCount(2.42, .1) = %d, want 3", got)
	}
	if got := sampleCount(0.5, 0.9); got != 1 {
		t.Errorf("sampleCount floor = %d, want 1", got)
	}
}

func TestUniverseAndTotal(t *testing.T) {
	w := testWorld(t)
	ds := Universe(w, 0.05)
	if len(ds) != 3 {
		t.Fatalf("Universe built %d datasets, want 3", len(ds))
	}
	total := TotalFacts(ds)
	sum := 0
	for _, d := range ds {
		sum += len(d.Facts)
	}
	if total != sum {
		t.Errorf("TotalFacts = %d, want %d", total, sum)
	}
}

func TestFactKeyMatchesWorldConvention(t *testing.T) {
	w := testWorld(t)
	d := Build(w, YAGO, 0.1)
	for _, f := range d.Facts[:10] {
		want := kg.LocalName(f.Subject.IRI) + "|" + f.Relation.Name + "|" + kg.LocalName(f.Object.IRI)
		if f.Key() != want {
			t.Fatalf("Key() = %q, want %q", f.Key(), want)
		}
	}
}

func TestYAGORelationWeighting(t *testing.T) {
	w := testWorld(t)
	d := Build(w, YAGO, 0.5)
	counts := map[string]int{}
	for _, f := range d.Facts {
		counts[f.Relation.Name]++
	}
	if counts["isMarriedTo"] == 0 {
		t.Fatal("YAGO sampled no isMarriedTo facts despite weighting")
	}
}

// datasetsDigest hashes every field Build decides for every fact of the
// three datasets, in AllNames order.
func datasetsDigest(w *world.World, scale float64) string {
	h := sha256.New()
	var b [8]byte
	for _, name := range AllNames {
		for _, f := range Build(w, name, scale).Facts {
			fmt.Fprintf(h, "%s\x00%s\x00%s\x00%t\x00%s\x00%s\x00",
				f.ID, f.Triple, f.PredicateName, f.Gold, f.Corruption, f.Topic)
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(f.Popularity))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDatasetsGolden pins the three datasets fact by fact: the published
// size on the default world, and the scale core.TestConfig uses (0.05) on
// the small world. Every result-store fingerprint and every table hangs
// off these facts, so a change to the sampling order shows here first.
func TestDatasetsGolden(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   world.Config
		scale float64
		want  string
	}{
		{"default/1.0", world.DefaultConfig(), 1.0, "c68c7eb8a4d5ceb386c6bbd528addaaf2fd129aa658ca5e8c28c803bb5f2b76d"},
		{"small/0.05", world.SmallConfig(), 0.05, "0540acd56abaef368ec9e959a9028d579f5ae0c4ee5e65a7b398585f7512b02c"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := datasetsDigest(world.New(tc.cfg), tc.scale); got != tc.want {
				t.Errorf("datasets digest = %s, want %s", got, tc.want)
			}
		})
	}
}
