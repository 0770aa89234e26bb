package corpus

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"factcheck/internal/dataset"
	"factcheck/internal/text"
	"factcheck/internal/world"
)

func fixture(t *testing.T) (*world.World, map[dataset.Name]*dataset.Dataset, *Generator) {
	t.Helper()
	w := world.New(world.SmallConfig())
	ds := dataset.Universe(w, 0.2)
	return w, ds, NewGenerator(w)
}

func TestDocsDeterministic(t *testing.T) {
	_, ds, g := fixture(t)
	f := ds[dataset.FactBench].Facts[0]
	a := g.Docs(f)
	b := g.Docs(f)
	if len(a) != len(b) {
		t.Fatalf("pool sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Stance != b[i].Stance || a[i].Empty != b[i].Empty {
			t.Fatalf("doc %d differs", i)
		}
	}
}

func TestPoolSizeDistribution(t *testing.T) {
	_, ds, g := fixture(t)
	var total, maxN int
	minN := 1 << 30
	n := 0
	for _, d := range ds {
		for _, f := range d.Facts {
			c := g.PoolSize(f)
			total += c
			if c < minN {
				minN = c
			}
			if c > maxN {
				maxN = c
			}
			n++
		}
	}
	mean := float64(total) / float64(n)
	if mean < 120 || mean > 180 {
		t.Errorf("mean pool size = %.1f, want ~155", mean)
	}
	if maxN > 337 {
		t.Errorf("max pool size = %d, want <= 337", maxN)
	}
}

func TestEmptyRate(t *testing.T) {
	_, ds, g := fixture(t)
	empty, total := 0, 0
	for _, f := range ds[dataset.DBpedia].Facts {
		m := g.MetaFor(f)
		empty += m.Empty
		total += m.Count
	}
	rate := float64(empty) / float64(total)
	if rate < 0.10 || rate > 0.16 {
		t.Errorf("empty rate = %.3f, want ~0.13", rate)
	}
}

func TestStanceCompositionTracksGold(t *testing.T) {
	_, ds, g := fixture(t)
	var supTrue, refTrue, supFalse, refFalse, nTrue, nFalse int
	for _, f := range ds[dataset.FactBench].Facts {
		m := g.MetaFor(f)
		if f.Gold {
			supTrue += m.Support - m.SKG // SKG docs are forced support
			refTrue += m.Refute
			nTrue += m.Count
		} else {
			supFalse += m.Support - m.SKG
			refFalse += m.Refute
			nFalse += m.Count
		}
	}
	if nTrue == 0 || nFalse == 0 {
		t.Fatal("degenerate dataset")
	}
	if float64(supTrue)/float64(nTrue) <= float64(refTrue)/float64(nTrue) {
		t.Error("true facts are not predominantly supported")
	}
	if float64(refFalse)/float64(nFalse) <= float64(supFalse)/float64(nFalse) {
		t.Error("false facts are not predominantly refuted")
	}
}

func TestSupportTextContainsAssertion(t *testing.T) {
	_, ds, g := fixture(t)
	f := ds[dataset.FactBench].Facts[0]
	found := false
	for _, d := range g.Docs(f) {
		if d.Stance != StanceSupport || d.Empty {
			continue
		}
		txt := g.Text(f, d)
		if !strings.Contains(txt, f.Subject.Label) || !strings.Contains(txt, f.Object.Label) {
			t.Fatalf("support doc %s does not assert the fact: %q", d.ID, txt)
		}
		found = true
	}
	if !found {
		t.Skip("fact has no non-empty support docs; other tests cover composition")
	}
}

func TestRefuteTextContradicts(t *testing.T) {
	_, ds, g := fixture(t)
	checked := 0
	for _, f := range ds[dataset.FactBench].Facts {
		if f.Gold {
			continue
		}
		for _, d := range g.Docs(f) {
			if d.Stance != StanceRefute || d.Empty {
				continue
			}
			txt := g.Text(f, d)
			if !strings.Contains(txt, "not the case that") {
				t.Fatalf("refute doc %s lacks explicit contradiction: %q", d.ID, txt)
			}
			checked++
		}
		if checked > 20 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no refute docs found for any false fact")
	}
}

func TestEmptyDocsHaveNoText(t *testing.T) {
	_, ds, g := fixture(t)
	f := ds[dataset.FactBench].Facts[1]
	for _, d := range g.Docs(f) {
		if d.Empty && g.Text(f, d) != "" {
			t.Fatalf("empty doc %s has text", d.ID)
		}
	}
}

func TestSKGDocsUseWikipediaHost(t *testing.T) {
	_, ds, g := fixture(t)
	for _, f := range ds[dataset.FactBench].Facts[:20] {
		for _, d := range g.Docs(f) {
			if d.FromSKG && d.Host != "en.wikipedia.org" {
				t.Fatalf("SKG doc %s on host %s", d.ID, d.Host)
			}
			if !d.FromSKG && d.Host == "en.wikipedia.org" {
				t.Fatalf("non-SKG doc %s on the KG source host", d.ID)
			}
		}
	}
}

func TestDocURLsWellFormed(t *testing.T) {
	_, ds, g := fixture(t)
	f := ds[dataset.YAGO].Facts[0]
	for _, d := range g.Docs(f) {
		if !strings.HasPrefix(d.URL, "https://"+d.Host+"/") {
			t.Fatalf("URL %q does not match host %q", d.URL, d.Host)
		}
	}
}

// TestMetaMatchesDocs pins MetaFor, which classifies documents without
// building them, against counting the full Docs pool.
func TestMetaMatchesDocs(t *testing.T) {
	_, ds, g := fixture(t)
	for _, d := range ds {
		for _, f := range d.Facts[:10] {
			var want Meta
			for _, doc := range g.Docs(f) {
				want.Count++
				if doc.Empty {
					want.Empty++
				}
				if doc.FromSKG {
					want.SKG++
				}
				switch doc.Stance {
				case StanceSupport:
					want.Support++
				case StanceRefute:
					want.Refute++
				case StanceNeutral:
					want.Neutral++
				}
			}
			if got := g.MetaFor(f); got != want {
				t.Fatalf("%s: MetaFor = %+v, counted %+v", f.ID, got, want)
			}
		}
	}
}

func TestNilWorldGenerator(t *testing.T) {
	_, ds, _ := fixture(t)
	g := NewGenerator(nil)
	var f *dataset.Fact
	for _, ff := range ds[dataset.FactBench].Facts {
		if !ff.Gold {
			f = ff
			break
		}
	}
	// Text generation must not panic and refutations must still contradict.
	for _, d := range g.Docs(f) {
		if d.Stance == StanceRefute && !d.Empty {
			if txt := g.Text(f, d); !strings.Contains(txt, "not the case") {
				t.Fatalf("nil-world refutation lacks negation: %q", txt)
			}
			return
		}
	}
}

func TestStanceString(t *testing.T) {
	if StanceSupport.String() != "support" || StanceRefute.String() != "refute" ||
		StanceNeutral.String() != "neutral" || StanceUnrelated.String() != "unrelated" {
		t.Error("stance names wrong")
	}
}

func TestSlug(t *testing.T) {
	if got := slug("Alexander III of Russia"); got != "alexander-iii-of-russia" {
		t.Errorf("slug = %q", got)
	}
}

// TestMaterializeMatchesDocsAndText asserts Materialize is the bulk form of
// Docs+Text, that each Full is exactly Title+" "+body, and that each
// precomputed vector is exactly the embedding of Full (the search index's
// input contract), for every document of every fact of every dataset, so
// every stance, every variant and the refutation path are covered. It also
// checks that documents of one variant share their strings and vector.
func TestMaterializeMatchesDocsAndText(t *testing.T) {
	_, ds, g := fixture(t)
	for _, dn := range []dataset.Name{dataset.FactBench, dataset.YAGO, dataset.DBpedia} {
		for _, f := range ds[dn].Facts {
			ms := g.Materialize(f)
			docs := g.Docs(f)
			if len(ms) != len(docs) {
				t.Fatalf("%s: Materialize returned %d docs, Docs returned %d", f.ID, len(ms), len(docs))
			}
			fulls := map[string]int{}
			for i, m := range ms {
				if !reflect.DeepEqual(*m.Doc, *docs[i]) {
					t.Fatalf("%s doc %d: %+v != %+v", f.ID, i, *m.Doc, *docs[i])
				}
				if want := g.Text(f, docs[i]); m.Text != want {
					t.Fatalf("%s doc %d: text differs from Text()", f.ID, i)
				}
				if want := m.Doc.Title + " " + m.Text; m.Full != want {
					t.Fatalf("%s doc %d: Full = %q, want %q", f.ID, i, m.Full, want)
				}
				if want := text.SparseEmbed(m.Full); !reflect.DeepEqual(m.Vec, want) {
					t.Fatalf("%s doc %d: Vec differs from SparseEmbed(Full)", f.ID, i)
				}
				j, seen := fulls[m.Full]
				if !seen {
					fulls[m.Full] = i
					continue
				}
				if unsafe.StringData(m.Full) != unsafe.StringData(ms[j].Full) ||
					unsafe.StringData(m.Text) != unsafe.StringData(ms[j].Text) ||
					(m.Vec.NNZ() > 0 && &m.Vec.Dims[0] != &ms[j].Vec.Dims[0]) {
					t.Fatalf("%s docs %d and %d: same variant, separately built", f.ID, j, i)
				}
			}
			if len(fulls) > numVariants {
				t.Fatalf("%s: %d distinct variants, at most %d exist", f.ID, len(fulls), numVariants)
			}
		}
	}
}

// TestDocIDsMatchSprintf pins the concatenated document IDs and URLs
// against the fmt.Sprintf forms they replaced, across the zero-padding
// boundaries and past four digits.
func TestDocIDsMatchSprintf(t *testing.T) {
	_, ds, g := fixture(t)
	f := ds[dataset.FactBench].Facts[0]
	fm := newFactMeta(f)
	ps, pr, pn := g.stanceMix(f)
	for _, seq := range []int{0, 9, 10, 999, 1000, 9999, 10000} {
		if got, want := DocID(f.ID, seq), fmt.Sprintf("%s-d%04d", f.ID, seq); got != want {
			t.Errorf("DocID(%d) = %q, want %q", seq, got, want)
		}
		d := new(Document)
		g.doc(d, fm, seq, ps, pr, pn)
		if want := fmt.Sprintf("%s-d%04d", f.ID, seq); d.ID != want {
			t.Errorf("doc %d: ID = %q, want %q", seq, d.ID, want)
		}
		if want := fmt.Sprintf("https://%s/%s/%s", d.Host, slug(f.Subject.Label), fmt.Sprintf("p%04d", seq)); d.URL != want {
			t.Errorf("doc %d: URL = %q, want %q", seq, d.URL, want)
		}
		sd := g.Stream(f, seq)
		if want := fmt.Sprintf("https://%s/%s/s%04d", sd.Host, slug(f.Subject.Label), seq); sd.URL != want {
			t.Errorf("stream doc %d: URL = %q, want %q", seq, sd.URL, want)
		}
	}
}

func BenchmarkMaterialize(b *testing.B) {
	w := world.New(world.SmallConfig())
	facts := dataset.Build(w, dataset.FactBench, 0.2).Facts[:8]
	g := NewGenerator(w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Materialize(facts[i%len(facts)])
	}
}
