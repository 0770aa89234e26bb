package corpus

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"factcheck/internal/dataset"
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

// largeGenerator returns a generator whose pools run to thousands of
// documents, past the four-digit sequence numbers.
func largeGenerator(w *world.World) *Generator {
	g := NewGenerator(w)
	g.MeanDocs *= 40
	g.StdDocs *= 40
	g.MaxDocs *= 40
	return g
}

// checkPoolMatchesOracle asserts that the compact pool of f, and Docs,
// Text and MetaFor, spell out exactly the oracle's per-document pool:
// derived ID, URL, host, title, stance, empty, S_KG, body, full text and
// vector, document by document. It also checks that rows drawing one
// variant share it and that no two variants hold the same text.
func checkPoolMatchesOracle(t *testing.T, g *Generator, f *dataset.Fact) {
	t.Helper()
	want := oracleDocs(g, f)
	p := g.Materialize(f)
	docs := g.Docs(f)
	if len(p.Rows) != len(want) || len(docs) != len(want) {
		t.Fatalf("%s: %d rows, %d docs, oracle has %d", f.ID, len(p.Rows), len(docs), len(want))
	}
	if p.FactID != f.ID || p.Slug != slug(f.Subject.Label) {
		t.Fatalf("%s: pool names fact %q slug %q", f.ID, p.FactID, p.Slug)
	}
	var meta Meta
	for i, r := range p.Rows {
		w := want[i]
		v := p.Variants[r.Variant]
		got := Document{
			ID:      DocID(p.FactID, i),
			URL:     DocURL(HostName(r.Host), p.Slug, i),
			Host:    HostName(r.Host),
			Title:   v.Title,
			Stance:  r.Stance,
			Empty:   r.Empty,
			FromSKG: r.SKG,
			Seq:     i,
			FactID:  p.FactID,
		}
		if got != w.Document {
			t.Fatalf("%s row %d: %+v, oracle %+v", f.ID, i, got, w.Document)
		}
		if v.Text != w.Text || v.Full != w.Full || !reflect.DeepEqual(v.Vec, w.Vec) {
			t.Fatalf("%s row %d: variant text, full text or vector differs from the oracle", f.ID, i)
		}
		if *docs[i] != w.Document {
			t.Fatalf("%s doc %d: Docs = %+v, oracle %+v", f.ID, i, *docs[i], w.Document)
		}
		if txt := g.Text(f, docs[i]); txt != w.Text {
			t.Fatalf("%s doc %d: Text = %q, oracle %q", f.ID, i, txt, w.Text)
		}
		meta.Count++
		if w.Empty {
			meta.Empty++
		}
		if w.FromSKG {
			meta.SKG++
		}
		switch w.Stance {
		case StanceSupport:
			meta.Support++
		case StanceRefute:
			meta.Refute++
		case StanceNeutral:
			meta.Neutral++
		}
	}
	if got := g.MetaFor(f); got != meta {
		t.Fatalf("%s: MetaFor = %+v, oracle %+v", f.ID, got, meta)
	}
	if len(p.Variants) > numVariants {
		t.Fatalf("%s: %d variants, at most %d exist", f.ID, len(p.Variants), numVariants)
	}
	fulls := map[string]bool{}
	for _, v := range p.Variants {
		if fulls[v.Full] {
			t.Fatalf("%s: variant %q built twice", f.ID, v.Full)
		}
		fulls[v.Full] = true
		if want := v.Title + " " + v.Text; v.Full != want {
			t.Fatalf("%s: Full = %q, want %q", f.ID, v.Full, want)
		}
	}
}

// TestMaterializeMatchesDocsAndText is the corpus differential test: for
// every fact of every dataset of the small world, so every stance, every
// variant and the refutation path are covered, the compact pool, Docs,
// Text and MetaFor equal the per-document oracle.
func TestMaterializeMatchesDocsAndText(t *testing.T) {
	_, ds, g := fixture(t)
	for _, dn := range []dataset.Name{dataset.FactBench, dataset.YAGO, dataset.DBpedia} {
		for _, f := range ds[dn].Facts {
			checkPoolMatchesOracle(t, g, f)
		}
	}
}

// TestLargePoolsMatchOracle runs the corpus differential over pools of
// thousands of documents, whose sequence numbers pass four digits.
func TestLargePoolsMatchOracle(t *testing.T) {
	w, ds, _ := fixture(t)
	g := largeGenerator(w)
	n := 0
	for _, f := range ds[dataset.FactBench].Facts {
		if g.PoolSize(f) <= 10000 {
			continue
		}
		checkPoolMatchesOracle(t, g, f)
		if n++; n == 2 {
			return
		}
	}
	t.Fatal("no fact has a pool past sequence number 10000")
}

// TestStreamMatchesOracle pins Stream against the per-document oracle.
func TestStreamMatchesOracle(t *testing.T) {
	_, ds, g := fixture(t)
	for _, f := range ds[dataset.YAGO].Facts[:20] {
		for _, i := range []int{0, 1, 7, 999, 10000} {
			if got, want := g.Stream(f, i), oracleStream(g, f, i); got != want {
				t.Fatalf("%s stream %d: %+v, oracle %+v", f.ID, i, got, want)
			}
		}
	}
}

// TestMaterializeAllocatesPerVariant asserts a pool's allocations follow
// its distinct variants, not its documents: quadrupling the pool size
// leaves the allocation count of a materialisation almost unchanged.
func TestMaterializeAllocatesPerVariant(t *testing.T) {
	w, ds, g := fixture(t)
	big := NewGenerator(w)
	big.MeanDocs *= 4
	big.StdDocs *= 4
	big.MaxDocs *= 4
	f := ds[dataset.FactBench].Facts[3]
	p, q := g.Materialize(f), big.Materialize(f)
	if len(q.Rows) < 3*len(p.Rows) {
		t.Fatalf("pool sizes %d and %d: want the second ≥ 3× the first", len(p.Rows), len(q.Rows))
	}
	small := testing.AllocsPerRun(5, func() { g.Materialize(f) })
	large := testing.AllocsPerRun(5, func() { big.Materialize(f) })
	// Each variant costs its full string and its vector's two slices; each
	// pool a fixed handful (the rows, the variant table, the per-fact
	// strings).
	if limit := float64(3*len(q.Variants) + 40); large > limit {
		t.Errorf("%d-row pool with %d variants: %.0f allocs, want ≤ %.0f", len(q.Rows), len(q.Variants), large, limit)
	}
	if large > small+3*float64(len(q.Variants)-len(p.Variants))+2 {
		t.Errorf("allocs grew from %.0f (%d rows) to %.0f (%d rows): not per variant", small, len(p.Rows), large, len(q.Rows))
	}
}

// TestDocIDsMatchSprintf pins the concatenated document IDs and URLs
// against the fmt.Sprintf forms they replaced, across the zero-padding
// boundaries and past four digits.
func TestDocIDsMatchSprintf(t *testing.T) {
	_, ds, g := fixture(t)
	f := ds[dataset.FactBench].Facts[0]
	sl := slug(f.Subject.Label)
	for _, seq := range []int{0, 9, 10, 999, 1000, 9999, 10000, 123456} {
		if got, want := DocID(f.ID, seq), fmt.Sprintf("%s-d%04d", f.ID, seq); got != want {
			t.Errorf("DocID(%d) = %q, want %q", seq, got, want)
		}
		if got, want := oracleSeqID(f.ID, "-d", seq), fmt.Sprintf("%s-d%04d", f.ID, seq); got != want {
			t.Errorf("oracle ID %d = %q, want %q", seq, got, want)
		}
		if got, want := DocURL("h.example", sl, seq), fmt.Sprintf("https://h.example/%s/p%04d", sl, seq); got != want {
			t.Errorf("DocURL(%d) = %q, want %q", seq, got, want)
		}
		sd := g.Stream(f, seq)
		if want := fmt.Sprintf("https://%s/%s/s%04d", sd.Host, sl, seq); sd.URL != want {
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
