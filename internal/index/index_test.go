package index

import (
	"fmt"
	"reflect"
	"testing"

	"factcheck/internal/det"
	"factcheck/internal/text"
)

// buildFixture indexes n synthetic documents and returns the index plus the
// dense vectors the linear-scan reference would have embedded.
func buildFixture(n int) (*Index, []text.Vector) {
	bodies := []string{
		"Alexander married the duchess in the capital city",
		"the museum catalogue lists the painting under disputed provenance",
		"regional sports results and league standings for the season",
		"the committee awarded the prize for contributions to chemistry",
		"", // extraction failure: empty body
		"Alexander later founded a society for historical preservation",
	}
	b := NewBuilder(n)
	var vecs []text.Vector
	for i := 0; i < n; i++ {
		body := bodies[i%len(bodies)]
		title := fmt.Sprintf("document %d", i%7)
		b.Add(text.ContentTokens(title + " " + body))
		vecs = append(vecs, text.Embed(title+" "+body))
	}
	return b.Build(), vecs
}

// sharedRows maps 3n rows onto n documents, every document read by
// several rows in an order unrelated to its own.
func sharedRows(n int) []int32 {
	rows := make([]int32, 3*n)
	for r := range rows {
		rows[r] = int32((r * 7) % n)
	}
	return rows
}

func TestTopKMatchesDenseScan(t *testing.T) {
	ix, vecs := buildFixture(50)
	queries := []string{
		"Alexander married the duchess",
		"prize for chemistry",
		"league standings",
		"completely unrelated query about submarines",
		"document",
	}
	perturb := func(r int) float64 { return 0.05 * det.Uniform("serp-test", fmt.Sprint(r)) }
	for _, rows := range [][]int32{identityRows(50), sharedRows(50)} {
		for _, q := range queries {
			for _, k := range []int{1, 3, 10, 50, 100, 200} {
				got := ranked(t, ix.TopK(text.SparseEmbed(q), k, rows, perturb, nil, nil, nil), nil)
				want := denseTopK(text.Embed(q), vecs, rows, k, perturb, nil)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("q=%q k=%d rows=%d:\ngot  %v\nwant %v", q, k, len(rows), got, want)
				}
			}
		}
	}
}

// TestTopKTieBreakByDocID pins the tie-break: rows of one document tie on
// cosine, and with no perturbation the order falls back to the row
// comparison — here doc ID ascending, which disagrees with row order,
// including an ID whose sequence number passes four digits.
func TestTopKTieBreakByDocID(t *testing.T) {
	b := NewBuilder(1)
	b.Add([]string{"same", "tokens"})
	ix := b.Build()
	ids := []string{"f-d0003", "f-d0001", "f-d10000", "f-d0002", "f-d9999", "f-d0000"}
	hits := ranked(t, ix.TopK(text.SparseEmbed("same tokens"), len(ids), make([]int32, len(ids)), nil, idCmp(ids), nil, nil), idCmp(ids))
	want := []string{"f-d0000", "f-d0001", "f-d0002", "f-d0003", "f-d10000", "f-d9999"}
	for i, w := range want {
		if ids[hits[i].Row] != w {
			t.Fatalf("hit %d = %q, want %q (tie-break by ID)", i, ids[hits[i].Row], w)
		}
	}
	// Below every row, the tie-break decides which rows are in: the
	// first three IDs, and without a comparison the first three rows.
	hits = ranked(t, ix.TopK(text.SparseEmbed("same tokens"), 3, make([]int32, len(ids)), nil, idCmp(ids), nil, nil), idCmp(ids))
	for i, w := range want[:3] {
		if ids[hits[i].Row] != w {
			t.Fatalf("k=3: hit %d = %q, want %q (tie-break by ID)", i, ids[hits[i].Row], w)
		}
	}
	hits = ranked(t, ix.TopK(text.SparseEmbed("same tokens"), 3, make([]int32, len(ids)), nil, nil, nil, nil), nil)
	for i, h := range hits {
		if h.Row != i {
			t.Fatalf("hit %d is row %d, want row order", i, h.Row)
		}
	}
}

func TestTopKEdgeCases(t *testing.T) {
	ix, _ := buildFixture(5)
	rows := identityRows(5)
	q := text.SparseEmbed("anything")
	if got := ix.TopK(q, 0, rows, nil, nil, nil, nil); got != nil {
		t.Errorf("k=0: got %d hits, want none", len(got))
	}
	if got := ix.TopK(q, -1, rows, nil, nil, nil, nil); got != nil {
		t.Errorf("k<0: got %d hits, want none", len(got))
	}
	if got := ix.TopK(q, 99, rows, nil, nil, nil, nil); len(got) != 5 {
		t.Errorf("k>pool: got %d hits, want 5", len(got))
	}
	if got := ix.TopK(q, 3, nil, nil, nil, nil, nil); got != nil {
		t.Errorf("no rows: got %d hits, want none", len(got))
	}
	dst := []Hit{{Row: 9, Score: 9}}
	if got := ix.TopK(q, 2, rows, nil, nil, dst, nil); len(got) != 3 || got[0] != dst[0] {
		t.Errorf("dst not appended to: %v", got)
	}
	empty := NewBuilder(0).Build()
	if got := empty.TopK(q, 10, nil, nil, nil, nil, nil); got != nil {
		t.Errorf("empty index: got %d hits, want none", len(got))
	}
	if empty.Docs() != 0 || empty.Postings() != 0 {
		t.Errorf("empty index stats: docs=%d postings=%d", empty.Docs(), empty.Postings())
	}
}

func TestIndexStats(t *testing.T) {
	b := NewBuilder(2)
	b.Add([]string{"alpha", "beta"})
	b.Add([]string{"alpha"})
	ix := b.Build()
	if ix.Docs() != 2 {
		t.Errorf("Docs = %d, want 2", ix.Docs())
	}
	// alpha appears in two docs, beta in one: three postings (assuming no
	// hash collision between two short tokens' dimensions, which holds for
	// these literals).
	if ix.Postings() != 3 {
		t.Errorf("Postings = %d, want 3", ix.Postings())
	}
	// Five rows over the two documents: "alpha" reads both documents'
	// postings once, and all five rows are ranked.
	a := &Arena{}
	ix.TopK(text.SparseEmbed("alpha"), 2, []int32{0, 1, 1, 0, 1}, nil, nil, nil, a)
	if a.Stats.PostingsTouched != 2 || a.Stats.DocsScored != 5 {
		t.Errorf("Stats = %+v, want 2 postings touched, 5 rows scored", a.Stats)
	}
}
