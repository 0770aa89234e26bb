package search

import (
	"cmp"
	"errors"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"factcheck/internal/verbalize"
)

// TestRankTopMatchesRank pins RankTop to the first k of Rank's order, for
// every k from 0 past the hit count, over hits whose scores tie often so
// that the doc-ID tie break decides, and checks that hits keeps every
// hit it was given.
func TestRankTopMatchesRank(t *testing.T) {
	e, d := fixture(t)
	rng := rand.New(rand.NewPCG(1, 2))
	for _, f := range d.Facts[:5] {
		pl, err := e.Pool(f.ID)
		if err != nil {
			t.Fatal(err)
		}
		hits := make([]Hit, pl.Len())
		for row := range hits {
			hits[row] = Hit{Row: row, Score: float64(rng.IntN(4))}
		}
		rng.Shuffle(len(hits), func(i, j int) { hits[i], hits[j] = hits[j], hits[i] })
		ranked := slices.Clone(hits)
		pl.Rank(ranked)
		for k := 0; k <= len(hits)+1; k++ {
			got := slices.Clone(hits)
			top := pl.RankTop(got, k)
			want := ranked[:min(k, len(ranked))]
			if !slices.Equal(top, want) {
				t.Fatalf("%s k=%d: RankTop %v, want %v", f.ID, k, top, want)
			}
			slices.SortFunc(got, func(a, b Hit) int { return cmp.Compare(a.Row, b.Row) })
			for row, h := range got {
				if h.Row != row {
					t.Fatalf("%s k=%d: RankTop lost row %d", f.ID, k, row)
				}
			}
		}
	}
}

// TestPoolReadsMatchWire pins the by-reference reads against the wire
// forms: a Pool.Search hit list is a set in ascending row order which,
// sorted by (score desc, doc ID asc), names in order the documents and
// scores Engine.Search returns, and Rank sorts it the same way; every row
// accessor agrees with Fetch and FetchEvidence for the same document.
func TestPoolReadsMatchWire(t *testing.T) {
	e, d := fixture(t)
	for _, f := range d.Facts[:5] {
		pl, err := e.Pool(f.ID)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []string{verbalize.Sentence(f), "unrelated words", ""} {
			for _, n := range []int{0, 1, 7, DefaultSERPSize} {
				items, err := e.Search(f.ID, q, n)
				if err != nil {
					t.Fatal(err)
				}
				hits := pl.Search(q, n, nil)
				for i := 1; i < len(hits); i++ {
					if hits[i-1].Row >= hits[i].Row {
						t.Fatalf("%s %q n=%d: hits not in ascending row order at %d", f.ID, q, n, i)
					}
				}
				ranked := slices.Clone(hits)
				pl.Rank(ranked)
				slices.SortFunc(hits, func(a, b Hit) int {
					if c := cmp.Compare(b.Score, a.Score); c != 0 {
						return c
					}
					return strings.Compare(pl.ID(a.Row), pl.ID(b.Row))
				})
				if !slices.Equal(ranked, hits) {
					t.Fatalf("%s %q n=%d: Rank order %v, want %v", f.ID, q, n, ranked, hits)
				}
				if len(hits) != len(items) {
					t.Fatalf("%s %q n=%d: %d hits, %d SERP items", f.ID, q, n, len(hits), len(items))
				}
				for i, h := range hits {
					if pl.ID(h.Row) != items[i].DocID || pl.Host(h.Row) != items[i].Host || h.Score != items[i].Score {
						t.Fatalf("%s %q n=%d: hit %d is %s/%v, SERP item %s/%v", f.ID, q, n, i, pl.ID(h.Row), h.Score, items[i].DocID, items[i].Score)
					}
				}
			}
		}
		for row := 0; row < pl.Len(); row++ {
			de, err := e.FetchEvidence(pl.ID(row))
			if err != nil {
				t.Fatal(err)
			}
			if pl.Payload(row) != de.DocPayload {
				t.Fatalf("%s row %d: payload %+v, fetched %+v", f.ID, row, pl.Payload(row), de.DocPayload)
			}
			if pl.Usable(row) != (!de.Empty && de.Text != "") {
				t.Fatalf("%s row %d: Usable = %v for empty=%v text %q", f.ID, row, pl.Usable(row), de.Empty, de.Text)
			}
			if pl.Full(row) != de.Full || !reflect.DeepEqual(pl.Vec(row), de.Vec) {
				t.Fatalf("%s row %d: scoring state differs from FetchEvidence", f.ID, row)
			}
			if !reflect.DeepEqual(pl.Chunks(row, 3), de.Chunks(3)) {
				t.Fatalf("%s row %d: chunks differ from FetchEvidence", f.ID, row)
			}
		}
	}
	if _, err := e.Pool("no-such-fact"); !errors.Is(err, ErrUnknownFact) {
		t.Fatalf("unknown fact: %v", err)
	}
}

// TestPoolPinsSnapshot: a Pool handle keeps reading the snapshot it was
// taken from after an ingestion publishes a newer one, while a fresh
// handle sees the ingested document.
func TestPoolPinsSnapshot(t *testing.T) {
	e, d := fixture(t)
	f := d.Facts[0]
	old, err := e.Pool(f.ID)
	if err != nil {
		t.Fatal(err)
	}
	q := verbalize.Sentence(f)
	before := old.Search(q, DefaultSERPSize, nil)
	if _, err := e.Ingest([]IngestDoc{{FactID: f.ID, Title: "Fresh", Text: q + " " + q}}); err != nil {
		t.Fatal(err)
	}
	if got := old.Search(q, DefaultSERPSize, nil); !reflect.DeepEqual(got, before) {
		t.Fatal("pinned pool's ranking changed after ingestion")
	}
	cur, err := e.Pool(f.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Len() != old.Len()+1 {
		t.Fatalf("rows %d -> %d after one ingested document", old.Len(), cur.Len())
	}
	top := cur.Search(q, 1, nil)
	if len(top) != 1 || top[0].Row != old.Len() {
		t.Fatalf("fresh handle's top hit %+v, want the ingested row %d", top, old.Len())
	}
}
