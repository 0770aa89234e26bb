package search

import (
	"errors"
	"reflect"
	"testing"

	"factcheck/internal/chunk"
	"factcheck/internal/text"
	"factcheck/internal/verbalize"
)

// TestFetchEvidenceMatchesFetch pins the vector-aware fetch against plain
// Fetch plus on-the-fly embedding/splitting, for every document of a SERP.
func TestFetchEvidenceMatchesFetch(t *testing.T) {
	e, d := fixture(t)
	f := d.Facts[0]
	items, err := e.Search(f.ID, verbalize.Sentence(f), 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) == 0 {
		t.Fatal("no results")
	}
	for _, it := range items {
		de, err := e.FetchEvidence(it.DocID)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := e.Fetch(it.DocID)
		if err != nil {
			t.Fatal(err)
		}
		if de.DocPayload != plain {
			t.Fatalf("doc %s: payload mismatch: %+v vs %+v", it.DocID, de.DocPayload, plain)
		}
		if want := plain.Title + " " + plain.Text; de.Full != want {
			t.Fatalf("doc %s: Full = %q, want %q", it.DocID, de.Full, want)
		}
		if want := text.SparseEmbed(de.Full); !reflect.DeepEqual(de.Vec, want) {
			t.Fatalf("doc %s: precomputed vec differs from SparseEmbed(Full)", it.DocID)
		}
		for _, w := range []int{1, 3} {
			if got, want := de.Chunks(w), chunk.Sliding(plain.DocID, plain.Text, w); !reflect.DeepEqual(got, want) {
				t.Fatalf("doc %s window %d: Chunks = %v, Sliding = %v", it.DocID, w, got, want)
			}
		}
	}
}

// TestFetchEvidenceErrors mirrors Fetch's typed error contract.
func TestFetchEvidenceErrors(t *testing.T) {
	e, d := fixture(t)
	if _, err := e.FetchEvidence("not-a-doc-id"); !errors.Is(err, ErrMalformedDocID) {
		t.Errorf("malformed ID: got %v, want ErrMalformedDocID", err)
	}
	if _, err := e.FetchEvidence("no-such-fact-d0001"); !errors.Is(err, ErrUnknownFact) {
		t.Errorf("unknown fact: got %v, want ErrUnknownFact", err)
	}
	if _, err := e.FetchEvidence(d.Facts[0].ID + "-d9999"); !errors.Is(err, ErrUnknownDoc) {
		t.Errorf("unknown doc: got %v, want ErrUnknownDoc", err)
	}
}

// TestDocTableVectorsMatchScan cross-checks the precomputed doc-table
// vectors against the dense scan vectors of the reference path: for any
// query, sparse cosine over the table vector must equal dense cosine over
// the scan embedding bit for bit.
func TestDocTableVectorsMatchScan(t *testing.T) {
	e, d := fixture(t)
	f := d.Facts[2]
	query := "who founded the regional registry"
	qs := text.SparseEmbed(query)
	qd := text.Embed(query)
	items, err := e.Search(f.ID, query, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		de, err := e.FetchEvidence(it.DocID)
		if err != nil {
			t.Fatal(err)
		}
		sparse := text.SparseCosine(qs, de.Vec)
		dense := text.Cosine(qd, text.Embed(de.Full))
		if sparse != dense {
			t.Fatalf("doc %s: sparse cosine %v != dense cosine %v", it.DocID, sparse, dense)
		}
	}
}
