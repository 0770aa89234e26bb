package search

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"factcheck/internal/corpus"
	"factcheck/internal/dataset"
	"factcheck/internal/world"
)

// streamBatch builds n deterministic live documents for the fact via the
// corpus generator's Stream namespace, starting at stream index base.
func streamBatch(gen *corpus.Generator, f *dataset.Fact, base, n int) []IngestDoc {
	var docs []IngestDoc
	for i := 0; i < n; i++ {
		sd := gen.Stream(f, base+i)
		docs = append(docs, IngestDoc{FactID: f.ID, URL: sd.URL, Host: sd.Host, Title: sd.Title, Text: sd.Text})
	}
	return docs
}

// TestIngestIncrementalMatchesCold is the PR's golden gate in unit form:
// the same document feed folded incrementally into warm, already-
// materialised pools must produce byte-identical search results and the
// same corpus digest as a cold engine that ingests everything in one batch
// and materialises from scratch.
func TestIngestIncrementalMatchesCold(t *testing.T) {
	w := world.New(world.SmallConfig())
	d := dataset.Build(w, dataset.FactBench, 0.2)
	gen := corpus.NewGenerator(w)
	inc := NewEngine(gen, d)
	cold := NewEngine(gen, d)
	facts := d.Facts[:3]

	// Incremental: warm first, then fold three batches into live pools.
	for _, f := range facts {
		if err := inc.Warm(f.ID); err != nil {
			t.Fatal(err)
		}
	}
	for batch := 0; batch < 3; batch++ {
		var docs []IngestDoc
		for _, f := range facts {
			docs = append(docs, streamBatch(gen, f, batch*2, 2)...)
		}
		if _, err := inc.Ingest(docs); err != nil {
			t.Fatal(err)
		}
	}

	// Cold: one batch into unmaterialised pools, built on first search.
	var all []IngestDoc
	for _, f := range facts {
		all = append(all, streamBatch(gen, f, 0, 6)...)
	}
	if _, err := cold.Ingest(all); err != nil {
		t.Fatal(err)
	}

	if ic, cc := inc.CorpusDigest(d.Name), cold.CorpusDigest(d.Name); ic != cc {
		t.Fatalf("corpus digests diverge: incremental %016x, cold %016x", ic, cc)
	}
	for _, f := range facts {
		a, err := inc.Search(f.ID, "records about "+f.Subject.Label, 50)
		if err != nil {
			t.Fatal(err)
		}
		b, err := cold.Search(f.ID, "records about "+f.Subject.Label, 50)
		if err != nil {
			t.Fatal(err)
		}
		aj, _ := json.Marshal(a)
		bj, _ := json.Marshal(b)
		if string(aj) != string(bj) {
			t.Fatalf("%s: incremental and cold serps differ:\n%s\nvs\n%s", f.ID, aj, bj)
		}
	}
	// The batching shows in the epoch counter, never in the content.
	if got := inc.FactEpoch(facts[0].ID); got != 3 {
		t.Errorf("incremental epoch = %d, want 3 (one per batch)", got)
	}
	if got := cold.FactEpoch(facts[0].ID); got != 1 {
		t.Errorf("cold epoch = %d, want 1", got)
	}
}

// TestIngestSearchSeesNewDocs: an ingested document is retrievable through
// the warm path immediately after Ingest returns.
func TestIngestSearchSeesNewDocs(t *testing.T) {
	e, d := fixture(t)
	f := d.Facts[0]
	if err := e.Warm(f.ID); err != nil {
		t.Fatal(err)
	}
	res, err := e.Ingest([]IngestDoc{{FactID: f.ID, Title: "Breaking coverage",
		Text: "Entirely fresh zanzibar-grade reporting about " + f.Subject.Label}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DocIDs) != 1 || res.Epochs[f.ID] != 1 {
		t.Fatalf("ingest result = %+v, want one doc at epoch 1", res)
	}
	items, err := e.Search(f.ID, "zanzibar-grade reporting", 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if it.DocID == res.DocIDs[0] {
			return
		}
	}
	t.Fatalf("ingested doc %s absent from results: %+v", res.DocIDs[0], items)
}

// TestIngestEpochScoping: an ingest bumps only the facts it touches; other
// facts keep their epoch, and the digest of an untouched dataset is stable.
func TestIngestEpochScoping(t *testing.T) {
	e, d := fixture(t)
	f0, f1 := d.Facts[0], d.Facts[1]
	before := e.CorpusDigest(d.Name)
	if before != 0 {
		t.Fatalf("pristine corpus digest = %016x, want 0", before)
	}
	if _, err := e.Ingest([]IngestDoc{{FactID: f0.ID, Title: "t", Text: "x"}}); err != nil {
		t.Fatal(err)
	}
	if got := e.FactEpoch(f0.ID); got != 1 {
		t.Errorf("touched fact epoch = %d, want 1", got)
	}
	if got := e.FactEpoch(f1.ID); got != 0 {
		t.Errorf("untouched fact epoch = %d, want 0", got)
	}
	if e.CorpusDigest(d.Name) == 0 {
		t.Error("dataset digest unchanged after ingest")
	}
	// An EpochView is a point-in-time snapshot: later ingests don't move it.
	view := e.EpochView()
	if _, err := e.Ingest([]IngestDoc{{FactID: f0.ID, Title: "t2", Text: "y"}}); err != nil {
		t.Fatal(err)
	}
	if view.FactEpoch(f0.ID) != 1 || e.FactEpoch(f0.ID) != 2 {
		t.Errorf("view epoch %d / live epoch %d, want 1 / 2", view.FactEpoch(f0.ID), e.FactEpoch(f0.ID))
	}
}

// TestIngestValidation: empty batches and unknown facts are refused whole,
// before any state changes.
func TestIngestValidation(t *testing.T) {
	e, d := fixture(t)
	if _, err := e.Ingest(nil); err == nil {
		t.Error("empty batch accepted")
	}
	_, err := e.Ingest([]IngestDoc{
		{FactID: d.Facts[0].ID, Title: "ok", Text: "fine"},
		{FactID: "nope-000001", Title: "bad", Text: "bad"},
	})
	if err == nil {
		t.Fatal("batch with unknown fact accepted")
	}
	if got := e.FactEpoch(d.Facts[0].ID); got != 0 {
		t.Errorf("failed batch still bumped an epoch to %d", got)
	}
}

// TestIngestedDocIDsMatchSprintf pins ingested document IDs and default
// URLs against the fmt.Sprintf forms they replaced. Ingested seqs start at
// ingestSeqBase and pass four digits once a fact has taken 9,000 documents.
func TestIngestedDocIDsMatchSprintf(t *testing.T) {
	_, d := fixture(t)
	f := d.Facts[0]
	for _, seq := range []int{0, 9, 10, 999, ingestSeqBase, 9999, 10000} {
		pd := newIngestedDoc(f, IngestDoc{FactID: f.ID, Title: "t", Text: "x"}, seq)
		id := fmt.Sprintf("%s-d%04d", f.ID, seq)
		if got := corpus.DocID(f.ID, pd.seq); got != id {
			t.Errorf("seq %d: ID = %q, want %q", seq, got, id)
		}
		if want := fmt.Sprintf("https://%s/ingest/%s", defaultIngestHost, id); pd.url != want {
			t.Errorf("seq %d: URL = %q, want %q", seq, pd.url, want)
		}
		if got, n, ok := parseDocID(id); !ok || got != f.ID || n != seq {
			t.Errorf("seq %d: parseDocID(%q) = %q, %d, %v", seq, id, got, n, ok)
		}
	}
}

// TestIngestWhileQuery races live ingestion against warm reads and cold
// materialisations. Under -race this is the PR's central safety claim: the
// read path takes no locks, so every access it makes must be to immutable
// snapshot state.
func TestIngestWhileQuery(t *testing.T) {
	w := world.New(world.SmallConfig())
	d := dataset.Build(w, dataset.FactBench, 0.2)
	gen := corpus.NewGenerator(w)
	e := NewEngine(gen, d)

	const rounds = 20
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				f := d.Facts[(seed+i)%len(d.Facts)]
				items, err := e.Search(f.ID, fmt.Sprintf("probe %d", i), 5)
				if err != nil {
					errc <- err
					return
				}
				if len(items) > 0 {
					if _, err := e.FetchEvidence(items[0].DocID); err != nil {
						errc <- err
						return
					}
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			f := d.Facts[i%4]
			docs := streamBatch(gen, f, i, 1)
			if _, err := e.Ingest(docs); err != nil {
				errc <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if got := e.FactEpoch(d.Facts[0].ID); got == 0 {
		t.Error("ingester never bumped an epoch")
	}
	st := e.Stats()
	if st.IngestedDocs != rounds {
		t.Errorf("stats report %d ingested docs, want %d", st.IngestedDocs, rounds)
	}
}
