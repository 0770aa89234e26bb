package search

import (
	"fmt"
	"strconv"

	"factcheck/internal/corpus"
	"factcheck/internal/dataset"
	"factcheck/internal/det"
	"factcheck/internal/text"
)

// ingestSeqBase is the first document sequence number assigned to live
// ingestion. Generated base pools stay far below it (corpus.Generator caps
// pools at a few hundred documents), so ingested doc IDs — which share the
// corpus.DocID shape with generated ones to keep factIDOfDoc routing uniform
// — can never collide with the base corpus.
const ingestSeqBase = 1000

// IngestDoc is one live document append, the wire shape POST /v1/documents
// accepts. FactID routes the document into that fact's retrieval pool; the
// remaining fields become the document's fetchable content. Host and URL
// are defaulted when empty.
type IngestDoc struct {
	FactID string `json:"fact_id"`
	URL    string `json:"url,omitempty"`
	Host   string `json:"host,omitempty"`
	Title  string `json:"title"`
	Text   string `json:"text"`
}

// IngestResult reports one applied ingestion batch: the server-assigned
// document IDs in input order, and the new ingestion epoch of every fact
// the batch touched.
type IngestResult struct {
	DocIDs []string          `json:"doc_ids"`
	Epochs map[string]uint64 `json:"epochs"`
}

// defaultIngestHost is the host attributed to ingested documents that
// arrive without one. It is never the SKG host (en.wikipedia.org), so
// RAG's structured-knowledge shortcuts keep their meaning.
const defaultIngestHost = "live.factcheck.invalid"

// Ingest appends documents to their facts' retrieval pools and publishes
// one fresh epoch snapshot covering the whole batch: per-fact epochs
// advance, per-dataset corpus digests fold the new content in, already
// materialised pools are extended incrementally (index rebuilt over the
// combined doc sequence — byte-identical to a cold build). Readers never
// block: they keep the old snapshot until the single pointer store, and
// see the whole batch or none of it. Unknown facts fail the batch
// atomically, before any state changes.
func (e *Engine) Ingest(docs []IngestDoc) (IngestResult, error) {
	if len(docs) == 0 {
		return IngestResult{}, fmt.Errorf("search: ingest: empty batch")
	}
	for _, d := range docs {
		if _, ok := e.facts[d.FactID]; !ok {
			return IngestResult{}, fmt.Errorf("search: %w %q", ErrUnknownFact, d.FactID)
		}
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	old := e.snap.Load()
	res := IngestResult{
		DocIDs: make([]string, 0, len(docs)),
		Epochs: make(map[string]uint64),
	}
	epochs := make(map[string]uint64, len(old.epochs)+len(docs))
	for k, v := range old.epochs {
		epochs[k] = v
	}
	digests := make(map[dataset.Name]uint64, len(old.digests)+1)
	for k, v := range old.digests {
		digests[k] = v
	}
	touched := map[string][]*pooledDoc{}
	for _, in := range docs {
		f := e.facts[in.FactID]
		pd := newIngestedDoc(f, in, ingestSeqBase+len(e.log[f.ID]))
		e.log[f.ID] = append(e.log[f.ID], pd)
		touched[f.ID] = append(touched[f.ID], pd)
		res.DocIDs = append(res.DocIDs, pd.doc.ID)
		// Chain the fact's content digest and re-fold it into the
		// dataset digest: XOR out the fact's old term, XOR in the new.
		prev := e.factDigests[f.ID]
		next := det.Hash64("ingest-doc", u64hex(prev),
			pd.doc.ID, pd.doc.URL, pd.doc.Host, pd.doc.Title, pd.text)
		if prev != 0 {
			digests[f.Dataset] ^= det.Hash64("ingest-fact", f.ID, u64hex(prev))
		}
		digests[f.Dataset] ^= det.Hash64("ingest-fact", f.ID, u64hex(next))
		e.factDigests[f.ID] = next
	}
	pools := make(map[string]*factPool, len(old.pools))
	for k, v := range old.pools {
		pools[k] = v
	}
	for factID, pds := range touched {
		epochs[factID]++
		res.Epochs[factID] = epochs[factID]
		if p, ok := pools[factID]; ok {
			np := foldPool(p, pds, epochs[factID])
			np.lastUsed.Store(p.lastUsed.Load())
			pools[factID] = np
		}
	}
	e.snap.Store(&snapshot{
		gen:     old.gen + 1,
		pools:   pools,
		epochs:  epochs,
		digests: digests,
	})
	return res, nil
}

// newIngestedDoc builds the immutable doc-table row for one appended
// document, embedding its content exactly as materialize embeds generated
// documents (sparse embedding of "Title + body").
func newIngestedDoc(f *dataset.Fact, in IngestDoc, seq int) *pooledDoc {
	id := corpus.DocID(f.ID, seq)
	host := in.Host
	if host == "" {
		host = defaultIngestHost
	}
	url := in.URL
	if url == "" {
		url = "https://" + host + "/ingest/" + id
	}
	doc := &corpus.Document{
		ID:     id,
		URL:    url,
		Host:   host,
		Title:  in.Title,
		Stance: corpus.StanceUnrelated,
		Empty:  in.Text == "",
		Seq:    seq,
		FactID: f.ID,
	}
	full := in.Title + " " + in.Text
	return &pooledDoc{
		doc:  doc,
		full: full,
		text: full[len(in.Title)+1:],
		vec:  text.SparseEmbed(full),
	}
}

// u64hex renders a digest link for hashing (fixed-width, unambiguous).
func u64hex(v uint64) string { return strconv.FormatUint(v, 16) }

// CorpusDigest returns the dataset's live corpus content digest: 0 for a
// pristine generated corpus, and a value folding every ingested document
// otherwise. It joins result fingerprints, so any corpus change retires
// every cached cell that covered the dataset. Lock-free.
func (e *Engine) CorpusDigest(dn dataset.Name) uint64 {
	return e.snap.Load().digests[dn]
}

// FactEpoch returns the fact's ingestion epoch (number of applied ingest
// batches; 0 = pristine). Lock-free.
func (e *Engine) FactEpoch(factID string) uint64 {
	return e.snap.Load().epochs[factID]
}

// EpochView is a consistent point-in-time view of the corpus version
// state: per-fact epochs and per-dataset digests taken from one immutable
// snapshot, so a consumer keying caches by epoch and fingerprints by
// digest can never pair values from different epochs.
type EpochView struct {
	epochs  map[string]uint64
	digests map[dataset.Name]uint64
}

// EpochView captures the current snapshot's version state. Lock-free.
func (e *Engine) EpochView() EpochView {
	sn := e.snap.Load()
	return EpochView{epochs: sn.epochs, digests: sn.digests}
}

// FactEpoch returns the fact's ingestion epoch within this view.
func (v EpochView) FactEpoch(factID string) uint64 { return v.epochs[factID] }

// CorpusDigest returns the dataset's corpus digest within this view.
func (v EpochView) CorpusDigest(dn dataset.Name) uint64 { return v.digests[dn] }
