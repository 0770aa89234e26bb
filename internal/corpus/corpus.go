// Package corpus synthesises the per-fact web document collections that
// substitute for the paper's 2M+ Google-SERP crawl (§4.1). For every
// benchmark fact it deterministically generates a pool of documents with
// the published macro-statistics — count distribution (mean ≈154.5, median
// 160, max 337, some facts with 0), ≈13% empty-extraction rate, and a share
// of original-KG source pages (Wikipedia-style) that the pipeline must
// filter to avoid circular verification.
//
// Document *stance* (supports / refutes / neutral / unrelated) is assigned
// at generation time from the fact's gold label and the dataset's evidence
// quality, so retrieval behaviour emerges from corpus composition exactly as
// it does from the real web: true facts are mostly corroborated, corrupted
// facts are contradicted by pages stating the true value, and
// schema-diverse DBpedia facts attract noisier pools.
package corpus

import (
	"math"
	"strconv"
	"strings"

	"factcheck/internal/dataset"
	"factcheck/internal/det"
	"factcheck/internal/kg"
	"factcheck/internal/text"
	"factcheck/internal/verbalize"
)

// Stance classifies what a document says about the asserted fact.
type Stance int

// Document stances.
const (
	// StanceUnrelated documents share no assertion with the fact.
	StanceUnrelated Stance = iota
	// StanceNeutral documents mention the subject without asserting or
	// denying the fact (the paper's E1 "context missing details" case).
	StanceNeutral
	// StanceSupport documents assert the fact.
	StanceSupport
	// StanceRefute documents contradict the fact (usually by asserting the
	// true value instead).
	StanceRefute
)

// String returns the stance name.
func (s Stance) String() string {
	switch s {
	case StanceSupport:
		return "support"
	case StanceRefute:
		return "refute"
	case StanceNeutral:
		return "neutral"
	default:
		return "unrelated"
	}
}

// Document is one synthetic webpage of a fact's retrieval pool. Metadata is
// materialised eagerly; full text is generated lazily via Generator.Text to
// keep full-corpus statistics cheap (2M documents are never held at once).
type Document struct {
	ID     string
	URL    string
	Host   string
	Title  string
	Stance Stance
	// Empty marks extraction failures: the page was retrieved but yielded
	// no text (≈13% of the corpus).
	Empty bool
	// FromSKG marks pages originating from the KG's own source set (e.g.
	// Wikipedia for DBpedia facts); these must be filtered before use.
	FromSKG bool
	// Seq is the document's index within its fact pool.
	Seq int
	// FactID is the owning fact.
	FactID string
}

// hosts is the pool of synthetic publishers. The first entry is the
// KG-source host (Wikipedia stand-in) used for FromSKG pages.
var hosts = []string{
	"en.wikipedia.org",
	"factsarchive.net",
	"encyclo-reference.org",
	"worldrecordsdaily.com",
	"the-chronicle-herald.net",
	"biograph-online.org",
	"knowledge-hub.io",
	"openfacts.example.org",
	"daily-gazette.net",
	"historic-registry.org",
	"culture-index.net",
	"sports-ledger.com",
}

// WorldView is the narrow interface corpus needs from the generating world:
// the set of true objects for a (subject, relation) pair, consulted when
// writing refutation documents that state the true value.
type WorldView interface {
	TrueObjects(sLocal, relName string) map[string]bool
}

// EvidenceProfile sets the per-document probability that a pool document
// supports or refutes a fact, split by the fact's gold label. The gap
// between (SupportTrue, RefuteFalse) and their cross terms controls how
// discriminative web evidence is for the dataset: FactBench and YAGO facts
// attract clean corroboration, while DBpedia's schema-diverse tail facts
// yield thin, partly contradictory evidence — the paper's finding 2.
type EvidenceProfile struct {
	SupportTrue  float64 // P(doc supports | fact true)
	RefuteTrue   float64 // P(doc refutes | fact true)  — stray misinformation
	SupportFalse float64 // P(doc supports | fact false) — echo of the error
	RefuteFalse  float64 // P(doc refutes | fact false) — pages with the true value
}

// Generator produces document pools. It is stateless apart from the
// configuration; all randomness is keyed by fact and document identity.
type Generator struct {
	// World supplies true values for refutation documents. May be nil, in
	// which case refutations use explicit negation only.
	World WorldView
	// Evidence maps dataset name -> evidence profile.
	Evidence map[dataset.Name]EvidenceProfile
	// EmptyRate is the extraction-failure probability (paper: 0.13).
	EmptyRate float64
	// SKGRate is the fraction of pool documents that come from the KG's own
	// source pages and must be filtered out.
	SKGRate float64
	// MeanDocs / StdDocs parameterise the per-fact pool-size distribution
	// (paper: mean 154.51, median 160, max 337).
	MeanDocs float64
	StdDocs  float64
	MaxDocs  int
}

// NewGenerator returns a Generator calibrated to the paper's published
// corpus statistics. w may be nil (refutations then rely on explicit
// negation sentences only).
func NewGenerator(w WorldView) *Generator {
	return &Generator{
		World: w,
		Evidence: map[dataset.Name]EvidenceProfile{
			// FactBench facts are popular head knowledge: clean, plentiful
			// corroboration and contradiction.
			dataset.FactBench: {SupportTrue: 0.07, RefuteTrue: 0.006, SupportFalse: 0.008, RefuteFalse: 0.06},
			// YAGO's rare false facts are crowd-annotation misses: the web
			// largely *echoes* them (SupportFalse > RefuteFalse), which is
			// why RAG cannot rescue F1(F) on YAGO.
			dataset.YAGO: {SupportTrue: 0.12, RefuteTrue: 0.004, SupportFalse: 0.04, RefuteFalse: 0.012},
			// DBpedia's schema-diverse tail facts attract thin evidence.
			dataset.DBpedia: {SupportTrue: 0.026, RefuteTrue: 0.006, SupportFalse: 0.006, RefuteFalse: 0.024},
		},
		EmptyRate: 0.13,
		SKGRate:   0.06,
		MeanDocs:  155,
		StdDocs:   58,
		MaxDocs:   337,
	}
}

// PoolSize returns the number of documents in the fact's pool. Popular
// facts attract slightly larger pools; a small fraction of facts retrieve
// nothing (paper: min d_t = 0).
func (g *Generator) PoolSize(f *dataset.Fact) int {
	if det.Bool(0.004, "pool-zero", f.ID) {
		return 0
	}
	mean := g.MeanDocs * (0.97 + 0.25*f.Popularity)
	n := det.Gaussian(mean, g.StdDocs, "pool-size", f.ID)
	if n < 1 {
		n = 1
	}
	if n > float64(g.MaxDocs) {
		n = float64(g.MaxDocs)
	}
	return int(math.Round(n))
}

// stanceMix returns the per-document probabilities of (support, refute,
// neutral) for the fact; the remainder is unrelated noise.
func (g *Generator) stanceMix(f *dataset.Fact) (support, refute, neutral float64) {
	ep, ok := g.Evidence[f.Dataset]
	if !ok {
		ep = EvidenceProfile{SupportTrue: 0.15, RefuteTrue: 0.01, SupportFalse: 0.01, RefuteFalse: 0.12}
	}
	pop := 0.5 + 0.5*f.Popularity // tail facts have thinner evidence
	if f.Gold {
		support = ep.SupportTrue * pop
		refute = ep.RefuteTrue
	} else {
		support = ep.SupportFalse
		refute = ep.RefuteFalse * pop
	}
	neutral = 0.35
	return support, refute, neutral
}

// Docs generates the full metadata pool for the fact.
func (g *Generator) Docs(f *dataset.Fact) []*Document {
	n := g.PoolSize(f)
	out := make([]*Document, 0, n)
	ps, pr, pn := g.stanceMix(f)
	fm := newFactMeta(f)
	for i := 0; i < n; i++ {
		out = append(out, g.doc(fm, i, ps, pr, pn))
	}
	return out
}

// factMeta holds the strings every document of one fact's pool shares,
// built once per fact instead of once per document.
type factMeta struct {
	f *dataset.Fact
	// slug is the URL path segment of the subject.
	slug string
	// recordTitle and profileTitle are the titles of stance-bearing and
	// neutral documents.
	recordTitle, profileTitle string
}

func newFactMeta(f *dataset.Fact) *factMeta {
	return &factMeta{
		f:            f,
		slug:         slug(f.Subject.Label),
		recordTitle:  f.Subject.Label + " and " + f.Object.Label + ": the record",
		profileTitle: f.Subject.Label + " - profile and notes",
	}
}

// seqID returns factID + marker + seq, with seq zero-padded to four digits
// as fmt's %04d renders a non-negative int.
func seqID(factID, marker string, seq int) string {
	var num [20]byte
	b := num[:0]
	for p := 1000; p > 1 && seq < p; p /= 10 {
		b = append(b, '0')
	}
	return factID + marker + string(strconv.AppendInt(b, int64(seq), 10))
}

// DocID returns the ID of the fact's seq-th pool document: the fact ID,
// "-d" and seq zero-padded to four digits, the form retrieval routes back
// to its fact. Generated pools and live ingestion share it.
func DocID(factID string, seq int) string { return seqID(factID, "-d", seq) }

// classify draws a document's stance, source and extraction outcome, all
// keyed by its ID.
func (g *Generator) classify(id string, ps, pr, pn float64) (st Stance, fromSKG, empty bool) {
	st = drawStance(id, ps, pr, pn)
	fromSKG = det.Bool(g.SKGRate, "skg", id)
	if fromSKG {
		// KG source pages always support the KG's (possibly wrong) claim —
		// that is precisely the circularity the filter exists to break.
		st = StanceSupport
	}
	return st, fromSKG, det.Bool(g.EmptyRate, "empty", id)
}

// drawStance draws a document's stance from the fact's stance mix.
func drawStance(id string, ps, pr, pn float64) Stance {
	u := det.Uniform("stance", id)
	switch {
	case u < ps:
		return StanceSupport
	case u < ps+pr:
		return StanceRefute
	case u < ps+pr+pn:
		return StanceNeutral
	default:
		return StanceUnrelated
	}
}

func (g *Generator) doc(fm *factMeta, i int, ps, pr, pn float64) *Document {
	id := DocID(fm.f.ID, i)
	st, fromSKG, empty := g.classify(id, ps, pr, pn)
	host := hosts[1+det.IntN(len(hosts)-1, "host", id)]
	if fromSKG {
		host = hosts[0]
	}
	return &Document{
		ID:      id,
		URL:     "https://" + host + "/" + fm.slug + "/p" + id[len(fm.f.ID)+len("-d"):],
		Host:    host,
		Title:   fm.title(st, id),
		Stance:  st,
		Empty:   empty,
		FromSKG: fromSKG,
		Seq:     i,
		FactID:  fm.f.ID,
	}
}

// fillerTitles are the titles of unrelated documents.
var fillerTitles = [...]string{"Regional news roundup", "Archive digest", "Weekly miscellany", "Site index", "Community bulletin"}

func (fm *factMeta) title(st Stance, id string) string {
	switch st {
	case StanceSupport, StanceRefute:
		return fm.recordTitle
	case StanceNeutral:
		return fm.profileTitle
	default:
		return fillerTitles[det.IntN(len(fillerTitles), "title", id)]
	}
}

// Text lazily generates the document body. Empty documents return "".
// Support documents contain the asserted sentence; refute documents assert
// the true value (when the world knows one) and explicitly contradict the
// claim; neutral documents mention the subject only.
func (g *Generator) Text(f *dataset.Fact, d *Document) string {
	return g.newFactBody(f).text(d)
}

// factBody holds the stance-specific openings of one fact's document
// bodies, built once per fact: verbalising the fact and looking up its
// true object are per-fact work.
type factBody struct {
	subj                     string
	support, refute, neutral string
}

func (g *Generator) newFactBody(f *dataset.Fact) *factBody {
	subj := f.Subject.Label
	refute := ""
	if trueObj := g.trueObjectLabel(f); trueObj != "" {
		refute = subj + " " + f.Relation.Phrase + " " + trueObj + ". "
	}
	return &factBody{
		subj:    subj,
		support: verbalize.Sentence(f) + " Multiple records agree on this point. ",
		refute: refute + "Contrary to some claims, it is not the case that " +
			subj + " " + f.Relation.Phrase + " " + f.Object.Label + ". ",
		neutral: subj + " is discussed in this article. ",
	}
}

// text generates d's body.
func (b *factBody) text(d *Document) string {
	if d.Empty {
		return ""
	}
	switch d.Stance {
	case StanceSupport:
		return b.support + b.filler(d, "a")
	case StanceRefute:
		return b.refute + b.filler(d, "b")
	case StanceNeutral:
		return b.neutral + b.filler(d, "c") + " " + b.filler(d, "d")
	default:
		return "General interest material unrelated to the query. " + b.filler(d, "e")
	}
}

// filler returns the background sentence drawn for slot k of d, building
// only the option it picks.
func (b *factBody) filler(d *Document, k string) string {
	switch det.IntN(5, "filler", d.ID, k) {
	case 0:
		return b.subj + " has been covered by several publications over the years."
	case 1:
		return "Archivists consider the records about " + b.subj + " largely consistent."
	case 2:
		return "This page is part of a curated collection of reference material."
	case 3:
		return "Readers frequently consult this entry for background information."
	default:
		return b.subj + " appears in multiple regional registries."
	}
}

// trueObjectLabel returns the label of a true object for the fact's
// (subject, relation), or "" when the world records none — e.g. the subject
// of a corrupted-subject negative may genuinely lack the relation. When
// several true objects exist the lexicographically smallest is used so the
// generated text is deterministic.
func (g *Generator) trueObjectLabel(f *dataset.Fact) string {
	if g.World == nil {
		return ""
	}
	objs := g.World.TrueObjects(kg.LocalName(f.Subject.IRI), f.Relation.Name)
	best := ""
	for local := range objs {
		if best == "" || local < best {
			best = local
		}
	}
	return strings.ReplaceAll(best, "_", " ")
}

// Materialized is one pool document with its generated body text and its
// embedding.
type Materialized struct {
	Doc  *Document
	Text string
	// Vec is the sparse embedding of Title + " " + Text, bit-identical to
	// text.SparseEmbed of that string, so the index builder and the
	// document reranker consume it instead of re-embedding the document per
	// query or per fact.
	Vec text.SparseVector
}

// Materialize generates the fact's full pool — metadata, body text and
// embeddings — in pool order. It is the bulk entry point the search
// engine's shard store uses; Docs/Text remain for callers that only need
// one side. Per-fact strings are built once for the whole pool, and each
// document is embedded in one kernel pass over its title and body, with no
// token strings and no concatenated copy.
func (g *Generator) Materialize(f *dataset.Fact) []Materialized {
	docs := g.Docs(f)
	body := g.newFactBody(f)
	out := make([]Materialized, len(docs))
	var dims []int32
	for i, d := range docs {
		txt := body.text(d)
		// Tokens never span a space, so the title's dimensions followed by
		// the body's are those of Title + " " + Text.
		dims = text.ContentDims(d.Title, dims[:0])
		dims = text.ContentDims(txt, dims)
		out[i] = Materialized{Doc: d, Text: txt, Vec: text.SparseEmbedDims(dims)}
	}
	return out
}

// StreamDoc is one live-ingestion append document: the streaming side of
// the corpus, generated with the same stance machinery as the base pool
// but keyed under a distinct namespace ("-sNNNN"), so a stream *extends* a
// fact's evidence deterministically rather than replaying it. Stream
// documents model pages arriving from the live web after the crawl: they
// are never extraction failures and never KG source pages.
type StreamDoc struct {
	URL   string `json:"url"`
	Host  string `json:"host"`
	Title string `json:"title"`
	Text  string `json:"text"`
}

// Stream generates the i-th streamed document for the fact. Output depends
// only on (fact, i), so any consumer replaying the same stream prefix gets
// byte-identical documents — the property the incremental-vs-cold golden
// gate rests on.
func (g *Generator) Stream(f *dataset.Fact, i int) StreamDoc {
	id := seqID(f.ID, "-s", i)
	ps, pr, pn := g.stanceMix(f)
	st := drawStance(id, ps, pr, pn)
	host := hosts[1+det.IntN(len(hosts)-1, "host", id)]
	fm := newFactMeta(f)
	d := &Document{ID: id, Stance: st, FactID: f.ID}
	return StreamDoc{
		URL:   "https://" + host + "/" + fm.slug + "/s" + id[len(f.ID)+len("-s"):],
		Host:  host,
		Title: fm.title(st, id),
		Text:  g.Text(f, d),
	}
}

// Meta summarises a fact's pool without generating text.
type Meta struct {
	Count   int
	Empty   int
	Support int
	Refute  int
	Neutral int
	SKG     int
}

// MetaFor computes pool metadata for the fact. It draws each document's
// stance, source and extraction outcome exactly as Docs does, without
// building URLs or titles.
func (g *Generator) MetaFor(f *dataset.Fact) Meta {
	m := Meta{Count: g.PoolSize(f)}
	ps, pr, pn := g.stanceMix(f)
	for i := 0; i < m.Count; i++ {
		st, fromSKG, empty := g.classify(DocID(f.ID, i), ps, pr, pn)
		if empty {
			m.Empty++
		}
		if fromSKG {
			m.SKG++
		}
		switch st {
		case StanceSupport:
			m.Support++
		case StanceRefute:
			m.Refute++
		case StanceNeutral:
			m.Neutral++
		}
	}
	return m
}

func slug(s string) string {
	s = strings.ToLower(strings.ReplaceAll(s, " ", "-"))
	var b strings.Builder
	for _, r := range s {
		if (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') || r == '-' {
			b.WriteRune(r)
		}
	}
	return b.String()
}
