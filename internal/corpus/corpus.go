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
	"slices"
	"strconv"
	"strings"

	"factcheck/internal/dataset"
	"factcheck/internal/det"
	"factcheck/internal/kg"
	"factcheck/internal/text"
	"factcheck/internal/verbalize"
)

// Stance classifies what a document says about the asserted fact.
type Stance uint8

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

// Document is one synthetic webpage of a fact's retrieval pool with its
// identity spelled out: the metadata form Docs returns. The retrieval
// engine holds pools in the compact form Materialize returns instead and
// derives a document's ID and URL only where the document leaves it.
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

// HostName returns the name of the host a Row's Host field indexes.
func HostName(i uint8) string { return hosts[i] }

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
// configuration; all randomness is keyed by fact and document identity:
// every per-document draw hashes (draw name, document ID), and a document
// ID is "<fact ID>-d" plus its zero-padded sequence number.
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

// seqDigitTable holds "0000" through "9999" back to back.
var seqDigitTable = func() string {
	b := make([]byte, 0, 4*10000)
	for i := 0; i < 10000; i++ {
		b = append(b, byte('0'+i/1000), byte('0'+i/100%10), byte('0'+i/10%10), byte('0'+i%10))
	}
	return string(b)
}()

// SeqDigits returns the non-negative seq zero-padded to four digits, as
// fmt's %04d renders it: the tail of a document ID after "-d". Numbers
// below 10,000 are slices of one shared table and allocate nothing.
func SeqDigits(seq int) string {
	if seq >= 0 && seq < 10000 {
		return seqDigitTable[4*seq : 4*seq+4]
	}
	return strconv.Itoa(seq)
}

// DocID returns the ID of the fact's seq-th pool document: the fact ID,
// "-d" and SeqDigits(seq), the form retrieval routes back to its fact.
// Generated pools and live ingestion share it.
func DocID(factID string, seq int) string { return factID + "-d" + SeqDigits(seq) }

// DocURL returns the URL of the seq-th generated document of a fact whose
// subject slug is slug, published on host.
func DocURL(host, slug string, seq int) string {
	return "https://" + host + "/" + slug + "/p" + SeqDigits(seq)
}

// drawer draws the documents of one fact. Each key is the hash state of
// a draw name and the fact's ID prefix ("<fact ID>-d" for the pool,
// "<fact ID>-s" for the stream), so a document's draw hashes only its
// sequence digits and equals the draw keyed by its full ID.
type drawer struct {
	g                                       *Generator
	stance, skg, empty, host, title, filler det.Key
	ps, pr, pn                              float64
}

func (g *Generator) newDrawer(f *dataset.Fact, marker string) *drawer {
	key := func(name string) det.Key { return det.NewKey(name).Cont(f.ID).Cont(marker) }
	dr := &drawer{
		g:      g,
		stance: key("stance"),
		skg:    key("skg"),
		empty:  key("empty"),
		host:   key("host"),
		title:  key("title"),
		filler: key("filler"),
	}
	dr.ps, dr.pr, dr.pn = g.stanceMix(f)
	return dr
}

// drawStance draws the stance of the document with sequence digits ds
// from the fact's stance mix.
func (dr *drawer) drawStance(ds string) Stance {
	u := dr.stance.Uniform(ds)
	switch {
	case u < dr.ps:
		return StanceSupport
	case u < dr.ps+dr.pr:
		return StanceRefute
	case u < dr.ps+dr.pr+dr.pn:
		return StanceNeutral
	default:
		return StanceUnrelated
	}
}

// classify draws the stance, source and extraction outcome of the
// document with sequence digits ds.
func (dr *drawer) classify(ds string) (st Stance, fromSKG, empty bool) {
	st = dr.drawStance(ds)
	fromSKG = dr.skg.Uniform(ds) < dr.g.SKGRate
	if fromSKG {
		// KG source pages always support the KG's (possibly wrong) claim —
		// that is precisely the circularity the filter exists to break.
		st = StanceSupport
	}
	return st, fromSKG, dr.empty.Uniform(ds) < dr.g.EmptyRate
}

// row draws the rest of a classified document: its host, and the title
// draw t and filler draws x and y that select its (title, body) variant
// v (-1 marks an unused draw). The returned row's Variant is unset.
func (dr *drawer) row(ds string, st Stance, fromSKG, empty bool) (r Row, v, t, x, y int) {
	r = Row{Stance: st, Empty: empty, SKG: fromSKG}
	if !fromSKG {
		r.Host = uint8(1 + dr.host.IntN(len(hosts)-1, ds))
	}
	t, x, y = -1, -1, -1
	if st == StanceUnrelated {
		t = dr.title.IntN(len(fillerTitles), ds)
	}
	// Each body slot draws under its own key; empty bodies draw nothing.
	if !empty {
		switch st {
		case StanceSupport:
			x = dr.filler.IntN(numFillers, ds, "a")
		case StanceRefute:
			x = dr.filler.IntN(numFillers, ds, "b")
		case StanceNeutral:
			x = dr.filler.IntN(numFillers, ds, "c")
			y = dr.filler.IntN(numFillers, ds, "d")
		default:
			x = dr.filler.IntN(numFillers, ds, "e")
		}
	}
	return r, variant(st, empty, t, x, y), t, x, y
}

// Docs returns the fact's pool as documents with their identity spelled
// out, in pool order. The documents sit in one backing array.
func (g *Generator) Docs(f *dataset.Fact) []*Document {
	docs := make([]Document, g.PoolSize(f))
	out := make([]*Document, len(docs))
	dr := g.newDrawer(f, "-d")
	fm := newFactMeta(f)
	for i := range docs {
		ds := SeqDigits(i)
		st, fromSKG, empty := dr.classify(ds)
		r, _, t, _, _ := dr.row(ds, st, fromSKG, empty)
		host := hosts[r.Host]
		docs[i] = Document{
			ID:      f.ID + "-d" + ds,
			URL:     DocURL(host, fm.slug, i),
			Host:    host,
			Title:   fm.title(st, t),
			Stance:  st,
			Empty:   empty,
			FromSKG: fromSKG,
			Seq:     i,
			FactID:  f.ID,
		}
		out[i] = &docs[i]
	}
	return out
}

// factMeta holds the strings every document of one fact's pool shares,
// built once per fact instead of once per document.
type factMeta struct {
	// slug is the URL path segment of the subject.
	slug string
	// titles are the record title of stance-bearing documents, the profile
	// title of neutral ones, then the filler titles (see titleNum).
	titles [numTitles]string
}

func newFactMeta(f *dataset.Fact) *factMeta {
	fm := &factMeta{slug: slug(f.Subject.Label)}
	fm.titles[0] = f.Subject.Label + " and " + f.Object.Label + ": the record"
	fm.titles[1] = f.Subject.Label + " - profile and notes"
	copy(fm.titles[2:], fillerTitles[:])
	return fm
}

// fillerTitles are the titles of unrelated documents.
var fillerTitles = [...]string{"Regional news roundup", "Archive digest", "Weekly miscellany", "Site index", "Community bulletin"}

// numTitles is the number of distinct titles in one fact's pool.
const numTitles = 2 + len(fillerTitles)

// titleNum returns the number of the title a document with stance st and
// title draw t carries: 0 the record title, 1 the profile title, 2+t
// filler title t.
func titleNum(st Stance, t int) int {
	switch st {
	case StanceSupport, StanceRefute:
		return 0
	case StanceNeutral:
		return 1
	default:
		return 2 + t
	}
}

// title returns the title of a document with stance st and title draw t.
func (fm *factMeta) title(st Stance, t int) string { return fm.titles[titleNum(st, t)] }

// Text returns the body of one of the fact's documents, as Docs returned
// it. Empty documents return "". Support documents contain the asserted
// sentence; refute documents assert the true value (when the world knows
// one) and explicitly contradict the claim; neutral documents mention the
// subject only.
func (g *Generator) Text(f *dataset.Fact, d *Document) string {
	_, _, _, x, y := g.newDrawer(f, "-d").row(SeqDigits(d.Seq), d.Stance, d.FromSKG, d.Empty)
	return g.newFactBody(f).build("", "", d.Stance, d.Empty, x, y)
}

// factBody holds the stance-specific openings and the background
// sentences of one fact's document bodies, built once per fact:
// verbalising the fact and looking up its true object are per-fact work.
// A body is its stance's opening and one background sentence (two for a
// neutral body), joined by single spaces.
type factBody struct {
	// openings is indexed by stance.
	openings [4]string
	fillers  [numFillers]string
}

// numFillers is the number of background sentences a body draws from.
const numFillers = 5

// The body parts that name no fact: the unrelated opening and background
// sentences 2 and 3.
const (
	unrelatedOpening = "General interest material unrelated to the query. "
	collectionFiller = "This page is part of a curated collection of reference material."
	backgroundFiller = "Readers frequently consult this entry for background information."
)

func (g *Generator) newFactBody(f *dataset.Fact) *factBody {
	subj := f.Subject.Label
	refute := ""
	if trueObj := g.trueObjectLabel(f); trueObj != "" {
		refute = subj + " " + f.Relation.Phrase + " " + trueObj + ". "
	}
	return &factBody{
		openings: [4]string{
			StanceUnrelated: unrelatedOpening,
			StanceNeutral:   subj + " is discussed in this article. ",
			StanceSupport:   verbalize.Sentence(f) + " Multiple records agree on this point. ",
			StanceRefute: refute + "Contrary to some claims, it is not the case that " +
				subj + " " + f.Relation.Phrase + " " + f.Object.Label + ". ",
		},
		fillers: [numFillers]string{
			subj + " has been covered by several publications over the years.",
			"Archivists consider the records about " + subj + " largely consistent.",
			collectionFiller,
			backgroundFiller,
			subj + " appears in multiple regional registries.",
		},
	}
}

// build returns title + sep + the body of a document with stance st and
// extraction outcome empty and filler draws x and y (see drawer.row), in
// one allocation.
func (b *factBody) build(title, sep string, st Stance, empty bool, x, y int) string {
	switch {
	case empty:
		return title + sep
	case st == StanceNeutral:
		return title + sep + b.openings[st] + b.fillers[x] + " " + b.fillers[y]
	default:
		return title + sep + b.openings[st] + b.fillers[x]
	}
}

// partDims holds the content-token dimensions of every part of one fact's
// variant texts, each part's in ascending order: its titles, openings and
// background sentences. Tokens never span the spaces that join the parts,
// so a variant's dimensions are its parts' (text.ContentDims) merged, and
// each part is tokenized and sorted once (per fact, or per process for
// the parts no fact names) instead of once per variant.
type partDims struct {
	titles   [numTitles][]int32
	openings [4][]int32
	fillers  [numFillers][]int32
}

// sharedDims holds the dimensions of the parts no fact names: the filler
// titles, the unrelated opening and background sentences 2 and 3. They
// are tokenized and sorted once per process; every fact's partDims starts
// as a copy, whose slices are only ever read.
var sharedDims = func() partDims {
	var d partDims
	var buf []int32
	for i, t := range fillerTitles {
		d.titles[2+i] = sortedDims(&buf, t)
	}
	d.openings[StanceUnrelated] = sortedDims(&buf, unrelatedOpening)
	d.fillers[2] = sortedDims(&buf, collectionFiller)
	d.fillers[3] = sortedDims(&buf, backgroundFiller)
	return d
}()

// newPartDims adds to sharedDims the eight parts that name the fact: the
// record and profile titles, the neutral, support and refute openings and
// background sentences 0, 1 and 4.
func newPartDims(fm *factMeta, b *factBody) *partDims {
	d := sharedDims
	buf := make([]int32, 0, 128)
	d.titles[0] = sortedDims(&buf, fm.titles[0])
	d.titles[1] = sortedDims(&buf, fm.titles[1])
	for _, st := range [...]Stance{StanceNeutral, StanceSupport, StanceRefute} {
		d.openings[st] = sortedDims(&buf, b.openings[st])
	}
	for _, i := range [...]int{0, 1, 4} {
		d.fillers[i] = sortedDims(&buf, b.fillers[i])
	}
	return &d
}

// sortedDims appends the ascending content-token dimensions of s to *buf
// and returns them as a capped slice: it never sees later appends, and a
// reallocation of *buf leaves it intact on the old array.
func sortedDims(buf *[]int32, s string) []int32 {
	lo := len(*buf)
	*buf = text.ContentDims(s, *buf)
	slices.Sort((*buf)[lo:])
	return (*buf)[lo:len(*buf):len(*buf)]
}

// appendVariant appends the ascending dimensions of the variant text that
// build returns for title number ti and the body draws to dims, merging
// the variant's two to four sorted parts.
func (d *partDims) appendVariant(dims []int32, ti int, st Stance, empty bool, x, y int) []int32 {
	if empty {
		return append(dims, d.titles[ti]...)
	}
	var scratch [2][64]int32
	head := mergeDims(scratch[0][:0], d.titles[ti], d.openings[st])
	tail := d.fillers[x]
	if st == StanceNeutral {
		tail = mergeDims(scratch[1][:0], tail, d.fillers[y])
	}
	return mergeDims(dims, head, tail)
}

// mergeDims appends the merge of the ascending lists a and b to dst.
func mergeDims(dst, a, b []int32) []int32 {
	dst = slices.Grow(dst, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if b[0] < a[0] {
			a, b = b, a
		}
		dst, a = append(dst, a[0]), a[1:]
	}
	return append(append(dst, a...), b...)
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

// A document's title and body follow from its extraction outcome, its
// stance and its title and filler draws, so a pool has at most numVariants
// distinct (title, body) pairs. variant numbers them: empty bodies first,
// by title (0 the record title, 1 the profile title, 2+t filler title t),
// then the support, refute, neutral and unrelated bodies by their draws.
const (
	supportVariant   = numTitles
	refuteVariant    = supportVariant + numFillers
	neutralVariant   = refuteVariant + numFillers
	unrelatedVariant = neutralVariant + numFillers*numFillers
	numVariants      = unrelatedVariant + len(fillerTitles)*numFillers
)

// variant returns the number of the (title, body) pair that stance st,
// extraction outcome empty, title draw t and filler draws x and y select.
func variant(st Stance, empty bool, t, x, y int) int {
	if empty {
		return titleNum(st, t)
	}
	switch st {
	case StanceSupport:
		return supportVariant + x
	case StanceRefute:
		return refuteVariant + x
	case StanceNeutral:
		return neutralVariant + numFillers*x + y
	default:
		return unrelatedVariant + numFillers*t + x
	}
}

// Row is one document of a compact pool: the draws that decide it, without
// its text or identity. A row's sequence number is its position in the
// pool, so its ID is DocID(fact ID, position) and its URL is
// DocURL(HostName(Host), slug, position).
type Row struct {
	// Variant indexes the pool's Variants: the row's title and body.
	Variant uint8
	// Host indexes the host table (see HostName).
	Host   uint8
	Stance Stance
	// Empty marks extraction failures (the variant's body is "").
	Empty bool
	// SKG marks pages from the KG's own source set, which the pipeline
	// filters out.
	SKG bool
}

// Variant is one distinct (title, body) text of a pool with its
// embedding.
type Variant struct {
	Title string
	// Text is the body, the tail of Full.
	Text string
	// Full is Title + " " + Text, the string retrieval indexes and
	// document rerankers score.
	Full string
	// Vec is the sparse embedding of Full, bit-identical to
	// text.SparseEmbed(Full), so the index builder and the document
	// reranker consume it instead of re-embedding the document per query
	// or per fact.
	Vec text.SparseVector
}

// Pool is a fact's document pool in compact form: one row per document
// and one entry per distinct (title, body) variant, which every row that
// draws it shares.
type Pool struct {
	FactID string
	// Slug is the URL path segment of the fact's subject.
	Slug     string
	Rows     []Row
	Variants []Variant
}

// Materialize generates the fact's compact pool — rows, variant texts and
// embeddings. It is the bulk entry point the search engine's shard store
// uses. The rows are drawn first; then each distinct variant is built and
// embedded once, in the order rows first drew it, into a slice of exactly
// the pool's variant count. No per-document string is built.
func (g *Generator) Materialize(f *dataset.Fact) *Pool {
	p := &Pool{FactID: f.ID, Slug: slug(f.Subject.Label), Rows: make([]Row, g.PoolSize(f))}
	if len(p.Rows) == 0 {
		return p
	}
	dr := g.newDrawer(f, "-d")
	// draws[k] holds the draws of the k-th distinct variant, in the order
	// rows first draw them; slot[v] is 1 + the index of variant v there, 0
	// while undrawn. The texts are built once the count is known.
	type draw struct {
		st      Stance
		empty   bool
		t, x, y int
	}
	var draws [numVariants]draw
	var slot [numVariants]uint8
	k := 0
	for i := range p.Rows {
		ds := SeqDigits(i)
		st, fromSKG, empty := dr.classify(ds)
		r, v, t, x, y := dr.row(ds, st, fromSKG, empty)
		if slot[v] == 0 {
			draws[k] = draw{st, empty, t, x, y}
			k++
			slot[v] = uint8(k)
		}
		r.Variant = slot[v] - 1
		p.Rows[i] = r
	}
	p.Variants = make([]Variant, k)
	fm := newFactMeta(f)
	body := g.newFactBody(f)
	pd := newPartDims(fm, body)
	var dims []int32
	for i, d := range draws[:k] {
		ti := titleNum(d.st, d.t)
		title := fm.titles[ti]
		full := body.build(title, " ", d.st, d.empty, d.x, d.y)
		dims = pd.appendVariant(dims[:0], ti, d.st, d.empty, d.x, d.y)
		p.Variants[i] = Variant{Title: title, Text: full[len(title)+1:], Full: full, Vec: text.SparseEmbedSorted(dims)}
	}
	return p
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
	ds := SeqDigits(i)
	dr := g.newDrawer(f, "-s")
	st := dr.drawStance(ds)
	r, _, t, x, y := dr.row(ds, st, false, false)
	host := hosts[r.Host]
	fm := newFactMeta(f)
	return StreamDoc{
		URL:   "https://" + host + "/" + fm.slug + "/s" + ds,
		Host:  host,
		Title: fm.title(st, t),
		Text:  g.newFactBody(f).build("", "", st, false, x, y),
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
// stance, source and extraction outcome exactly as Docs and Materialize
// do, without drawing hosts, titles or bodies.
func (g *Generator) MetaFor(f *dataset.Fact) Meta {
	m := Meta{Count: g.PoolSize(f)}
	dr := g.newDrawer(f, "-d")
	for i := 0; i < m.Count; i++ {
		st, fromSKG, empty := dr.classify(SeqDigits(i))
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
