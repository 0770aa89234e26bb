package corpus

import (
	"strconv"

	"factcheck/internal/dataset"
	"factcheck/internal/det"
	"factcheck/internal/text"
	"factcheck/internal/verbalize"
)

// The per-document generator the compact pool replaced, kept as the
// differential oracle: every draw is keyed by the document's full ID, and
// every document carries its own ID, URL, title, body and embedding.

// oracleSeqID returns factID + marker + seq, with seq zero-padded to four
// digits as fmt's %04d renders a non-negative int.
func oracleSeqID(factID, marker string, seq int) string {
	var num [20]byte
	b := num[:0]
	for p := 1000; p > 1 && seq < p; p /= 10 {
		b = append(b, '0')
	}
	return factID + marker + string(strconv.AppendInt(b, int64(seq), 10))
}

// oracleDoc is one fully spelled-out pool document.
type oracleDoc struct {
	Document
	Text string
	Full string
	Vec  text.SparseVector
}

// oracleStance draws a document's stance from the fact's stance mix.
func oracleStance(id string, ps, pr, pn float64) Stance {
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

// oracleTitle returns the title of a document with stance st and ID id.
func oracleTitle(f *dataset.Fact, st Stance, id string) string {
	switch st {
	case StanceSupport, StanceRefute:
		return f.Subject.Label + " and " + f.Object.Label + ": the record"
	case StanceNeutral:
		return f.Subject.Label + " - profile and notes"
	default:
		return fillerTitles[det.IntN(len(fillerTitles), "title", id)]
	}
}

// oracleBody generates the body of the document with ID id.
func oracleBody(g *Generator, f *dataset.Fact, id string, st Stance, empty bool) string {
	if empty {
		return ""
	}
	subj := f.Subject.Label
	filler := func(k string) string {
		switch det.IntN(numFillers, "filler", id, k) {
		case 0:
			return subj + " has been covered by several publications over the years."
		case 1:
			return "Archivists consider the records about " + subj + " largely consistent."
		case 2:
			return "This page is part of a curated collection of reference material."
		case 3:
			return "Readers frequently consult this entry for background information."
		default:
			return subj + " appears in multiple regional registries."
		}
	}
	switch st {
	case StanceSupport:
		return verbalize.Sentence(f) + " Multiple records agree on this point. " + filler("a")
	case StanceRefute:
		refute := ""
		if trueObj := g.trueObjectLabel(f); trueObj != "" {
			refute = subj + " " + f.Relation.Phrase + " " + trueObj + ". "
		}
		return refute + "Contrary to some claims, it is not the case that " +
			subj + " " + f.Relation.Phrase + " " + f.Object.Label + ". " + filler("b")
	case StanceNeutral:
		return subj + " is discussed in this article. " + filler("c") + " " + filler("d")
	default:
		return "General interest material unrelated to the query. " + filler("e")
	}
}

// oracleDocs generates the fact's pool document by document.
func oracleDocs(g *Generator, f *dataset.Fact) []oracleDoc {
	ps, pr, pn := g.stanceMix(f)
	out := make([]oracleDoc, g.PoolSize(f))
	for i := range out {
		id := oracleSeqID(f.ID, "-d", i)
		st := oracleStance(id, ps, pr, pn)
		fromSKG := det.Bool(g.SKGRate, "skg", id)
		if fromSKG {
			st = StanceSupport
		}
		empty := det.Bool(g.EmptyRate, "empty", id)
		host := hosts[1+det.IntN(len(hosts)-1, "host", id)]
		if fromSKG {
			host = hosts[0]
		}
		title := oracleTitle(f, st, id)
		body := oracleBody(g, f, id, st, empty)
		full := title + " " + body
		out[i] = oracleDoc{
			Document: Document{
				ID:      id,
				URL:     "https://" + host + "/" + slug(f.Subject.Label) + "/p" + id[len(f.ID)+len("-d"):],
				Host:    host,
				Title:   title,
				Stance:  st,
				Empty:   empty,
				FromSKG: fromSKG,
				Seq:     i,
				FactID:  f.ID,
			},
			Text: body,
			Full: full,
			Vec:  text.SparseEmbed(full),
		}
	}
	return out
}

// oracleStream generates the fact's i-th stream document.
func oracleStream(g *Generator, f *dataset.Fact, i int) StreamDoc {
	id := oracleSeqID(f.ID, "-s", i)
	ps, pr, pn := g.stanceMix(f)
	st := oracleStance(id, ps, pr, pn)
	host := hosts[1+det.IntN(len(hosts)-1, "host", id)]
	return StreamDoc{
		URL:   "https://" + host + "/" + slug(f.Subject.Label) + "/s" + id[len(f.ID)+len("-s"):],
		Host:  host,
		Title: oracleTitle(f, st, id),
		Text:  oracleBody(g, f, id, st, false),
	}
}
