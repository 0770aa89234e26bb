package search

import (
	"sort"
	"sync"

	"factcheck/internal/det"
	"factcheck/internal/text"
)

// scanVecs caches each pool's dense per-row embeddings for ScanSearch
// (*factPool -> []text.Vector), so repeated calls measure steady-state scan
// cost as the retired engine paid it.
var scanVecs sync.Map

func poolScanVecs(p *factPool) []text.Vector {
	if v, ok := scanVecs.Load(p); ok {
		return v.([]text.Vector)
	}
	vecs := make([]text.Vector, p.len())
	for row := range vecs {
		v, _ := p.variant(row)
		vecs[row] = text.Embed(v.Full)
	}
	v, _ := scanVecs.LoadOrStore(p, vecs)
	return v.([]text.Vector)
}

// ScanSearch is the retired per-document linear-scan ranking, kept as the
// differential reference for Search: the cosine of the query against every
// row's own dense embedding plus serpJitterScale·det.Uniform("serp",
// query, docID) over the row's spelled-out doc ID, fully sorted by (score
// desc, doc ID asc) and truncated. Golden tests assert Search ==
// ScanSearch byte for byte, and BenchmarkSearchScan measures its cost.
func (e *Engine) ScanSearch(factID, query string, n int) ([]SERPItem, error) {
	if n <= 0 {
		n = DefaultSERPSize
	}
	p, err := e.pool(factID)
	if err != nil {
		return nil, err
	}
	vecs := poolScanVecs(p)
	qv := text.Embed(query)
	type scored struct {
		row int
		id  string
		s   float64
	}
	items := make([]scored, p.len())
	for row := range items {
		id := p.id(row)
		s := text.Cosine(qv, vecs[row])
		s += serpJitterScale * det.Uniform("serp", query, id)
		items[row] = scored{row: row, id: id, s: s}
	}
	sort.SliceStable(items, func(i, j int) bool {
		if items[i].s != items[j].s {
			return items[i].s > items[j].s
		}
		return items[i].id < items[j].id
	})
	if len(items) > n {
		items = items[:n]
	}
	out := make([]SERPItem, len(items))
	for i, it := range items {
		d := p.payload(it.row)
		out[i] = SERPItem{
			DocID: it.id,
			URL:   d.URL,
			Host:  d.Host,
			Title: d.Title,
			Rank:  i + 1,
			Score: it.s,
		}
	}
	return out, nil
}
