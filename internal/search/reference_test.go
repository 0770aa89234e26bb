package search

import (
	"sort"
	"sync"

	"factcheck/internal/det"
	"factcheck/internal/text"
)

// scanVecs caches each pool's dense document embeddings for ScanSearch
// (*factPool -> []text.Vector), so repeated calls measure steady-state scan
// cost as the retired engine paid it.
var scanVecs sync.Map

func poolScanVecs(p *factPool) []text.Vector {
	if v, ok := scanVecs.Load(p); ok {
		return v.([]text.Vector)
	}
	vecs := make([]text.Vector, len(p.docs))
	for i, d := range p.docs {
		vecs[i] = text.Embed(d.full)
	}
	v, _ := scanVecs.LoadOrStore(p, vecs)
	return v.([]text.Vector)
}

// ScanSearch is the retired linear-scan ranking, kept as the differential
// reference for Search: cosine of the query against every pool document's
// dense embedding, full sort, truncate. Golden tests assert Search ==
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
		d *pooledDoc
		s float64
	}
	items := make([]scored, 0, len(p.docs))
	for i, d := range p.docs {
		s := text.Cosine(qv, vecs[i])
		s += serpJitterScale * det.Uniform("serp", query, d.doc.ID)
		items = append(items, scored{d: d, s: s})
	}
	sort.SliceStable(items, func(i, j int) bool {
		if items[i].s != items[j].s {
			return items[i].s > items[j].s
		}
		return items[i].d.doc.ID < items[j].d.doc.ID
	})
	if len(items) > n {
		items = items[:n]
	}
	out := make([]SERPItem, len(items))
	for i, it := range items {
		out[i] = SERPItem{
			DocID: it.d.doc.ID,
			URL:   it.d.doc.URL,
			Host:  it.d.doc.Host,
			Title: it.d.doc.Title,
			Rank:  i + 1,
			Score: it.s,
		}
	}
	return out, nil
}
