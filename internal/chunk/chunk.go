// Package chunk implements phase 4b of the RAG pipeline: segmenting
// documents into smaller overlapping passages with a sliding-window
// strategy (paper §3.2 / Table 4, "Sliding Window (size = 3)"). Windows are
// measured in sentences, sliding one sentence at a time, so consecutive
// chunks overlap by size-1 sentences.
package chunk

import (
	"strings"
	"sync"

	"factcheck/internal/text"
)

// DefaultWindow is the paper's configured sliding-window size (Table 4).
const DefaultWindow = 3

// Chunk is one overlapping passage of a document.
type Chunk struct {
	// DocID identifies the source document.
	DocID string
	// Seq is the chunk's position within the document (0-based).
	Seq int
	// Text is the passage content.
	Text string
}

// SplitSentences performs lightweight sentence segmentation on '.', '!' and
// '?' boundaries. It is deliberately simple: the synthetic corpus never
// contains abbreviations with internal periods.
func SplitSentences(s string) []string {
	var out []string
	var cur strings.Builder
	for _, r := range s {
		cur.WriteRune(r)
		if r == '.' || r == '!' || r == '?' {
			sent := strings.TrimSpace(cur.String())
			if sent != "" {
				out = append(out, sent)
			}
			cur.Reset()
		}
	}
	if tail := strings.TrimSpace(cur.String()); tail != "" {
		out = append(out, tail)
	}
	return out
}

// Sliding splits text into overlapping windows of `window` sentences,
// advancing one sentence per chunk. A document shorter than the window
// yields a single chunk containing the whole text. Empty text yields nil.
func Sliding(docID, text string, window int) []Chunk {
	return NewSplit(text).Windows(docID, window)
}

// Split is the precomputed sentence segmentation of one document: every
// sentence joined into a single string, with per-sentence offsets, so
// sliding windows of any size are substrings of the shared backing string
// instead of per-window strings.Join copies. The search engine's doc table
// caches one Split per fetched document and serves every window size from
// it.
type Split struct {
	// Joined is all sentences joined by single spaces — the exact text the
	// window-size-n chunk over all sentences would contain.
	Joined string
	// ends[i] is the exclusive end offset of sentence i in Joined. Sentence
	// i starts at 0 (i == 0) or ends[i-1]+1 (skipping the joining space).
	ends []int

	// dimsOnce guards the lazy per-sentence hashed dimensions behind
	// WindowVecs.
	dimsOnce sync.Once
	// dims holds the hashed dimension of every content token of Joined, in
	// token order (text.ContentDims); dimEnds[i] is the number of tokens in
	// sentences 0..i, so sentence i's dimensions are
	// dims[dimEnds[i-1]:dimEnds[i]].
	dims    []int32
	dimEnds []int
}

// NewSplit segments text once. The result is immutable apart from the lazy
// dimension cache and safe for concurrent use.
func NewSplit(t string) *Split {
	sents := SplitSentences(t)
	if len(sents) == 0 {
		return &Split{}
	}
	sp := &Split{
		Joined: strings.Join(sents, " "),
		ends:   make([]int, len(sents)),
	}
	off := 0
	for i, s := range sents {
		off += len(s)
		sp.ends[i] = off
		off++ // joining space
	}
	return sp
}

// Sentences returns the number of sentences in the document.
func (sp *Split) Sentences() int { return len(sp.ends) }

// start returns the offset of sentence i in Joined.
func (sp *Split) start(i int) int {
	if i == 0 {
		return 0
	}
	return sp.ends[i-1] + 1
}

// Windows returns the sliding windows of `window` sentences as substrings
// of the shared Joined string — output-identical to the retired per-window
// strings.Join, without re-copying each sentence `window` times.
func (sp *Split) Windows(docID string, window int) []Chunk {
	if window <= 0 {
		window = DefaultWindow
	}
	n := len(sp.ends)
	if n == 0 {
		return nil
	}
	if n <= window {
		return []Chunk{{DocID: docID, Seq: 0, Text: sp.Joined}}
	}
	out := make([]Chunk, 0, n-window+1)
	for i := 0; i+window <= n; i++ {
		out = append(out, Chunk{
			DocID: docID,
			Seq:   i,
			Text:  sp.Joined[sp.start(i):sp.ends[i+window-1]],
		})
	}
	return out
}

// hashDims hashes the per-sentence content tokens once.
func (sp *Split) hashDims() {
	sp.dimsOnce.Do(func() {
		sp.dimEnds = make([]int, len(sp.ends))
		for i := range sp.ends {
			sp.dims = text.ContentDims(sp.Joined[sp.start(i):sp.ends[i]], sp.dims)
			sp.dimEnds[i] = len(sp.dims)
		}
	})
}

// WindowVecs returns the sparse embedding of every window of `window`
// sentences, built from a single kernel pass over the document: each window
// sorts a copy of its range of the per-sentence dimensions instead of
// re-tokenizing the overlapping text window-times. Each vector is
// bit-identical to text.SparseEmbed of the matching Windows chunk text
// (tokens never span the sentence-joining space, and SparseEmbedDims is
// insensitive to dimension order).
func (sp *Split) WindowVecs(window int) []text.SparseVector {
	if window <= 0 {
		window = DefaultWindow
	}
	n := len(sp.ends)
	if n == 0 {
		return nil
	}
	sp.hashDims()
	dimStart := func(i int) int {
		if i == 0 {
			return 0
		}
		return sp.dimEnds[i-1]
	}
	// SparseEmbedDims sorts its input in place and never aliases it, so
	// every window sorts a copy in one reused scratch slice.
	var scratch []int32
	embed := func(dims []int32) text.SparseVector {
		scratch = append(scratch[:0], dims...)
		return text.SparseEmbedDims(scratch)
	}
	if n <= window {
		return []text.SparseVector{embed(sp.dims)}
	}
	out := make([]text.SparseVector, 0, n-window+1)
	for i := 0; i+window <= n; i++ {
		out = append(out, embed(sp.dims[dimStart(i):sp.dimEnds[i+window-1]]))
	}
	return out
}
