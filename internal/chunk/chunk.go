// Package chunk implements phase 4b of the RAG pipeline: segmenting
// documents into smaller overlapping passages with a sliding-window
// strategy (paper §3.2 / Table 4, "Sliding Window (size = 3)"). Windows are
// measured in sentences, sliding one sentence at a time, so consecutive
// chunks overlap by size-1 sentences. A document is segmented once
// (NewSplit), and its chunks are substrings of one string: for the
// corpus's generated bodies, of the body itself.
package chunk

import (
	"strings"
	"unicode"
	"unicode/utf8"
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
}

// NewSplit segments text once: a sentence is each span ending at '.', '!'
// or '?', and the tail after the last one, trimmed of Unicode white space;
// empty ones are dropped. It is deliberately simple: the synthetic corpus
// never contains abbreviations with internal periods. Invalid UTF-8 first
// has each bad byte replaced with U+FFFD. When the sentences are
// separated by exactly one space, as in every generated document body,
// Joined is a substring of the text; otherwise the sentences are joined
// once. The result is immutable and safe for concurrent use.
func NewSplit(t string) *Split {
	if !utf8.ValidString(t) {
		t = string([]rune(t))
	}
	var buf [32]int
	spans := buf[:0] // the start and end of each sentence in t
	for start := 0; start < len(t); {
		end := start + strings.IndexAny(t[start:], ".!?") + 1
		if end == start {
			end = len(t)
		}
		a := end - len(strings.TrimLeftFunc(t[start:end], unicode.IsSpace))
		if b := a + len(strings.TrimRightFunc(t[a:end], unicode.IsSpace)); a < b {
			spans = append(spans, a, b)
		}
		start = end
	}
	if len(spans) == 0 {
		return &Split{}
	}
	sp := &Split{ends: make([]int, len(spans)/2)}
	off, gapless := -1, true
	for i := 0; i < len(spans); i += 2 {
		off += 1 + spans[i+1] - spans[i]
		sp.ends[i/2] = off
		gapless = gapless && (i == 0 || spans[i] == spans[i-1]+1 && t[spans[i-1]] == ' ')
	}
	if gapless {
		sp.Joined = t[spans[0]:spans[len(spans)-1]]
		return sp
	}
	j := make([]byte, 0, off+1)
	for i := 0; i < len(spans); i += 2 {
		j = append(append(j, t[spans[i]:spans[i+1]]...), ' ')
	}
	sp.Joined = string(j[:off])
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
