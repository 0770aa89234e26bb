package chunk

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestSplitSentences(t *testing.T) {
	tests := []struct {
		in   string
		want int
	}{
		{"One. Two. Three.", 3},
		{"A question? An exclamation! A statement.", 3},
		{"No terminator at end", 1},
		{"", 0},
		{"   ", 0},
		{"Trailing fragment. tail", 2},
	}
	for _, tc := range tests {
		if got := splitSentences(tc.in); len(got) != tc.want {
			t.Errorf("splitSentences(%q) = %d sentences (%v), want %d", tc.in, len(got), got, tc.want)
		}
		if got := NewSplit(tc.in).Sentences(); got != tc.want {
			t.Errorf("NewSplit(%q).Sentences() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestSlidingBasic(t *testing.T) {
	text := "S1. S2. S3. S4. S5."
	chunks := Sliding("doc1", text, 3)
	if len(chunks) != 3 { // 5 - 3 + 1
		t.Fatalf("got %d chunks, want 3", len(chunks))
	}
	if chunks[0].Text != "S1. S2. S3." {
		t.Errorf("chunk 0 = %q", chunks[0].Text)
	}
	if chunks[2].Text != "S3. S4. S5." {
		t.Errorf("chunk 2 = %q", chunks[2].Text)
	}
	for i, c := range chunks {
		if c.Seq != i || c.DocID != "doc1" {
			t.Errorf("chunk %d metadata wrong: %+v", i, c)
		}
	}
}

func TestSlidingOverlapInvariant(t *testing.T) {
	text := "A1. B2. C3. D4. E5. F6."
	chunks := Sliding("d", text, 3)
	// Consecutive chunks share window-1 sentences.
	for i := 1; i < len(chunks); i++ {
		prev := splitSentences(chunks[i-1].Text)
		cur := splitSentences(chunks[i].Text)
		if len(prev) != 3 || len(cur) != 3 {
			t.Fatalf("window size violated: %d/%d", len(prev), len(cur))
		}
		if prev[1] != cur[0] || prev[2] != cur[1] {
			t.Fatalf("overlap broken between chunk %d and %d", i-1, i)
		}
	}
}

func TestSlidingShortDocument(t *testing.T) {
	chunks := Sliding("d", "Only one sentence.", 3)
	if len(chunks) != 1 {
		t.Fatalf("got %d chunks, want 1", len(chunks))
	}
	if chunks[0].Text != "Only one sentence." {
		t.Errorf("chunk = %q", chunks[0].Text)
	}
}

func TestSlidingEmpty(t *testing.T) {
	if got := Sliding("d", "", 3); got != nil {
		t.Errorf("Sliding empty = %v, want nil", got)
	}
}

func TestSlidingDefaultWindow(t *testing.T) {
	text := "A. B. C. D."
	if got := Sliding("d", text, 0); len(got) != 2 { // window defaults to 3
		t.Errorf("default window chunks = %d, want 2", len(got))
	}
}

func TestSlidingCoverageProperty(t *testing.T) {
	// Every sentence of the input appears in at least one chunk.
	f := func(n uint8) bool {
		count := int(n%20) + 1
		var b strings.Builder
		for i := 0; i < count; i++ {
			b.WriteString("Sentence")
			b.WriteString(string(rune('A' + i%26)))
			b.WriteString(". ")
		}
		sents := splitSentences(b.String())
		chunks := Sliding("d", b.String(), 3)
		joined := ""
		for _, c := range chunks {
			joined += c.Text + " "
		}
		for _, s := range sents {
			if !strings.Contains(joined, s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSlidingChunkCountProperty(t *testing.T) {
	// For n >= window: chunks == n - window + 1; else 1 (n > 0).
	f := func(n uint8, w uint8) bool {
		count := int(n%30) + 1
		window := int(w%5) + 1
		var b strings.Builder
		for i := 0; i < count; i++ {
			b.WriteString("S. ")
		}
		chunks := Sliding("d", b.String(), window)
		if count <= window {
			return len(chunks) == 1
		}
		return len(chunks) == count-window+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
