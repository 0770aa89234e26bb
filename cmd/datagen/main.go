// Command datagen materialises the FactCheck benchmark data to disk:
// the benchmark datasets as N-Triples plus gold labels as JSONL, the
// generated questions, and (optionally) the per-fact document pools —
// the offline artefacts the paper publishes on HuggingFace.
//
// Usage:
//
//	datagen [-out dir] [-scale 0.25] [-small] [-docs] [-maxdocfacts 100]
//	datagen [-scale 0.25] [-small] -stream FILE [-streamdocs 64]
//
// With -stream, datagen instead writes a live-ingestion feed: a JSONL file
// of deterministic out-of-band documents (fact_id, url, host, title, text)
// produced by the corpus generator's Stream namespace — input for
// cmd/factcheck -docs and the factcheckd POST /v1/documents endpoint.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"factcheck/internal/corpus"
	"factcheck/internal/dataset"
	"factcheck/internal/kg"
	"factcheck/internal/question"
	"factcheck/internal/rerank"
	"factcheck/internal/search"
	"factcheck/internal/text"
	"factcheck/internal/verbalize"
	"factcheck/internal/world"
)

type factRecord struct {
	ID         string  `json:"id"`
	Subject    string  `json:"subject"`
	Predicate  string  `json:"predicate"`
	Object     string  `json:"object"`
	Sentence   string  `json:"sentence"`
	Gold       bool    `json:"gold"`
	Corruption string  `json:"corruption,omitempty"`
	Popularity float64 `json:"popularity"`
	Topic      string  `json:"topic"`
}

type questionRecord struct {
	FactID string  `json:"fact_id"`
	Text   string  `json:"text"`
	Score  float64 `json:"score"`
}

type docRecord struct {
	FactID string `json:"fact_id"`
	DocID  string `json:"doc_id"`
	URL    string `json:"url"`
	Host   string `json:"host"`
	Title  string `json:"title"`
	Empty  bool   `json:"empty"`
	Text   string `json:"text,omitempty"`
}

func main() {
	out := flag.String("out", "factcheck-data", "output directory")
	scale := flag.Float64("scale", 0.25, "dataset scale factor")
	small := flag.Bool("small", false, "use the miniature test world")
	docs := flag.Bool("docs", false, "also write document pools (large)")
	maxDocFacts := flag.Int("maxdocfacts", 100, "facts per dataset to write documents for (0 = all)")
	stream := flag.String("stream", "", "write a live-ingestion JSONL feed to FILE instead of the offline artefacts")
	streamDocs := flag.Int("streamdocs", 64, "stream documents per dataset (with -stream)")
	flag.Parse()

	if *stream != "" {
		if err := runStream(*stream, *scale, *small, *streamDocs); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := run(*out, *scale, *small, *docs, *maxDocFacts); err != nil {
		log.Fatal(err)
	}
}

// runStream writes streamDocs live documents per dataset as JSONL. Facts
// are covered round-robin (every fact gets stream index 0 before any fact
// gets index 1), so a small feed still touches many distinct pools. The
// feed is a pure function of (scale, small, streamDocs).
func runStream(path string, scale float64, small bool, streamDocs int) error {
	cfg := world.DefaultConfig()
	if small {
		cfg = world.SmallConfig()
	}
	w := world.New(cfg)
	gen := corpus.NewGenerator(w)
	total := 0
	err := writeStream(path, func(enc *json.Encoder) error {
		for _, name := range dataset.AllNames {
			d := dataset.Build(w, name, scale)
			for j := 0; j < streamDocs; j++ {
				f := d.Facts[j%len(d.Facts)]
				sd := gen.Stream(f, j/len(d.Facts))
				rec := search.IngestDoc{FactID: f.ID, URL: sd.URL, Host: sd.Host, Title: sd.Title, Text: sd.Text}
				if err := enc.Encode(rec); err != nil {
					return err
				}
				total++
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	log.Printf("datagen: wrote %d stream documents to %s", total, path)
	return nil
}

func run(out string, scale float64, small, writeDocs bool, maxDocFacts int) error {
	cfg := world.DefaultConfig()
	if small {
		cfg = world.SmallConfig()
	}
	w := world.New(cfg)
	gen := corpus.NewGenerator(w)
	ranker := rerank.NewQuestionRanker()

	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}

	for _, name := range dataset.AllNames {
		d := dataset.Build(w, name, scale)
		base := strings.ToLower(string(name))
		log.Printf("datagen: %s: %d facts", name, len(d.Facts))

		// N-Triples of the dataset-native encodings.
		var triples []kg.Triple
		for _, f := range d.Facts {
			triples = append(triples, f.Triple)
		}
		if err := writeNT(filepath.Join(out, base+".nt"), triples); err != nil {
			return err
		}

		// Gold labels and metadata as JSONL.
		if err := writeJSONL(filepath.Join(out, base+".jsonl"), len(d.Facts), func(i int) any {
			f := d.Facts[i]
			return factRecord{
				ID:         f.ID,
				Subject:    string(f.Triple.S),
				Predicate:  string(f.Triple.P),
				Object:     string(f.Triple.O.IRI),
				Sentence:   verbalize.Sentence(f),
				Gold:       f.Gold,
				Corruption: string(f.Corruption),
				Popularity: f.Popularity,
				Topic:      f.Topic,
			}
		}); err != nil {
			return err
		}

		// Questions with similarity scores (the RAG dataset's question side).
		qpath := filepath.Join(out, base+"-questions.jsonl")
		if err := writeStream(qpath, func(enc *json.Encoder) error {
			for _, f := range d.Facts {
				sentence := verbalize.Sentence(f)
				qs := question.Generate(f, question.DefaultK)
				texts := make([]string, len(qs))
				for i := range qs {
					texts[i] = qs[i].Text
				}
				for _, r := range ranker.Rank(text.SparseEmbed(sentence), sentence, texts) {
					qs[r.Index].Score = r.Score
				}
				for _, q := range qs {
					if err := enc.Encode(questionRecord{FactID: f.ID, Text: q.Text, Score: q.Score}); err != nil {
						return err
					}
				}
			}
			return nil
		}); err != nil {
			return err
		}

		if writeDocs {
			facts := d.Facts
			if maxDocFacts > 0 && len(facts) > maxDocFacts {
				facts = facts[:maxDocFacts]
			}
			dpath := filepath.Join(out, base+"-documents.jsonl")
			if err := writeStream(dpath, func(enc *json.Encoder) error {
				for _, f := range facts {
					for _, doc := range gen.Docs(f) {
						rec := docRecord{
							FactID: f.ID, DocID: doc.ID, URL: doc.URL,
							Host: doc.Host, Title: doc.Title, Empty: doc.Empty,
						}
						if !doc.Empty {
							rec.Text = gen.Text(f, doc)
						}
						if err := enc.Encode(rec); err != nil {
							return err
						}
					}
				}
				return nil
			}); err != nil {
				return err
			}
		}
	}
	log.Printf("datagen: wrote %s", out)
	return nil
}

func writeNT(path string, triples []kg.Triple) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := kg.WriteNTriples(f, triples); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func writeJSONL(path string, n int, record func(i int) any) error {
	return writeStream(path, func(enc *json.Encoder) error {
		for i := 0; i < n; i++ {
			if err := enc.Encode(record(i)); err != nil {
				return err
			}
		}
		return nil
	})
}

func writeStream(path string, fill func(*json.Encoder) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	if err := fill(enc); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
