// Quickstart: verify a handful of KG facts with one simulated LLM using the
// benchmark's simplest strategy (Direct Knowledge Assessment), then show the
// structured prompting variants side by side.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"factcheck/internal/core"
	"factcheck/internal/dataset"
	"factcheck/internal/llm"
	"factcheck/internal/strategy"
)

func main() {
	// A small benchmark instance: synthetic world, three datasets, corpus,
	// search engine and RAG pipeline, all wired.
	b := core.NewBenchmark(core.Config{Scale: 0.05, Small: true})
	model, err := b.Model(llm.Gemma2)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	fmt.Println("== FactCheck quickstart: verifying 8 FactBench facts with", model.Name(), "==")
	facts := b.Datasets[dataset.FactBench].Facts[:8]
	for _, f := range facts {
		out, err := strategy.DKA{}.Verify(ctx, model, f)
		if err != nil {
			log.Fatal(err)
		}
		mark := "✗"
		if out.Correct {
			mark = "✓"
		}
		fmt.Printf("%s [gold=%-5v verdict=%-7s %5.0fms] %s\n",
			mark, f.Gold, out.Verdict, out.Latency.Seconds()*1000, strategy.ClaimFor(f).Sentence)
		fmt.Printf("   reason: %s\n", out.Explanation)
	}

	// Compare the three internal-knowledge strategies on one fact.
	f := facts[0]
	fmt.Printf("\n== Strategy comparison on %q ==\n", strategy.ClaimFor(f).Sentence)
	for _, method := range []llm.Method{llm.MethodDKA, llm.MethodGIVZ, llm.MethodGIVF} {
		v, err := b.Verifier(method)
		if err != nil {
			log.Fatal(err)
		}
		out, err := v.Verify(ctx, model, f)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6s verdict=%-7s attempts=%d prompt=%4d tokens latency=%4.0fms\n",
			method, out.Verdict, out.Attempts, out.PromptTokens, out.Latency.Seconds()*1000)
	}
}
