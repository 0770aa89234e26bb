package strategy

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"unique"
	"unsafe"

	"factcheck/internal/dataset"
	"factcheck/internal/llm"
	"factcheck/internal/prompt"
)

// refVerify is verification as it was before the per-fact memo: the claim
// rebuilt by ClaimFor and interned on every call, and the parsed reason
// kept as the outcome's explanation.
func refVerify(ctx context.Context, v Verifier, m llm.Model, f *dataset.Fact) (Outcome, error) {
	c := ClaimFor(f)
	out := Outcome{
		FactID: f.ID, Model: m.Name(), Method: v.Method(), Verdict: Invalid,
		Gold: f.Gold, Claim: unique.Make(c),
	}
	switch v := v.(type) {
	case DKA:
		system, user := prompt.DKA(c)
		resp, err := m.Generate(ctx, llm.Request{System: system, Prompt: user, Claim: c, Method: llm.MethodDKA})
		if err != nil {
			return Outcome{}, err
		}
		out.Attempts = 1
		accumulate(&out, resp)
		if verdict, reason, ok := prompt.ParseFree(resp.Text); ok {
			out.setVerdict(verdict, reason, f.Gold)
		}
	case GIV:
		for attempt := 0; attempt < 3; attempt++ {
			system, user := prompt.GIV(c, v.FewShot, attempt)
			resp, err := m.Generate(ctx, llm.Request{
				System: system, Prompt: user, Claim: c, Method: out.Method,
				FewShot: v.FewShot, Attempt: attempt,
			})
			if err != nil {
				return Outcome{}, err
			}
			out.Attempts++
			accumulate(&out, resp)
			if verdict, reason, ok := prompt.ParseGIV(resp.Text); ok {
				out.setVerdict(verdict, reason, f.Gold)
				break
			}
		}
	case RAG:
		ev, err := v.Pipeline.RetrieveCtx(ctx, f)
		if err != nil {
			return Outcome{}, err
		}
		chunks := ev.ChunkTexts()
		system, user := prompt.RAG(c, chunks)
		resp, err := m.Generate(ctx, llm.Request{System: system, Prompt: user, Claim: c, Method: llm.MethodRAG, Evidence: chunks})
		if err != nil {
			return Outcome{}, err
		}
		out.Attempts = 1
		out.EvidenceChunks = len(chunks)
		accumulate(&out, resp)
		out.Latency += ev.Latency
		if verdict, reason, ok := prompt.ParseFree(resp.Text); ok {
			out.setVerdict(verdict, reason, f.Gold)
		}
	default:
		return Outcome{}, fmt.Errorf("no reference for %T", v)
	}
	return out, nil
}

// TestConcurrentVerifyMatchesReference verifies the same facts with every
// benchmark model under every method at once, each model shared by its
// four methods (run it with -race): each outcome equals the memo-free
// reference, and every outcome of a fact carries the fact's one interned
// claim.
func TestConcurrentVerifyMatchesReference(t *testing.T) {
	fx := setup(t)
	ctx := context.Background()
	facts := fx.fs[:24]
	type job struct {
		v Verifier
		m llm.Model
	}
	var models []llm.Model
	for _, name := range llm.BenchmarkModels {
		models = append(models, llm.MustNew(name))
	}
	var jobs []job
	for _, method := range llm.AllMethods {
		v, err := ForMethod(method, fx.p)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range models {
			jobs = append(jobs, job{v, m})
		}
	}
	got := make([][]Outcome, len(jobs))
	var wg sync.WaitGroup
	for j, jb := range jobs {
		got[j] = make([]Outcome, len(facts))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, f := range facts {
				out, err := jb.v.Verify(ctx, jb.m, f)
				if err != nil {
					t.Error(err)
					return
				}
				got[j][i] = out
			}
		}()
	}
	wg.Wait()
	for j, jb := range jobs {
		for i, f := range facts {
			want, err := refVerify(ctx, jb.v, jb.m, f)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[j][i], want) {
				t.Errorf("%s/%s on %s:\n got %+v\nwant %+v", jb.v.Method(), jb.m.Name(), f.ID, got[j][i], want)
			}
			if got[j][i].Claim != ClaimHandle(f) {
				t.Errorf("%s/%s on %s: outcome does not share the fact's claim handle", jb.v.Method(), jb.m.Name(), f.ID)
			}
		}
	}
}

// chattyModel answers TRUE with a reason it never repeats.
type chattyModel struct{ calls atomic.Int64 }

func (m *chattyModel) Name() string     { return "chatty" }
func (m *chattyModel) ParamsB() float64 { return 1 }
func (m *chattyModel) Generate(context.Context, llm.Request) (llm.Response, error) {
	return llm.Response{Text: fmt.Sprintf("TRUE. Reason number %d.", m.calls.Add(1))}, nil
}

// TestExplanationTableBounded verifies one fact with a model whose every
// reason is new: the fact's table stops at maxExplanations, outcomes past
// the bound keep their own reason, and a repeated reason reads the table's
// copy.
func TestExplanationTableBounded(t *testing.T) {
	fx := setup(t)
	f := fx.fs[0]
	m := &chattyModel{}
	for i := 1; i <= 3*maxExplanations; i++ {
		out, err := DKA{}.Verify(context.Background(), m, f)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("Reason number %d.", i); out.Explanation != want {
			t.Fatalf("call %d: explanation %q, want %q", i, out.Explanation, want)
		}
	}
	memo := memoOf(f)
	if memo.n != maxExplanations {
		t.Fatalf("table holds %d explanations, want the bound %d", memo.n, maxExplanations)
	}
	repeat := fmt.Sprintf("Reason number %d.", 1)
	if got := memo.explanation(repeat); unsafe.StringData(got) != unsafe.StringData(memo.explanations[0]) {
		t.Error("a repeated explanation does not read the table's copy")
	}
}

// BenchmarkVerify measures one verification per method with a warm fact
// memo and, for RAG, warm evidence (report with -benchmem: allocations
// per verification).
func BenchmarkVerify(b *testing.B) {
	fx := setup(b)
	ctx := context.Background()
	for _, method := range llm.AllMethods {
		v, err := ForMethod(method, fx.p)
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range fx.fs {
			if _, err := v.Verify(ctx, fx.m, f); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(string(method), func(b *testing.B) {
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				if _, err := v.Verify(ctx, fx.m, fx.fs[i%len(fx.fs)]); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	}
}
