package strategy

import (
	"context"
	"testing"

	"factcheck/internal/corpus"
	"factcheck/internal/dataset"
	"factcheck/internal/llm"
	"factcheck/internal/rag"
	"factcheck/internal/search"
	"factcheck/internal/world"
)

type fixture struct {
	w  *world.World
	d  *dataset.Dataset
	p  *rag.Pipeline
	m  llm.Model
	fs []*dataset.Fact
}

func setup(t testing.TB) *fixture {
	t.Helper()
	w := world.New(world.SmallConfig())
	d := dataset.Build(w, dataset.FactBench, 0.1)
	gen := corpus.NewGenerator(w)
	eng := search.NewEngine(gen, d)
	return &fixture{
		w: w, d: d,
		p:  rag.New(eng),
		m:  llm.MustNew(llm.Gemma2),
		fs: d.Facts,
	}
}

func TestClaimFor(t *testing.T) {
	fx := setup(t)
	f := fx.fs[0]
	c := ClaimFor(f)
	if c.Key != f.Key() || c.FactID != f.ID || c.Gold != f.Gold {
		t.Error("claim identity fields wrong")
	}
	if c.Sentence == "" || c.SubjectLabel != f.Subject.Label {
		t.Error("claim surface fields wrong")
	}
	if c.Dataset != "FactBench" {
		t.Errorf("claim dataset = %q", c.Dataset)
	}
}

func TestVerdictSemantics(t *testing.T) {
	if True.String() != "true" || False.String() != "false" || Invalid.String() != "invalid" {
		t.Error("verdict names wrong")
	}
	if !True.Bool() || False.Bool() || Invalid.Bool() {
		t.Error("verdict Bool() wrong")
	}
}

func TestDKAVerify(t *testing.T) {
	fx := setup(t)
	ctx := context.Background()
	for _, f := range fx.fs[:30] {
		out, err := DKA{}.Verify(ctx, fx.m, f)
		if err != nil {
			t.Fatal(err)
		}
		if out.Verdict == Invalid {
			t.Errorf("DKA produced invalid verdict on %s", f.ID)
		}
		if out.Method != llm.MethodDKA || out.Model != fx.m.Name() || out.FactID != f.ID {
			t.Error("outcome metadata wrong")
		}
		if out.Attempts != 1 {
			t.Errorf("DKA attempts = %d, want 1", out.Attempts)
		}
		if out.Correct != (out.Verdict.Bool() == f.Gold) {
			t.Error("Correct flag inconsistent")
		}
		if out.Latency <= 0 || out.PromptTokens <= 0 {
			t.Error("resource accounting missing")
		}
	}
}

func TestGIVMethodNaming(t *testing.T) {
	if (GIV{FewShot: false}).Method() != llm.MethodGIVZ {
		t.Error("zero-shot method name wrong")
	}
	if (GIV{FewShot: true}).Method() != llm.MethodGIVF {
		t.Error("few-shot method name wrong")
	}
}

func TestGIVVerifyRePrompting(t *testing.T) {
	fx := setup(t)
	// Llama has the lowest GIV-Z conformance -> some facts need retries.
	m := llm.MustNew(llm.Llama31)
	ctx := context.Background()
	multi, invalid := 0, 0
	for _, f := range fx.fs {
		out, err := GIV{FewShot: false}.Verify(ctx, m, f)
		if err != nil {
			t.Fatal(err)
		}
		if out.Attempts > 1 {
			multi++
		}
		if out.Attempts > 3 {
			t.Errorf("attempts = %d, want <= 3", out.Attempts)
		}
		if out.Verdict == Invalid {
			invalid++
			if out.Attempts != 3 {
				t.Errorf("invalid verdict after %d attempts, want 3", out.Attempts)
			}
		}
	}
	if multi == 0 {
		t.Error("no re-prompting occurred despite low conformance")
	}
	// Invalid responses should be rare but possible.
	if invalid > len(fx.fs)/4 {
		t.Errorf("%d/%d invalid, too many", invalid, len(fx.fs))
	}
}

func TestGIVFewShotCostsMore(t *testing.T) {
	fx := setup(t)
	ctx := context.Background()
	f := fx.fs[0]
	zs, err := GIV{FewShot: false}.Verify(ctx, fx.m, f)
	if err != nil {
		t.Fatal(err)
	}
	few, err := GIV{FewShot: true}.Verify(ctx, fx.m, f)
	if err != nil {
		t.Fatal(err)
	}
	if zs.Attempts == few.Attempts && few.PromptTokens <= zs.PromptTokens {
		t.Error("few-shot prompt not more expensive")
	}
}

func TestRAGVerify(t *testing.T) {
	fx := setup(t)
	ctx := context.Background()
	v := RAG{Pipeline: fx.p}
	out, err := v.Verify(ctx, fx.m, fx.fs[0])
	if err != nil {
		t.Fatal(err)
	}
	if out.Method != llm.MethodRAG {
		t.Error("method wrong")
	}
	if out.EvidenceChunks == 0 {
		t.Error("no evidence chunks recorded")
	}
	// RAG latency includes retrieval: must exceed a DKA call by a margin.
	dka, _ := DKA{}.Verify(ctx, fx.m, fx.fs[0])
	if out.Latency < 3*dka.Latency {
		t.Errorf("RAG latency %.2fs not >> DKA %.2fs", out.Latency.Seconds(), dka.Latency.Seconds())
	}
}

func TestRAGVerifyNilPipeline(t *testing.T) {
	fx := setup(t)
	if _, err := (RAG{}).Verify(context.Background(), fx.m, fx.fs[0]); err == nil {
		t.Error("nil pipeline accepted")
	}
}

func TestRAGBeatsDKAOnFactBench(t *testing.T) {
	fx := setup(t)
	ctx := context.Background()
	ragV := RAG{Pipeline: fx.p}
	dkaCorrect, ragCorrect := 0, 0
	n := len(fx.fs)
	for _, f := range fx.fs {
		od, err := DKA{}.Verify(ctx, fx.m, f)
		if err != nil {
			t.Fatal(err)
		}
		or, err := ragV.Verify(ctx, fx.m, f)
		if err != nil {
			t.Fatal(err)
		}
		if od.Correct {
			dkaCorrect++
		}
		if or.Correct {
			ragCorrect++
		}
	}
	if ragCorrect <= dkaCorrect {
		t.Errorf("RAG correct %d/%d not above DKA %d/%d (paper finding 2)",
			ragCorrect, n, dkaCorrect, n)
	}
}

func TestForMethod(t *testing.T) {
	fx := setup(t)
	for _, m := range llm.AllMethods {
		v, err := ForMethod(m, fx.p)
		if err != nil {
			t.Fatalf("ForMethod(%s): %v", m, err)
		}
		if v.Method() != m {
			t.Errorf("ForMethod(%s).Method() = %s", m, v.Method())
		}
	}
	if _, err := ForMethod(llm.MethodRAG, nil); err == nil {
		t.Error("RAG without pipeline accepted")
	}
	if _, err := ForMethod("bogus", nil); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestOutcomeDeterminism(t *testing.T) {
	fx := setup(t)
	ctx := context.Background()
	f := fx.fs[3]
	a, _ := DKA{}.Verify(ctx, fx.m, f)
	b, _ := DKA{}.Verify(ctx, fx.m, f)
	if a.Verdict != b.Verdict || a.Latency != b.Latency || a.Explanation != b.Explanation {
		t.Error("outcomes not deterministic")
	}
}
