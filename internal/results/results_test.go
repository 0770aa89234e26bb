package results

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
	"unique"

	"factcheck/internal/dataset"
	"factcheck/internal/llm"
	"factcheck/internal/rag"
	"factcheck/internal/strategy"
	"factcheck/internal/world"
)

// testOutcomes returns a small fixed outcome slice exercising every
// encoded field, including non-ASCII text and zero values.
func testOutcomes() []strategy.Outcome {
	return []strategy.Outcome{
		{
			FactID:           "factbench-000017",
			Model:            "gemma2:9b",
			Method:           llm.MethodRAG,
			Verdict:          strategy.True,
			Gold:             true,
			Correct:          true,
			Latency:          1234567 * time.Microsecond,
			PromptTokens:     812,
			CompletionTokens: 64,
			Attempts:         1,
			Explanation:      "evidence supports the claim — café documents agree",
			EvidenceChunks:   7,
			Claim: unique.Make(llm.Claim{
				Key:          "person-12|birthPlace|city-3",
				FactID:       "factbench-000017",
				Dataset:      "FactBench",
				Gold:         true,
				Popularity:   0.73125,
				Category:     "geo",
				Topic:        "people",
				Sentence:     "Ada Example was born in Sampleville.",
				SubjectLabel: "Ada Example",
				ObjectLabel:  "Sampleville",
				Phrase:       "was born in",
			}),
		},
		{
			FactID:  "yago-000002",
			Model:   "mistral:7b",
			Method:  llm.MethodGIVZ,
			Verdict: strategy.Invalid,
			Gold:    false,
		},
	}
}

func testKey() Key {
	return Key{
		World:   world.SmallConfig(),
		Scale:   0.05,
		RAG:     rag.DefaultConfig(),
		Dataset: dataset.FactBench,
		Method:  llm.MethodDKA,
		Model:   "gemma2:9b",
	}
}

func TestCodecRoundTrip(t *testing.T) {
	fp := testKey().Fingerprint()
	outs := testOutcomes()
	data := Encode(fp, outs)
	gotFP, gotOuts, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if gotFP != fp {
		t.Errorf("fingerprint = %s, want %s", gotFP, fp)
	}
	if !reflect.DeepEqual(gotOuts, outs) {
		t.Errorf("decoded outcomes differ:\n got %+v\nwant %+v", gotOuts, outs)
	}
	// Empty snapshots round-trip too.
	gotFP, gotOuts, err = Decode(Encode(42, nil))
	if err != nil || gotFP != 42 || len(gotOuts) != 0 {
		t.Errorf("empty snapshot: fp=%v outs=%v err=%v", gotFP, gotOuts, err)
	}
}

// TestCodecClaimRoundTrip pins the interned claim through the codec: the
// zero handle reads back as the zero handle, a claim whose only non-zero
// field is a negative-zero or NaN popularity reads back as a claim with
// those exact bits, and equal claims read back as one handle.
func TestCodecClaimRoundTrip(t *testing.T) {
	claims := []unique.Handle[llm.Claim]{
		{},
		unique.Make(llm.Claim{Popularity: math.Copysign(0, -1)}),
		unique.Make(llm.Claim{Popularity: math.NaN()}),
		unique.Make(llm.Claim{Key: "k", Popularity: math.NaN()}),
		testOutcomes()[0].Claim,
	}
	outs := make([]strategy.Outcome, len(claims))
	for i, c := range claims {
		outs[i] = strategy.Outcome{FactID: fmt.Sprint("f-", i), Claim: c}
	}
	data := Encode(7, outs)
	_, got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(Encode(7, got), data) {
		t.Fatal("re-encoding the decoded outcomes changed the bytes")
	}
	if got[0].Claim != (unique.Handle[llm.Claim]{}) {
		t.Errorf("zero claim decoded as %+v, want the zero handle", got[0].Claim.Value())
	}
	for i := 1; i < len(claims); i++ {
		g, w := got[i].Claim.Value(), claims[i].Value()
		if math.Float64bits(g.Popularity) != math.Float64bits(w.Popularity) {
			t.Errorf("claim %d: popularity bits %x, want %x", i, math.Float64bits(g.Popularity), math.Float64bits(w.Popularity))
		}
		g.Popularity, w.Popularity = 0, 0
		if g != w {
			t.Errorf("claim %d: decoded %+v, want %+v", i, g, w)
		}
	}
	if got[4].Claim != claims[4] {
		t.Error("decoded claim is not the interned handle of an equal claim")
	}
}

// cellOutcomes returns n outcomes shaped like a grid cell's, cycling
// through empty strings, non-ASCII text and zero-claim outcomes.
func cellOutcomes(n int) []strategy.Outcome {
	outs := make([]strategy.Outcome, n)
	for i := range outs {
		o := &outs[i]
		o.FactID = fmt.Sprintf("dbpedia-%06d", i)
		o.Model = "qwen2.5:7b"
		o.Method = llm.MethodGIVF
		o.Verdict = strategy.Verdict(i % 3)
		o.Latency = time.Duration(i) * time.Millisecond
		o.PromptTokens, o.CompletionTokens, o.Attempts = 900+i, 40, 1+i%3
		switch i % 4 {
		case 0:
			o.Explanation = "Zoë Ångström is associated with a different team than 東京 FC."
		case 1:
			o.Explanation = "This is consistent with the recorded facts for Ada Example."
		}
		if i%5 != 0 {
			o.Claim = unique.Make(llm.Claim{
				Key:          fmt.Sprintf("Person_%d|memberOf|Band_%d", i, i%7),
				FactID:       o.FactID,
				Dataset:      "DBpedia",
				Popularity:   float64(i%10) / 10,
				Category:     "role",
				Sentence:     fmt.Sprintf("Person %d is a member of Bänd %d.", i, i%7),
				SubjectLabel: fmt.Sprintf("Person %d", i),
				ObjectLabel:  fmt.Sprintf("Bänd %d", i%7),
				Phrase:       "is a member of",
			})
		}
	}
	return outs
}

// TestEncodeExactSize pins Encode to one allocation of exactly the
// snapshot's size, and its bytes to those of an encoder that grows its
// buffer by appending, over empty, one-outcome and cell-sized snapshots.
func TestEncodeExactSize(t *testing.T) {
	for _, outs := range [][]strategy.Outcome{nil, {{}}, testOutcomes(), cellOutcomes(500)} {
		data := Encode(99, outs)
		if len(data) != cap(data) {
			t.Errorf("%d outcomes: len %d != cap %d", len(outs), len(data), cap(data))
		}
		ref := &encoder{}
		ref.raw([]byte(codecMagic))
		ref.u8(codecVersion)
		ref.u64(99)
		ref.u64(uint64(len(outs)))
		for i := range outs {
			encodeOutcome(ref, &outs[i])
		}
		ref.u64(checksum(ref.buf))
		if !bytes.Equal(data, ref.buf) {
			t.Errorf("%d outcomes: Encode differs from the appending encoder", len(outs))
		}
		if allocs := testing.AllocsPerRun(20, func() { Encode(99, outs) }); allocs != 1 {
			t.Errorf("%d outcomes: Encode made %v allocations, want 1", len(outs), allocs)
		}
	}
}

// BenchmarkEncode encodes one cell-sized snapshot (report with -benchmem:
// one allocation per snapshot).
func BenchmarkEncode(b *testing.B) {
	outs := cellOutcomes(2800)
	b.SetBytes(int64(len(Encode(1, outs))))
	b.ReportAllocs()
	for b.Loop() {
		Encode(1, outs)
	}
}

func TestCodecDeterministic(t *testing.T) {
	fp := testKey().Fingerprint()
	a := Encode(fp, testOutcomes())
	b := Encode(fp, testOutcomes())
	if !bytes.Equal(a, b) {
		t.Fatal("Encode is not deterministic")
	}
}

// TestCodecGolden pins the exact wire image of a one-outcome snapshot: any
// codec change that alters bytes must bump codecVersion (old snapshots are
// then rejected and recomputed) and update this golden.
func TestCodecGolden(t *testing.T) {
	outs := []strategy.Outcome{{
		FactID:  "f-1",
		Model:   "m",
		Method:  llm.MethodDKA,
		Verdict: strategy.False,
		Gold:    true,
		Latency: 5 * time.Millisecond,
		Claim:   unique.Make(llm.Claim{Key: "k", Popularity: 0.5}),
	}}
	got := hex.EncodeToString(Encode(Fingerprint(0xdeadbeef12345678), outs))
	const want = "4643525301deadbeef123456780000000000000001000000000000000366" +
		"2d3100000000000000016d0000000000000003444b410201000000000000" +
		"4c4b40000000000000000000000000000000000000000000000000000000" +
		"0000000000000000000000000000000000000000016b0000000000000000" +
		"0000000000000000003fe000000000000000000000000000000000000000" +
		"000000000000000000000000000000000000000000000000000000000000" +
		"000000000003fda1d2f39a8038"
	if got != want {
		t.Fatalf("golden mismatch:\n got %s\nwant %s", got, want)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	data := Encode(testKey().Fingerprint(), testOutcomes())
	for _, n := range []int{0, 3, 4, 5, 12, 20, len(data) / 2, len(data) - 1} {
		if _, _, err := Decode(data[:n]); !errors.Is(err, ErrSnapshot) {
			t.Errorf("Decode(data[:%d]) err = %v, want ErrSnapshot", n, err)
		}
	}
	// Trailing garbage is rejected too (the checksum catches appended
	// bytes; a re-checksummed extension trips the exact-length check).
	if _, _, err := Decode(append(append([]byte{}, data...), 0)); !errors.Is(err, ErrSnapshot) {
		t.Errorf("trailing byte accepted: %v", err)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	data := Encode(testKey().Fingerprint(), testOutcomes())
	for _, pos := range []int{0, 4, 5, 13, 30, len(data) / 2, len(data) - 1} {
		bad := append([]byte{}, data...)
		bad[pos] ^= 0x40
		if _, _, err := Decode(bad); !errors.Is(err, ErrSnapshot) {
			t.Errorf("flip at %d accepted: %v", pos, err)
		}
	}
}

func TestDecodeRejectsInflatedCount(t *testing.T) {
	// A crafted snapshot with a huge outcome count and a valid checksum
	// (FNV is not cryptographic) must be rejected by the structural bound
	// before the outcome table is allocated, not by an OOM.
	data := Encode(1, nil)
	body := append([]byte{}, data[:len(data)-8]...)
	binary.BigEndian.PutUint64(body[13:21], 1<<40) // count field
	e := &encoder{buf: body}
	e.u64(checksum(body))
	if _, _, err := Decode(e.buf); !errors.Is(err, errTruncated) {
		t.Errorf("inflated count accepted: %v", err)
	}
}

func TestDecodeRejectsForeignVersion(t *testing.T) {
	data := Encode(1, nil)
	body := append([]byte{}, data[:len(data)-8]...)
	body[4] = codecVersion + 1
	e := &encoder{buf: body}
	e.u64(checksum(body)) // valid checksum: only the version is foreign
	if _, _, err := Decode(e.buf); !errors.Is(err, errVersion) {
		t.Errorf("foreign version accepted: %v", err)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := testKey()
	fps := map[Fingerprint]string{base.Fingerprint(): "base"}
	mutate := []struct {
		name string
		mut  func(*Key)
	}{
		{"scale", func(k *Key) { k.Scale = 0.1 }},
		{"world seed", func(k *Key) { k.World.Seed = "other" }},
		{"world persons", func(k *Key) { k.World.Persons++ }},
		{"rag tau", func(k *Key) { k.RAG.Tau = 0.7 }},
		{"rag filter", func(k *Key) { k.RAG.FilterSKG = !k.RAG.FilterSKG }},
		{"dataset", func(k *Key) { k.Dataset = dataset.YAGO }},
		{"method", func(k *Key) { k.Method = llm.MethodRAG }},
		{"model", func(k *Key) { k.Model = "mistral:7b" }},
	}
	for _, m := range mutate {
		k := base
		m.mut(&k)
		fp := k.Fingerprint()
		if prev, dup := fps[fp]; dup {
			t.Errorf("mutating %s collides with %s", m.name, prev)
		}
		fps[fp] = m.name
	}
	// Identical keys agree.
	if testKey().Fingerprint() != base.Fingerprint() {
		t.Error("equal keys produced different fingerprints")
	}
}

func TestStorePersistsAndReloads(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fp := testKey().Fingerprint()
	outs := testOutcomes()
	if err := s.Put(fp, outs); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(fp); !ok || !reflect.DeepEqual(got, outs) {
		t.Fatal("Get after Put failed")
	}
	// A fresh Open (new process) sees the snapshot.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Fatalf("reloaded store has %d cells, want 1", s2.Len())
	}
	got, ok := s2.Get(fp)
	if !ok || !reflect.DeepEqual(got, outs) {
		t.Fatal("reloaded outcomes differ")
	}
	if _, ok := s2.Get(fp + 1); ok {
		t.Error("foreign fingerprint resolved")
	}
}

func TestStoreSkipsCorruptAndMisnamedSnapshots(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fp := testKey().Fingerprint()
	if err := s.Put(fp, testOutcomes()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fp.String()+cellExt)

	// Truncate the snapshot: the cell must load as missing.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(fp); ok || s2.Len() != 0 {
		t.Error("truncated snapshot was loaded")
	}

	// Restore the bytes under a wrong name (fingerprint mismatch): the
	// embedded fingerprint no longer matches the file stem, so the
	// snapshot must be rejected rather than served under either address.
	other := Fingerprint(uint64(fp) ^ 0xffff)
	if err := os.WriteFile(filepath.Join(dir, other.String()+cellExt), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s3.Get(other); ok {
		t.Error("misnamed snapshot served under its file-name address")
	}
	if _, ok := s3.Get(fp); ok {
		t.Error("misnamed snapshot served under its embedded address")
	}

	// A stale temp file (killed mid-Put before rename) is ignored and
	// reaped; a fresh one — another process mid-Put — is left alone.
	stale := filepath.Join(dir, "put-123.tmp")
	if err := os.WriteFile(stale, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * staleTempAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(dir, "put-456.tmp")
	if err := os.WriteFile(fresh, []byte("inflight"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err != nil {
		t.Errorf("temp files broke Open: %v", err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp file survived Open")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Error("in-flight temp file was reaped")
	}
}

func TestMemoryStoreWritesNothing(t *testing.T) {
	s := NewMemory()
	if err := s.Put(7, testOutcomes()); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(7); !ok || len(got) != 2 {
		t.Fatal("memory store lost the cell")
	}
	if s.Dir() != "" {
		t.Error("memory store has a dir")
	}
	// Open("") is the documented memory-only mode.
	s2, err := Open("")
	if err != nil || s2.Dir() != "" {
		t.Errorf("Open(\"\") = %v, %v", s2, err)
	}
}

// FuzzResultsDecode feeds Decode mutated snapshot bodies under a freshly
// computed checksum, so inputs get past the checksum to the record
// decoder. Decoding must never panic, and an accepted snapshot must
// re-encode to bytes that decode and re-encode to the same bytes. Bytes
// are compared, not values: a decoded Popularity can be NaN.
func FuzzResultsDecode(f *testing.F) {
	for _, outs := range [][]strategy.Outcome{nil, testOutcomes(), testOutcomes()[1:]} {
		data := Encode(testKey().Fingerprint(), outs)
		f.Add(data[:len(data)-8])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		e := &encoder{buf: append([]byte{}, body...)}
		e.u64(checksum(body))
		fp, outs, err := Decode(e.buf)
		if err != nil {
			if !errors.Is(err, ErrSnapshot) {
				t.Fatalf("Decode error %v does not wrap ErrSnapshot", err)
			}
			return
		}
		once := Encode(fp, outs)
		fp2, outs2, err := Decode(once)
		if err != nil {
			t.Fatalf("re-encoded snapshot rejected: %v", err)
		}
		if twice := Encode(fp2, outs2); !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding is not stable:\n%x\n%x", once, twice)
		}
	})
}
