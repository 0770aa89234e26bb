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
	"unsafe"

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
			Verdict:          strategy.True,
			Gold:             true,
			Correct:          true,
			Latency:          1234567 * time.Microsecond,
			PromptTokens:     812,
			CompletionTokens: 64,
			Attempts:         1,
			Explanation:      "evidence supports the claim — café documents agree",
			EvidenceChunks:   7,
		},
		{
			FactID:  "yago-000002",
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

// cellOutcomes returns n outcomes shaped like a grid cell's, cycling
// through empty and non-ASCII explanations.
func cellOutcomes(n int) []strategy.Outcome {
	outs := make([]strategy.Outcome, n)
	for i := range outs {
		o := &outs[i]
		o.FactID = fmt.Sprintf("dbpedia-%06d", i)
		o.Verdict = strategy.Verdict(i % 3)
		o.Latency = time.Duration(i) * time.Millisecond
		o.PromptTokens, o.CompletionTokens, o.Attempts = 900+i, 40, 1+i%3
		switch i % 4 {
		case 0:
			o.Explanation = "Zoë Ångström is associated with a different team than 東京 FC."
		case 1:
			o.Explanation = "This is consistent with the recorded facts for Ada Example."
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
		ref.buf = binary.BigEndian.AppendUint32(ref.buf, checksum(ref.buf))
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

// goldenOutcomes is the one-outcome snapshot TestCodecGolden pins.
func goldenOutcomes() []strategy.Outcome {
	return []strategy.Outcome{{
		FactID:  "f-1",
		Verdict: strategy.False,
		Gold:    true,
		Latency: 5 * time.Millisecond,
	}}
}

// goldenFP is the fingerprint of the golden snapshots.
const goldenFP = Fingerprint(0xdeadbeef12345678)

// TestCodecGolden pins the exact wire image of a one-outcome snapshot: any
// codec change that alters bytes must bump codecVersion (old snapshots are
// then rejected and recomputed) and update this golden.
func TestCodecGolden(t *testing.T) {
	got := hex.EncodeToString(Encode(goldenFP, goldenOutcomes()))
	const want = "4643525303deadbeef12345678000000000000000100000003662d310201" +
		"0000000000004c4b40000000000000000000000000000000000000000000" +
		"00000000000000000000009300312c"
	if got != want {
		t.Fatalf("golden mismatch:\n got %s\nwant %s", got, want)
	}
}

// v2Golden is the version-2 image of goldenOutcomes, whose outcome also
// carried model "m" and method DKA: both strings followed the fact ID,
// and the chunk count was an int64.
const v2Golden = "4643525302deadbeef12345678000000000000000100000003662d310000" +
	"00016d00000003444b4102010000000000004c4b40000000000000000000" +
	"0000000000000000000000000000000000000000000000000000003dad20" +
	"9c"

// v1Golden is the version-1 image of goldenOutcomes, whose outcome also
// carried the claim {Key: "k", Popularity: 0.5}: the claim's strings, gold
// flag and popularity followed each outcome, and a 64-bit FNV-1a closed
// the snapshot.
const v1Golden = "4643525301deadbeef123456780000000000000001000000000000000366" +
	"2d3100000000000000016d0000000000000003444b410201000000000000" +
	"4c4b40000000000000000000000000000000000000000000000000000000" +
	"0000000000000000000000000000000000000000016b0000000000000000" +
	"0000000000000000003fe000000000000000000000000000000000000000" +
	"000000000000000000000000000000000000000000000000000000000000" +
	"000000000003fda1d2f39a8038"

// TestV1SnapshotRejected checks that a version-1 snapshot is a foreign
// version: Decode rejects it, and Open skips the file, so the cell counts
// as missing and is recomputed.
func TestV1SnapshotRejected(t *testing.T) { checkForeignSnapshot(t, v1Golden) }

// TestV2SnapshotRejected is TestV1SnapshotRejected for a version-2 image,
// whose outcomes hold the same values as version 3's in a different
// layout: Open must recompute the cell, not misread it.
func TestV2SnapshotRejected(t *testing.T) { checkForeignSnapshot(t, v2Golden) }

// checkForeignSnapshot checks that the hex snapshot image of goldenFP's
// cell is rejected as a foreign version by Decode, skipped by Open, and
// replaced by the recomputed cell's Put.
func checkForeignSnapshot(t *testing.T, image string) {
	t.Helper()
	data, err := hex.DecodeString(image)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decode(data); !errors.Is(err, errVersion) {
		t.Fatalf("version-%d snapshot: err = %v, want errVersion", data[4], err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, goldenFP.String()+cellExt), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(goldenFP); ok || s.Len() != 0 {
		t.Fatalf("version-%d snapshot was loaded", data[4])
	}
	if err := s.Put(goldenFP, goldenOutcomes()); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get(goldenFP); !ok || !reflect.DeepEqual(got, goldenOutcomes()) {
		t.Fatalf("the recomputed cell did not replace the version-%d snapshot", data[4])
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
	// (CRC-32C is not cryptographic) must be rejected by the structural
	// bound before the outcome table is allocated, not by an OOM.
	data := Encode(1, nil)
	body := append([]byte{}, data[:len(data)-checkLen]...)
	binary.BigEndian.PutUint64(body[13:21], 1<<40) // count field
	if _, _, err := Decode(withChecksum(body)); !errors.Is(err, errTruncated) {
		t.Errorf("inflated count accepted: %v", err)
	}
	// minEncodedOutcome is exactly an empty outcome's size, so the bound
	// is tight: a payload of three empty outcomes claiming four is
	// refused before decoding.
	empty := make([]strategy.Outcome, 3)
	data = Encode(1, empty)
	if n := len(data) - headerLen - checkLen; n != len(empty)*minEncodedOutcome {
		t.Fatalf("%d empty outcomes encode to %d bytes, want %d", len(empty), n, len(empty)*minEncodedOutcome)
	}
	body = append([]byte{}, data[:len(data)-checkLen]...)
	binary.BigEndian.PutUint64(body[13:21], uint64(len(empty)+1))
	if _, _, err := Decode(withChecksum(body)); !errors.Is(err, errTruncated) {
		t.Errorf("count one above the payload accepted: %v", err)
	}
}

func TestDecodeRejectsForeignVersion(t *testing.T) {
	data := Encode(1, nil)
	body := append([]byte{}, data[:len(data)-checkLen]...)
	body[4] = codecVersion + 1
	// A valid checksum: only the version is foreign.
	if _, _, err := Decode(withChecksum(body)); !errors.Is(err, errVersion) {
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

// TestOpenSharesStrings checks that the cells one Open loads share their
// repeated strings.
func TestOpenSharesStrings(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := testOutcomes()
	b := testOutcomes()
	for i := range b {
		b[i].Latency++
	}
	fpA, fpB := Fingerprint(1), Fingerprint(2)
	for fp, outs := range map[Fingerprint][]strategy.Outcome{fpA: a, fpB: b} {
		if err := s.Put(fp, outs); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	gotA, _ := s2.Get(fpA)
	gotB, _ := s2.Get(fpB)
	if !reflect.DeepEqual(gotA, a) || !reflect.DeepEqual(gotB, b) {
		t.Fatal("reloaded outcomes differ")
	}
	same := func(what, x, y string) {
		if unsafe.StringData(x) != unsafe.StringData(y) {
			t.Errorf("%s %q is not shared across cells", what, x)
		}
	}
	same("fact ID", gotA[0].FactID, gotB[0].FactID)
	same("explanation", gotA[0].Explanation, gotB[0].Explanation)
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

// withChecksum returns body followed by its checksum.
func withChecksum(body []byte) []byte {
	return binary.BigEndian.AppendUint32(append([]byte{}, body...), checksum(body))
}

// FuzzResultsDecode feeds Decode mutated snapshot bodies under a freshly
// computed checksum, so inputs get past the checksum to the record
// decoder. Decoding must never panic, and an accepted snapshot must
// re-encode to bytes that decode and re-encode to the same bytes. The
// seeds are v3 images without their checksum, among them one whose chunk
// counts fill all 32 bits, and the v2 golden body.
func FuzzResultsDecode(f *testing.F) {
	wide := testOutcomes()
	wide[0].EvidenceChunks, wide[1].EvidenceChunks = math.MaxInt32, -1
	for _, outs := range [][]strategy.Outcome{nil, testOutcomes(), testOutcomes()[1:], goldenOutcomes(), cellOutcomes(8), wide} {
		data := Encode(testKey().Fingerprint(), outs)
		f.Add(data[:len(data)-checkLen])
	}
	v2, err := hex.DecodeString(v2Golden)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v2[:len(v2)-checkLen])
	f.Fuzz(func(t *testing.T, body []byte) {
		fp, outs, err := Decode(withChecksum(body))
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
