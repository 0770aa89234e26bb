package results

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"time"
	"unique"

	"factcheck/internal/llm"
	"factcheck/internal/strategy"
)

// Snapshot wire format (all integers big-endian):
//
//	magic   "FCRS"                     4 bytes
//	version uint8                      1 byte
//	fp      uint64                     cell fingerprint
//	count   uint64                     number of outcomes
//	count × outcome                    see encodeOutcome
//	check   uint64                     FNV-1a over everything above
//
// Strings are uint64 length + UTF-8 bytes; booleans one byte (0/1);
// float64s are IEEE-754 bit patterns. The encoding has no map iteration,
// no pointers and no reflection, so equal inputs yield equal bytes —
// which keeps snapshots diffable and lets tests pin golden images.
const (
	codecMagic   = "FCRS"
	codecVersion = 1

	// minEncodedOutcome is the size of an outcome with every string empty:
	// 13 string lengths (8 bytes each) + 1 verdict byte + 3 booleans +
	// 5 int64s + 1 float64. encodeOutcome can never produce fewer bytes.
	minEncodedOutcome = 13*8 + 1 + 3 + 5*8 + 8
)

// Decode errors. ErrSnapshot is the common base; errors.Is works against
// it for any decode failure.
var (
	ErrSnapshot  = errors.New("results: invalid snapshot")
	errMagic     = fmt.Errorf("%w: bad magic", ErrSnapshot)
	errVersion   = fmt.Errorf("%w: unsupported version", ErrSnapshot)
	errTruncated = fmt.Errorf("%w: truncated", ErrSnapshot)
	errChecksum  = fmt.Errorf("%w: checksum mismatch", ErrSnapshot)
	errTrailing  = fmt.Errorf("%w: trailing bytes", ErrSnapshot)
)

type encoder struct{ buf []byte }

func (e *encoder) raw(b []byte)  { e.buf = append(e.buf, b...) }
func (e *encoder) u8(v uint8)    { e.buf = append(e.buf, v) }
func (e *encoder) u64(v uint64)  { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }
func (e *encoder) i64(v int64)   { e.u64(uint64(v)) }
func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *encoder) str(s string) {
	e.u64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}
func (e *encoder) boolean(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

type decoder struct {
	buf []byte
	pos int
	tab *table
}

// table shares strings and claims among the outcomes decoded through it:
// a cell's model and method repeat in every outcome, and a dataset's fact
// IDs, explanations and claims repeat across its cells. Open decodes every
// snapshot of a store through one table, so the loaded cells hold one copy
// of each, as the cells Run computes do.
type table struct {
	strs map[string]string
	// rows holds, per outcome count, the outcomes of the last snapshot
	// decoded with that count. The cells of one dataset list the same
	// facts in the same order, so outcome i is first compared with row i
	// of the previous such cell: that skips the string lookups and reuses
	// the row's claim without building its strings again.
	rows map[uint64][]strategy.Outcome
}

func newTable() *table {
	return &table{strs: map[string]string{}, rows: map[uint64][]strategy.Outcome{}}
}

// str returns a string equal to b: hint when it is, else the table's,
// adding one if there is none.
func (t *table) str(b []byte, hint string) string {
	if hint == string(b) {
		return hint
	}
	if s, ok := t.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	t.strs[s] = s
	return s
}

func (d *decoder) remaining() int { return len(d.buf) - d.pos }

func (d *decoder) raw(n int) ([]byte, error) {
	if d.remaining() < n {
		return nil, errTruncated
	}
	b := d.buf[d.pos : d.pos+n]
	d.pos += n
	return b, nil
}

func (d *decoder) u8() (uint8, error) {
	b, err := d.raw(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (d *decoder) u64() (uint64, error) {
	b, err := d.raw(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}

func (d *decoder) i64() (int64, error) {
	v, err := d.u64()
	return int64(v), err
}

func (d *decoder) f64() (float64, error) {
	v, err := d.u64()
	return math.Float64frombits(v), err
}

// bytes reads a string field's bytes without copying them.
func (d *decoder) bytes() ([]byte, error) {
	n, err := d.u64()
	if err != nil {
		return nil, err
	}
	if n > uint64(d.remaining()) {
		return nil, errTruncated
	}
	return d.raw(int(n))
}

// str reads a string field through the decoder's string table.
func (d *decoder) str(hint string) (string, error) {
	b, err := d.bytes()
	if err != nil {
		return "", err
	}
	return d.tab.str(b, hint), nil
}

func (d *decoder) boolean() (bool, error) {
	v, err := d.u8()
	return v != 0, err
}

// Encode serialises a cell snapshot deterministically: equal (fp, outs)
// inputs produce equal bytes. The snapshot is written into one buffer of
// its exact size, so encoding allocates once.
func Encode(fp Fingerprint, outs []strategy.Outcome) []byte {
	e := &encoder{buf: make([]byte, 0, encodedLen(outs))}
	e.raw([]byte(codecMagic))
	e.u8(codecVersion)
	e.u64(uint64(fp))
	e.u64(uint64(len(outs)))
	for i := range outs {
		encodeOutcome(e, &outs[i])
	}
	e.u64(checksum(e.buf))
	return e.buf
}

// Decode parses a snapshot, verifying magic, version, checksum and exact
// length. Any malformation yields an error wrapping ErrSnapshot.
func Decode(data []byte) (Fingerprint, []strategy.Outcome, error) {
	return decode(data, newTable())
}

// decode is Decode with the outcomes' strings and claims taken from tab.
func decode(data []byte, tab *table) (Fingerprint, []strategy.Outcome, error) {
	const headerLen = 4 + 1 + 8 + 8 // magic + version + fp + count
	if len(data) < headerLen+8 {
		return 0, nil, errTruncated
	}
	if string(data[:4]) != codecMagic {
		return 0, nil, errMagic
	}
	if data[4] != codecVersion {
		return 0, nil, fmt.Errorf("%w %d", errVersion, data[4])
	}
	body, tail := data[:len(data)-8], data[len(data)-8:]
	if checksum(body) != binary.BigEndian.Uint64(tail) {
		return 0, nil, errChecksum
	}
	d := &decoder{buf: body, pos: 5, tab: tab}
	fpBits, err := d.u64()
	if err != nil {
		return 0, nil, err
	}
	count, err := d.u64()
	if err != nil {
		return 0, nil, err
	}
	// Bound the outcome-table allocation by what the payload could
	// actually hold: every encoded outcome occupies at least
	// minEncodedOutcome bytes, so a larger count is structurally
	// impossible — and without this check a crafted count in a small file
	// (the checksum is not cryptographic) could force a multi-GB make()
	// before per-record decoding ever fails.
	if count > uint64(d.remaining())/minEncodedOutcome {
		return 0, nil, errTruncated
	}
	outs := make([]strategy.Outcome, count)
	rows := tab.rows[count]
	var none strategy.Outcome
	for i := range outs {
		// Hints: the previous outcome of this cell (same model and
		// method) and row i of the previous cell of this size (same fact).
		last, row := &none, &none
		if i > 0 {
			last = &outs[i-1]
		}
		if i < len(rows) {
			row = &rows[i]
		}
		if err := decodeOutcome(d, &outs[i], last, row); err != nil {
			return 0, nil, err
		}
	}
	if d.remaining() != 0 {
		return 0, nil, errTrailing
	}
	tab.rows[count] = outs
	return Fingerprint(fpBits), outs, nil
}

// encodedLen is the length of Encode's output for outs: the header, count
// and checksum, plus each outcome's fixed part (minEncodedOutcome) and its
// string bytes.
func encodedLen(outs []strategy.Outcome) int {
	n := len(codecMagic) + 1 + 8 + 8 + 8
	for i := range outs {
		o := &outs[i]
		n += minEncodedOutcome + len(o.FactID) + len(o.Model) + len(o.Method) + len(o.Explanation)
		if o.Claim != (unique.Handle[llm.Claim]{}) {
			c := o.Claim.Value()
			n += len(c.Key) + len(c.FactID) + len(c.Dataset) + len(c.Category) + len(c.Topic) +
				len(c.Sentence) + len(c.SubjectLabel) + len(c.ObjectLabel) + len(c.Phrase)
		}
	}
	return n
}

func encodeOutcome(e *encoder, o *strategy.Outcome) {
	e.str(o.FactID)
	e.str(o.Model)
	e.str(string(o.Method))
	e.u8(uint8(o.Verdict))
	e.boolean(o.Gold)
	e.boolean(o.Correct)
	e.i64(int64(o.Latency))
	e.i64(int64(o.PromptTokens))
	e.i64(int64(o.CompletionTokens))
	e.i64(int64(o.Attempts))
	e.str(o.Explanation)
	e.i64(int64(o.EvidenceChunks))
	var c llm.Claim
	if o.Claim != (unique.Handle[llm.Claim]{}) {
		c = o.Claim.Value()
	}
	e.str(c.Key)
	e.str(c.FactID)
	e.str(c.Dataset)
	e.boolean(c.Gold)
	e.f64(c.Popularity)
	e.str(c.Category)
	e.str(c.Topic)
	e.str(c.Sentence)
	e.str(c.SubjectLabel)
	e.str(c.ObjectLabel)
	e.str(c.Phrase)
}

// decodeOutcome reads one outcome; last and row are the hints described
// at its call, each the zero outcome when absent.
func decodeOutcome(d *decoder, o *strategy.Outcome, last, row *strategy.Outcome) error {
	var err error
	read := func(dst *string, hint string) {
		if err == nil {
			*dst, err = d.str(hint)
		}
	}
	readBool := func(dst *bool) {
		if err == nil {
			*dst, err = d.boolean()
		}
	}
	readInt := func(dst *int) {
		if err == nil {
			var v int64
			v, err = d.i64()
			*dst = int(v)
		}
	}
	read(&o.FactID, row.FactID)
	read(&o.Model, last.Model)
	if err == nil {
		var m string
		m, err = d.str(string(last.Method))
		o.Method = llm.Method(m)
	}
	if err == nil {
		var v uint8
		v, err = d.u8()
		o.Verdict = strategy.Verdict(v)
	}
	readBool(&o.Gold)
	readBool(&o.Correct)
	if err == nil {
		var v int64
		v, err = d.i64()
		o.Latency = time.Duration(v)
	}
	readInt(&o.PromptTokens)
	readInt(&o.CompletionTokens)
	readInt(&o.Attempts)
	read(&o.Explanation, row.Explanation)
	readInt(&o.EvidenceChunks)
	if err != nil {
		return err
	}
	o.Claim, err = decodeClaim(d, row.Claim)
	return err
}

// claimFields is the number of string fields of an encoded claim.
const claimFields = 9

// decodeClaim reads an outcome's claim. The hint is compared field by field
// against the encoded bytes and reused when equal; otherwise the claim is
// built and interned.
func decodeClaim(d *decoder, hint unique.Handle[llm.Claim]) (unique.Handle[llm.Claim], error) {
	var raw [claimFields][]byte
	var gold bool
	var pop float64
	var err error
	read := func(i int) {
		if err == nil {
			raw[i], err = d.bytes()
		}
	}
	read(0) // Key
	read(1) // FactID
	read(2) // Dataset
	if err == nil {
		gold, err = d.boolean()
	}
	if err == nil {
		pop, err = d.f64()
	}
	for i := 3; i < claimFields; i++ {
		read(i) // Category, Topic, Sentence, SubjectLabel, ObjectLabel, Phrase
	}
	if err != nil {
		return unique.Handle[llm.Claim]{}, err
	}
	if hint != (unique.Handle[llm.Claim]{}) {
		c := hint.Value()
		if c.Key == string(raw[0]) && c.FactID == string(raw[1]) && c.Dataset == string(raw[2]) &&
			c.Gold == gold && math.Float64bits(c.Popularity) == math.Float64bits(pop) &&
			c.Category == string(raw[3]) && c.Topic == string(raw[4]) &&
			c.Sentence == string(raw[5]) && c.SubjectLabel == string(raw[6]) &&
			c.ObjectLabel == string(raw[7]) && c.Phrase == string(raw[8]) {
			return hint, nil
		}
	}
	c := llm.Claim{
		Key: string(raw[0]), FactID: string(raw[1]), Dataset: string(raw[2]),
		Gold: gold, Popularity: pop,
		Category: string(raw[3]), Topic: string(raw[4]), Sentence: string(raw[5]),
		SubjectLabel: string(raw[6]), ObjectLabel: string(raw[7]), Phrase: string(raw[8]),
	}
	// The all-zero claim reads back as the zero handle it was written
	// from. A popularity of -0 compares equal to 0 but is not the zero
	// claim's, so it keeps a handle and re-encodes to the same bits.
	if c == (llm.Claim{}) && !math.Signbit(pop) {
		return unique.Handle[llm.Claim]{}, nil
	}
	return unique.Make(c), nil
}

func checksum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
