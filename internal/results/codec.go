package results

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"factcheck/internal/strategy"
)

// Snapshot wire format (all integers big-endian):
//
//	magic   "FCRS"                     4 bytes
//	version uint8                      1 byte
//	fp      uint64                     cell fingerprint
//	count   uint64                     number of outcomes
//	count × outcome                    see encodeOutcome
//	check   uint32                     CRC-32C over everything above
//
// Strings are a uint32 length (no outcome string comes near 4 GiB) and
// the UTF-8 bytes; booleans one byte (0/1). The fingerprint names the
// cell, so outcomes carry no model or method. The
// encoding has no map iteration, no pointers and no reflection, so equal
// inputs yield equal bytes — which keeps snapshots diffable and lets tests
// pin golden images. Version 2 also wrote each outcome's model and method,
// version 1 its claim; their files are rejected as a foreign version.
const (
	codecMagic   = "FCRS"
	codecVersion = 3

	// headerLen is the length of magic, version, fingerprint and count;
	// checkLen that of the trailing checksum.
	headerLen = 4 + 1 + 8 + 8
	checkLen  = 4

	// minEncodedOutcome is the size of an outcome with every string empty:
	// 2 string lengths and the chunk count (4 bytes each) + 1 verdict byte
	// + 2 booleans + 4 int64s. encodeOutcome can never produce fewer bytes.
	minEncodedOutcome = 3*4 + 1 + 2 + 4*8
)

// castagnoli is the CRC-32C table. CRC-32C detects every burst error of
// up to 32 bits, and hash/crc32 computes it with the CPU's CRC
// instructions where there are some.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

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

func (e *encoder) raw(b []byte) { e.buf = append(e.buf, b...) }
func (e *encoder) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *encoder) u32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }
func (e *encoder) i64(v int64)  { e.u64(uint64(v)) }
func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}
func (e *encoder) boolean(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

// decoder reads a snapshot body. Its first failure sticks: every later
// read returns zero values, and decode reports the failure at the end.
type decoder struct {
	buf []byte
	pos int
	err error
	tab *table
}

// table shares strings among the outcomes decoded through it: a dataset's
// fact IDs and explanations repeat across its cells. Open decodes every
// snapshot of a store through one table, so the loaded cells hold one copy
// of each, as the cells Run computes do.
type table struct {
	strs map[string]string
	// rows holds, per outcome count, the outcomes of the last snapshot
	// decoded with that count. The cells of one dataset list the same
	// facts in the same order, so outcome i is first compared with row i
	// of the previous such cell, which skips the string lookups.
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

// take returns the next n bytes without copying them, or nil once a read
// has failed.
func (d *decoder) take(n uint64) []byte {
	if d.err == nil && n > uint64(d.remaining()) {
		d.err = errTruncated
	}
	if d.err != nil {
		return nil
	}
	b := d.buf[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return b
}

func (d *decoder) u8() uint8 {
	if b := d.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (d *decoder) u32() uint32 {
	if b := d.take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (d *decoder) u64() uint64 {
	if b := d.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// str reads a string field through the decoder's string table.
func (d *decoder) str(hint string) string {
	b := d.take(uint64(d.u32()))
	if d.err != nil {
		return ""
	}
	return d.tab.str(b, hint)
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
	e.u32(checksum(e.buf))
	return e.buf
}

// Decode parses a snapshot, verifying magic, version, checksum and exact
// length. Any malformation yields an error wrapping ErrSnapshot.
func Decode(data []byte) (Fingerprint, []strategy.Outcome, error) {
	return decode(data, newTable())
}

// decode is Decode with the outcomes' strings taken from tab.
func decode(data []byte, tab *table) (Fingerprint, []strategy.Outcome, error) {
	if len(data) < headerLen+checkLen {
		return 0, nil, errTruncated
	}
	if string(data[:4]) != codecMagic {
		return 0, nil, errMagic
	}
	if data[4] != codecVersion {
		return 0, nil, fmt.Errorf("%w %d", errVersion, data[4])
	}
	body, tail := data[:len(data)-checkLen], data[len(data)-checkLen:]
	if checksum(body) != binary.BigEndian.Uint32(tail) {
		return 0, nil, errChecksum
	}
	d := &decoder{buf: body, pos: 5, tab: tab}
	fpBits, count := d.u64(), d.u64()
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
		// Hint: row i of the previous cell of this size (same fact).
		row := &none
		if i < len(rows) {
			row = &rows[i]
		}
		decodeOutcome(d, &outs[i], row)
	}
	if d.err != nil {
		return 0, nil, d.err
	}
	if d.remaining() != 0 {
		return 0, nil, errTrailing
	}
	tab.rows[count] = outs
	return Fingerprint(fpBits), outs, nil
}

// encodedLen is the length of Encode's output for outs: the header and
// checksum, plus each outcome's fixed part (minEncodedOutcome) and its
// string bytes.
func encodedLen(outs []strategy.Outcome) int {
	n := headerLen + checkLen
	for i := range outs {
		o := &outs[i]
		n += minEncodedOutcome + len(o.FactID) + len(o.Explanation)
	}
	return n
}

func encodeOutcome(e *encoder, o *strategy.Outcome) {
	e.str(o.FactID)
	e.u8(uint8(o.Verdict))
	e.boolean(o.Gold)
	e.boolean(o.Correct)
	e.i64(int64(o.Latency))
	e.i64(int64(o.PromptTokens))
	e.i64(int64(o.CompletionTokens))
	e.i64(int64(o.Attempts))
	e.str(o.Explanation)
	e.u32(uint32(o.EvidenceChunks))
}

// decodeOutcome reads one outcome; row is the hint described at its call,
// the zero outcome when absent.
func decodeOutcome(d *decoder, o *strategy.Outcome, row *strategy.Outcome) {
	o.FactID = d.str(row.FactID)
	o.Verdict = strategy.Verdict(d.u8())
	o.Gold = d.u8() != 0
	o.Correct = d.u8() != 0
	o.Latency = time.Duration(d.u64())
	o.PromptTokens = int(d.u64())
	o.CompletionTokens = int(d.u64())
	o.Attempts = int(d.u64())
	o.Explanation = d.str(row.Explanation)
	o.EvidenceChunks = int32(d.u32())
}

func checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }
