package kg

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteNTriples serialises triples to w in N-Triples format, one statement
// per line, in the given order.
func WriteNTriples(w io.Writer, triples []Triple) error {
	bw := bufio.NewWriter(w)
	for _, t := range triples {
		if _, err := bw.WriteString(t.String()); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseError reports a syntax error at a specific line of an N-Triples
// stream.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("kg: ntriples line %d: %s", e.Line, e.Msg)
}

// maxLineBytes bounds one N-Triples line.
const maxLineBytes = 4 << 20

// ReadNTriples parses an N-Triples stream. Blank lines and #-comments are
// skipped. Blank nodes are not supported (the benchmark datasets contain
// none); encountering one is a parse error, and so is a line longer than
// 4 MiB. Every other error is the reader's.
func ReadNTriples(r io.Reader) ([]Triple, error) {
	var out []Triple
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		t, err := parseLine(line)
		if err != nil {
			return nil, &ParseError{Line: lineNo, Msg: err.Error()}
		}
		out = append(out, t)
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, &ParseError{Line: lineNo + 1, Msg: fmt.Sprintf("line exceeds %d bytes", maxLineBytes)}
		}
		return nil, err
	}
	return out, nil
}

func parseLine(line string) (Triple, error) {
	p := &lineParser{s: line}
	s, err := p.iri()
	if err != nil {
		return Triple{}, fmt.Errorf("subject: %w", err)
	}
	p.skipWS()
	pred, err := p.iri()
	if err != nil {
		return Triple{}, fmt.Errorf("predicate: %w", err)
	}
	p.skipWS()
	obj, err := p.term()
	if err != nil {
		return Triple{}, fmt.Errorf("object: %w", err)
	}
	p.skipWS()
	if !p.consume('.') {
		return Triple{}, fmt.Errorf("missing terminating '.'")
	}
	p.skipWS()
	if !p.done() {
		return Triple{}, fmt.Errorf("trailing content %q", p.rest())
	}
	return Triple{S: s, P: pred, O: obj}, nil
}

type lineParser struct {
	s string
	i int
}

func (p *lineParser) done() bool   { return p.i >= len(p.s) }
func (p *lineParser) rest() string { return p.s[p.i:] }

func (p *lineParser) skipWS() {
	for p.i < len(p.s) && (p.s[p.i] == ' ' || p.s[p.i] == '\t') {
		p.i++
	}
}

func (p *lineParser) consume(c byte) bool {
	if p.i < len(p.s) && p.s[p.i] == c {
		p.i++
		return true
	}
	return false
}

func (p *lineParser) iri() (IRI, error) {
	if !p.consume('<') {
		if p.i < len(p.s) && p.s[p.i] == '_' {
			return "", fmt.Errorf("blank nodes are not supported")
		}
		return "", fmt.Errorf("expected '<' at offset %d", p.i)
	}
	j := strings.IndexByte(p.s[p.i:], '>')
	if j < 0 {
		return "", fmt.Errorf("unterminated IRI")
	}
	iri := p.s[p.i : p.i+j]
	p.i += j + 1
	return IRI(iri), nil
}

func (p *lineParser) term() (Term, error) {
	if p.done() {
		return Term{}, fmt.Errorf("unexpected end of line")
	}
	switch p.s[p.i] {
	case '<':
		iri, err := p.iri()
		if err != nil {
			return Term{}, err
		}
		return NewIRITerm(iri), nil
	case '"':
		return p.literal()
	case '_':
		return Term{}, fmt.Errorf("blank nodes are not supported")
	default:
		return Term{}, fmt.Errorf("unexpected character %q", p.s[p.i])
	}
}

func (p *lineParser) literal() (Term, error) {
	// Find the closing quote, honouring backslash escapes, then let
	// strconv.Unquote handle the escape sequences.
	start := p.i
	p.i++ // opening quote
	for p.i < len(p.s) {
		switch p.s[p.i] {
		case '\\':
			p.i += 2
		case '"':
			p.i++
			quoted := p.s[start:p.i]
			val, err := strconv.Unquote(quoted)
			if err != nil {
				return Term{}, fmt.Errorf("bad literal %s: %v", quoted, err)
			}
			t := Term{Kind: KindLiteral, Value: val}
			// Optional language tag or datatype.
			if p.i < len(p.s) && p.s[p.i] == '@' {
				p.i++
				j := p.i
				for j < len(p.s) && p.s[j] != ' ' && p.s[j] != '\t' {
					j++
				}
				t.Lang = p.s[p.i:j]
				p.i = j
			} else if strings.HasPrefix(p.s[p.i:], "^^") {
				p.i += 2
				dt, err := p.iri()
				if err != nil {
					return Term{}, fmt.Errorf("datatype: %w", err)
				}
				t.Datatype = dt
			}
			return t, nil
		default:
			p.i++
		}
	}
	return Term{}, fmt.Errorf("unterminated literal")
}
