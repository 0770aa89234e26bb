package kg

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// The RDF Schema and XML Schema vocabulary the N-Triples tests write.
const (
	NSRDFS = "http://www.w3.org/2000/01/rdf-schema#"
	NSXSD  = "http://www.w3.org/2001/XMLSchema#"

	RDFSLabel   = IRI(NSRDFS + "label")
	RDFSComment = IRI(NSRDFS + "comment")
)

func TestTermString(t *testing.T) {
	tests := []struct {
		term Term
		want string
	}{
		{NewIRITerm("http://example.org/a"), "<http://example.org/a>"},
		{NewLiteral("hello"), `"hello"`},
		{NewLangLiteral("hello", "en"), `"hello"@en`},
		{NewTypedLiteral("42", NSXSD+"integer"), `"42"^^<http://www.w3.org/2001/XMLSchema#integer>`},
		{NewLiteral(`with "quotes" and \slash`), `"with \"quotes\" and \\slash"`},
	}
	for _, tc := range tests {
		if got := tc.term.String(); got != tc.want {
			t.Errorf("Term.String() = %s, want %s", got, tc.want)
		}
	}
}

func TestTermKeyDistinguishesKinds(t *testing.T) {
	iri := NewIRITerm("x")
	lit := NewLiteral("x")
	if iri.Key() == lit.Key() {
		t.Error("IRI and literal with same text share a key")
	}
	en := NewLangLiteral("x", "en")
	de := NewLangLiteral("x", "de")
	if en.Key() == de.Key() {
		t.Error("language tags not part of literal key")
	}
}

func TestLocalName(t *testing.T) {
	tests := []struct{ in, want string }{
		{"http://dbpedia.org/resource/Paris", "Paris"},
		{"http://www.w3.org/2000/01/rdf-schema#label", "label"},
		{"urn:world:Alexander_III", "Alexander_III"},
		{"noslash", "noslash"},
	}
	for _, tc := range tests {
		if got := LocalName(IRI(tc.in)); got != tc.want {
			t.Errorf("LocalName(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestNTriplesRoundTrip(t *testing.T) {
	in := []Triple{
		NewTriple("http://ex/s", "http://ex/p", "http://ex/o"),
		{S: "http://ex/s", P: RDFSLabel, O: NewLangLiteral("a label with spaces", "en")},
		{S: "http://ex/s", P: "http://ex/v", O: NewTypedLiteral("3.14", NSXSD+"double")},
		{S: "http://ex/s", P: RDFSComment, O: NewLiteral(`escape "this" and \that`)},
	}
	var buf bytes.Buffer
	if err := WriteNTriples(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadNTriples(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in=%v\nout=%v", in, out)
	}
}

func TestNTriplesRoundTripProperty(t *testing.T) {
	f := func(sRaw, pRaw, val, lang string) bool {
		s := IRI("http://ex/" + sanitizeIRIPart(sRaw))
		p := IRI("http://ex/" + sanitizeIRIPart(pRaw))
		tr := Triple{S: s, P: p, O: NewLiteral(val)}
		var buf bytes.Buffer
		if err := WriteNTriples(&buf, []Triple{tr}); err != nil {
			return false
		}
		out, err := ReadNTriples(&buf)
		if err != nil || len(out) != 1 {
			return false
		}
		return reflect.DeepEqual(out[0], tr)
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func sanitizeIRIPart(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r > 0x20 && r != '<' && r != '>' && r != '"' && r < 0x7f {
			b.WriteRune(r)
		}
	}
	return b.String()
}

func TestNTriplesParseErrors(t *testing.T) {
	bad := []string{
		`<s> <p> .`,               // missing object
		`<s> <p> <o>`,             // missing dot
		`<s> <p> "unterminated .`, // bad literal
		`_:b0 <p> <o> .`,          // blank node subject
		`<s> <p> _:b1 .`,          // blank node object
		`<s> <p> <o> . trailing`,  // trailing garbage
		`<s <p> <o> .`,            // unterminated IRI
		`<s> <p> "v"^^notaniri .`, // bad datatype
	}
	for _, line := range bad {
		if _, err := ReadNTriples(strings.NewReader(line)); err == nil {
			t.Errorf("ReadNTriples(%q) succeeded, want error", line)
		}
	}
}

// TestParseErrorOnOverlongLine: a line past the scanner's bound is a
// parse error at that line, not a bare bufio error.
func TestParseErrorOnOverlongLine(t *testing.T) {
	src := "<http://ex/s> <http://ex/p> <http://ex/o> .\n<s> <p> \"" + strings.Repeat("x", maxLineBytes) + "\" .\n"
	_, err := ReadNTriples(strings.NewReader(src))
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error %T %v, want *ParseError", err, err)
	}
	if pe.Line != 2 {
		t.Errorf("error line = %d, want 2", pe.Line)
	}
}

func TestNTriplesSkipsCommentsAndBlanks(t *testing.T) {
	src := "# a comment\n\n<http://ex/s> <http://ex/p> <http://ex/o> .\n   \n"
	out, err := ReadNTriples(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("parsed %d triples, want 1", len(out))
	}
}

func TestParseErrorReportsLine(t *testing.T) {
	src := "<http://ex/s> <http://ex/p> <http://ex/o> .\nbroken line\n"
	_, err := ReadNTriples(strings.NewReader(src))
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T, want *ParseError", err)
	}
	if pe.Line != 2 {
		t.Errorf("error line = %d, want 2", pe.Line)
	}
}

// FuzzReadNTriples feeds arbitrary bytes to the N-Triples reader. No input
// may panic it; every input either parses or fails with a *ParseError, and
// every parsed stream writes back to text that reads as the same triples.
func FuzzReadNTriples(f *testing.F) {
	for _, seed := range []string{
		"",
		"# comment only\n\n",
		"<http://ex/s> <http://ex/p> <http://ex/o> .\n",
		"<s> <p> \"a label\"@en .\n<s> <p> \"3.14\"^^<http://www.w3.org/2001/XMLSchema#double> .",
		"<s> <p> \"escape \\\"this\\\" and \\\\that\\u00e9\" .\r\n",
		"<s> <p> \"v\"@ .",
		"<s> <p> \"v\"@en\t.",
		"<s> <p> \"tab\\tnew\\nline\" .",
		"_:b0 <p> <o> .",
		"<s> <p> \"unterminated .",
		"<s> <p> \"v\"^^notaniri .",
		"<s> <p> <o> . trailing",
		"<s> <p> \"end\\",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ts, err := ReadNTriples(bytes.NewReader(data))
		if err != nil {
			if _, ok := err.(*ParseError); !ok {
				t.Fatalf("ReadNTriples(%q): error %T %v, want *ParseError", data, err, err)
			}
			return
		}
		var buf bytes.Buffer
		if err := WriteNTriples(&buf, ts); err != nil {
			t.Fatal(err)
		}
		back, err := ReadNTriples(&buf)
		if err != nil {
			t.Fatalf("ReadNTriples(%q) = %v, whose text %q does not read back: %v", data, ts, buf.String(), err)
		}
		if !reflect.DeepEqual(back, ts) {
			t.Fatalf("ReadNTriples(%q) = %#v, read back as %#v from %q", data, ts, back, buf.String())
		}
	})
}
