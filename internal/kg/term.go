// Package kg implements the knowledge-graph vocabulary FactCheck validates:
// RDF-style terms and triples, an N-Triples codec, and the DBpedia and YAGO
// namespaces the paper's datasets use. It keeps no triple store: the
// synthetic world's fact set is the KG snapshot facts are checked against.
package kg

import (
	"fmt"
	"strings"
)

// IRI is an internationalised resource identifier naming an entity,
// predicate or class.
type IRI string

// Well-known namespaces used by the benchmark datasets.
const (
	NSDBpediaResource = "http://dbpedia.org/resource/"
	NSDBpediaOntology = "http://dbpedia.org/ontology/"
	NSDBpediaProperty = "http://dbpedia.org/property/"
	NSYAGOResource    = "http://yago-knowledge.org/resource/"
)

// TermKind discriminates the object position of a triple.
type TermKind uint8

const (
	// KindIRI marks a term naming a resource.
	KindIRI TermKind = iota
	// KindLiteral marks a literal value (optionally typed or language-tagged).
	KindLiteral
)

// Term is an RDF term: either an IRI or a literal. Subjects and predicates
// of triples are always IRIs; objects may be either.
type Term struct {
	Kind     TermKind
	IRI      IRI    // set when Kind == KindIRI
	Value    string // set when Kind == KindLiteral
	Lang     string // optional language tag for literals
	Datatype IRI    // optional datatype for literals
}

// NewIRITerm wraps an IRI as an object term.
func NewIRITerm(iri IRI) Term { return Term{Kind: KindIRI, IRI: iri} }

// NewLiteral builds a plain string literal term.
func NewLiteral(v string) Term { return Term{Kind: KindLiteral, Value: v} }

// NewLangLiteral builds a language-tagged literal term.
func NewLangLiteral(v, lang string) Term {
	return Term{Kind: KindLiteral, Value: v, Lang: lang}
}

// NewTypedLiteral builds a datatyped literal term.
func NewTypedLiteral(v string, dt IRI) Term {
	return Term{Kind: KindLiteral, Value: v, Datatype: dt}
}

// IsIRI reports whether the term is a resource reference.
func (t Term) IsIRI() bool { return t.Kind == KindIRI }

// Key returns a canonical map key for the term.
func (t Term) Key() string {
	if t.Kind == KindIRI {
		return "i:" + string(t.IRI)
	}
	return "l:" + t.Value + "@" + t.Lang + "^" + string(t.Datatype)
}

// String renders the term in N-Triples syntax.
func (t Term) String() string {
	if t.Kind == KindIRI {
		return "<" + string(t.IRI) + ">"
	}
	s := fmt.Sprintf("%q", t.Value)
	if t.Lang != "" {
		return s + "@" + t.Lang
	}
	if t.Datatype != "" {
		return s + "^^<" + string(t.Datatype) + ">"
	}
	return s
}

// Triple is a single <Subject, Predicate, Object> statement.
type Triple struct {
	S IRI
	P IRI
	O Term
}

// NewTriple builds a triple with an IRI object, the common case for the
// A-Box assertions FactCheck validates.
func NewTriple(s, p, o IRI) Triple {
	return Triple{S: s, P: p, O: NewIRITerm(o)}
}

// String renders the triple as an N-Triples line (without newline).
func (t Triple) String() string {
	return fmt.Sprintf("<%s> <%s> %s .", t.S, t.P, t.O)
}

// Key returns a canonical identity key for the triple.
func (t Triple) Key() string {
	return string(t.S) + "|" + string(t.P) + "|" + t.O.Key()
}

// LocalName extracts the final path, fragment or URN segment of an IRI,
// e.g. "Alexander_III_of_Russia" from a DBpedia resource IRI or a
// urn:world: identifier.
func LocalName(iri IRI) string {
	s := string(iri)
	if i := strings.LastIndexAny(s, "#/:"); i >= 0 && i+1 < len(s) {
		return s[i+1:]
	}
	return s
}
