// Package world generates the deterministic synthetic ground truth that
// substitutes for the real-world KGs (DBpedia, YAGO, Freebase) the paper
// samples. It produces a universe of typed entities with Zipfian popularity
// and a set of true facts over ~20 relations, from which the benchmark
// datasets draw positive facts and derive constraint-respecting negatives.
//
// All names are synthetic (syllable-generated); no real-world claims are
// encoded, so "truth" is exactly membership in the generated fact set — the
// same snapshot-based semantics the paper adopts (§4.1). The fact set is
// the snapshot: the world keeps it as string keys for membership checks
// and builds no RDF triple store.
package world

import (
	"factcheck/internal/kg"
)

// EntityType classifies entities; relation domains and ranges are typed.
type EntityType string

// The entity types of the synthetic universe.
const (
	TypePerson     EntityType = "Person"
	TypeCity       EntityType = "City"
	TypeCountry    EntityType = "Country"
	TypeFilm       EntityType = "Film"
	TypeBook       EntityType = "Book"
	TypeCompany    EntityType = "Company"
	TypeUniversity EntityType = "University"
	TypeAward      EntityType = "Award"
	TypeTeam       EntityType = "Team"
	TypeGenre      EntityType = "Genre"
	TypeBand       EntityType = "Band"
	TypeAlbum      EntityType = "Album"
	TypeLanguage   EntityType = "Language"
	TypeProfession EntityType = "Profession"
)

// AllTypes lists every entity type in deterministic order.
var AllTypes = []EntityType{
	TypePerson, TypeCity, TypeCountry, TypeFilm, TypeBook, TypeCompany,
	TypeUniversity, TypeAward, TypeTeam, TypeGenre, TypeBand, TypeAlbum,
	TypeLanguage, TypeProfession,
}

// Entity is a node of the synthetic universe.
type Entity struct {
	IRI        kg.IRI
	Label      string
	Type       EntityType
	Popularity float64 // (0,1]: 1 = most popular ("head"), ->0 = "tail"
}

// Category groups relations by the kind of assertion they make; the error
// analysis (paper §7, E1–E6) clusters mistakes along these lines.
type Category string

// Relation categories, aligned with the paper's error taxonomy.
const (
	CatRelationship Category = "relationship" // E2: spouse, religion-like links
	CatRole         Category = "role"         // E3: teams, employers, roles
	CatGeo          Category = "geo"          // E4: places, nationality
	CatGenre        Category = "genre"        // E5: genres, classifications
	CatIdentifier   Category = "identifier"   // E6: awards, biographical ids
)

// Topic labels mirror the DBpedia topic-stratification study (paper §7).
const (
	TopicEducation      = "Education"
	TopicNews           = "News"
	TopicArchitecture   = "Architecture"
	TopicTransportation = "Transportation"
	TopicCulture        = "Culture"
	TopicSports         = "Sports"
	TopicBusiness       = "Business"
)

// Relation is a typed predicate of the synthetic world.
type Relation struct {
	Name     string // local name, KG-style camelCase (e.g. "birthPlace")
	Domain   EntityType
	Range    EntityType
	Phrase   string // verbalisation fragment: "<S> <Phrase> <O>."
	Question string // question template with %s and %o placeholders
	Category Category
	Topic    string
	// Functional marks relations where a subject has (at most) one true
	// object, making corrupted objects unambiguously false.
	Functional bool
}

// IRI returns the relation's predicate IRI in the given namespace.
func (r *Relation) IRI(ns string) kg.IRI { return kg.IRI(ns + r.Name) }

// Relations is the fixed relation vocabulary of the synthetic world,
// in deterministic order. The mix deliberately covers every error category:
// relationship links, role attribution, geography, genre classification and
// identifier/biographical facts.
var Relations = []*Relation{
	{Name: "birthPlace", Domain: TypePerson, Range: TypeCity, Phrase: "was born in", Question: "Where was %s born", Category: CatGeo, Topic: TopicNews, Functional: true},
	{Name: "deathPlace", Domain: TypePerson, Range: TypeCity, Phrase: "died in", Question: "Where did %s die", Category: CatGeo, Topic: TopicNews, Functional: true},
	{Name: "nationality", Domain: TypePerson, Range: TypeCountry, Phrase: "is a citizen of", Question: "What is the nationality of %s", Category: CatGeo, Topic: TopicNews, Functional: true},
	{Name: "isMarriedTo", Domain: TypePerson, Range: TypePerson, Phrase: "is married to", Question: "Who is %s married to", Category: CatRelationship, Topic: TopicCulture, Functional: true},
	{Name: "almaMater", Domain: TypePerson, Range: TypeUniversity, Phrase: "studied at", Question: "Where did %s study", Category: CatIdentifier, Topic: TopicEducation, Functional: false},
	{Name: "award", Domain: TypePerson, Range: TypeAward, Phrase: "received the", Question: "Which award did %s receive", Category: CatIdentifier, Topic: TopicCulture, Functional: false},
	{Name: "playsFor", Domain: TypePerson, Range: TypeTeam, Phrase: "plays for", Question: "Which team does %s play for", Category: CatRole, Topic: TopicSports, Functional: true},
	{Name: "employer", Domain: TypePerson, Range: TypeCompany, Phrase: "works for", Question: "Who employs %s", Category: CatRole, Topic: TopicBusiness, Functional: true},
	{Name: "profession", Domain: TypePerson, Range: TypeProfession, Phrase: "works as a", Question: "What is the profession of %s", Category: CatRole, Topic: TopicNews, Functional: false},
	{Name: "director", Domain: TypeFilm, Range: TypePerson, Phrase: "was directed by", Question: "Who directed %s", Category: CatRole, Topic: TopicCulture, Functional: true},
	{Name: "starring", Domain: TypeFilm, Range: TypePerson, Phrase: "starred", Question: "Who starred in %s", Category: CatRole, Topic: TopicCulture, Functional: false},
	{Name: "filmGenre", Domain: TypeFilm, Range: TypeGenre, Phrase: "is a film of the genre", Question: "What genre is the film %s", Category: CatGenre, Topic: TopicCulture, Functional: false},
	{Name: "studio", Domain: TypeFilm, Range: TypeCompany, Phrase: "was produced by", Question: "Which studio produced %s", Category: CatRole, Topic: TopicBusiness, Functional: true},
	{Name: "author", Domain: TypeBook, Range: TypePerson, Phrase: "was written by", Question: "Who wrote %s", Category: CatRole, Topic: TopicCulture, Functional: true},
	{Name: "literaryGenre", Domain: TypeBook, Range: TypeGenre, Phrase: "belongs to the genre", Question: "What genre is the book %s", Category: CatGenre, Topic: TopicCulture, Functional: false},
	{Name: "foundedBy", Domain: TypeCompany, Range: TypePerson, Phrase: "was founded by", Question: "Who founded %s", Category: CatRole, Topic: TopicBusiness, Functional: false},
	{Name: "headquarter", Domain: TypeCompany, Range: TypeCity, Phrase: "is headquartered in", Question: "Where is %s headquartered", Category: CatGeo, Topic: TopicArchitecture, Functional: true},
	{Name: "locatedIn", Domain: TypeCity, Range: TypeCountry, Phrase: "is located in", Question: "In which country is %s located", Category: CatGeo, Topic: TopicTransportation, Functional: true},
	{Name: "capital", Domain: TypeCountry, Range: TypeCity, Phrase: "has as its capital", Question: "What is the capital of %s", Category: CatGeo, Topic: TopicTransportation, Functional: true},
	{Name: "officialLanguage", Domain: TypeCountry, Range: TypeLanguage, Phrase: "has the official language", Question: "What is the official language of %s", Category: CatIdentifier, Topic: TopicEducation, Functional: false},
	{Name: "campus", Domain: TypeUniversity, Range: TypeCity, Phrase: "has its campus in", Question: "Where is the campus of %s", Category: CatGeo, Topic: TopicEducation, Functional: true},
	{Name: "homeCity", Domain: TypeTeam, Range: TypeCity, Phrase: "is based in", Question: "Where is %s based", Category: CatGeo, Topic: TopicSports, Functional: true},
	{Name: "bandGenre", Domain: TypeBand, Range: TypeGenre, Phrase: "performs music of the genre", Question: "What genre does %s perform", Category: CatGenre, Topic: TopicCulture, Functional: false},
	{Name: "bandOrigin", Domain: TypeBand, Range: TypeCity, Phrase: "was formed in", Question: "Where was %s formed", Category: CatGeo, Topic: TopicCulture, Functional: true},
	{Name: "artist", Domain: TypeAlbum, Range: TypeBand, Phrase: "was recorded by", Question: "Who recorded %s", Category: CatRole, Topic: TopicCulture, Functional: true},
}

// RelationByName returns the relation with the given local name, or nil.
func RelationByName(name string) *Relation {
	for _, r := range Relations {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// Fact is a single true statement of the synthetic world.
type Fact struct {
	S, O     *Entity
	Relation *Relation
}

// Popularity combines subject and object popularity: the visibility of a
// fact on the synthetic "web" tracks the fame of its participants.
func (f Fact) Popularity() float64 {
	return 0.7*f.S.Popularity + 0.3*f.O.Popularity
}

// Triple encodes the fact as a KG triple in the given namespaces.
func (f Fact) Triple(resourceNS, ontologyNS string) kg.Triple {
	return kg.NewTriple(
		kg.IRI(resourceNS+kg.LocalName(f.S.IRI)),
		f.Relation.IRI(ontologyNS),
		kg.IRI(resourceNS+kg.LocalName(f.O.IRI)),
	)
}

// Key returns a canonical identity for the fact, independent of namespace.
func (f Fact) Key() string {
	return kg.LocalName(f.S.IRI) + "|" + f.Relation.Name + "|" + kg.LocalName(f.O.IRI)
}
