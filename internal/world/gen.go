package world

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"

	"factcheck/internal/det"
	"factcheck/internal/kg"
)

// Config sizes the synthetic universe. Counts are for the base entity pools;
// derived pools (films, books, albums...) scale with Persons.
type Config struct {
	Seed       string
	Persons    int
	Countries  int
	CitiesPer  int // cities per country (average)
	Companies  int
	Univs      int
	Awards     int
	Teams      int
	Bands      int
	FilmFactor float64 // films per person
	BookFactor float64 // books per person
}

// DefaultConfig sizes the world for the full benchmark: roughly 12k entities
// and 45k+ true facts, enough to sample the paper's 13,530 dataset facts
// with headroom.
func DefaultConfig() Config {
	return Config{
		Seed:       "factcheck-world-v1",
		Persons:    6000,
		Countries:  60,
		CitiesPer:  12,
		Companies:  500,
		Univs:      250,
		Awards:     120,
		Teams:      200,
		Bands:      400,
		FilmFactor: 0.25,
		BookFactor: 0.15,
	}
}

// SmallConfig sizes a miniature world for fast unit tests.
func SmallConfig() Config {
	return Config{
		Seed:       "factcheck-world-small",
		Persons:    300,
		Countries:  10,
		CitiesPer:  5,
		Companies:  40,
		Univs:      20,
		Awards:     15,
		Teams:      20,
		Bands:      30,
		FilmFactor: 0.25,
		BookFactor: 0.15,
	}
}

// World is the generated universe: entities and true facts. The fact set
// is its KG snapshot: a statement holds exactly when IsTrueFact says so,
// and no triple store is kept beside it.
type World struct {
	Config   Config
	Entities []*Entity
	Facts    []Fact

	byType  map[EntityType][]*Entity
	byLabel map[string]*Entity
	factSet map[string]bool
	// objectsOf maps "subjectLocal|relation" to the set of true object
	// local names, for functional-corruption checks.
	objectsOf map[string]map[string]bool
}

// New generates the world for cfg. Generation is fully deterministic in
// cfg.Seed.
func New(cfg Config) *World {
	w := &World{
		Config:    cfg,
		byType:    map[EntityType][]*Entity{},
		byLabel:   map[string]*Entity{},
		factSet:   map[string]bool{},
		objectsOf: map[string]map[string]bool{},
	}
	rng := det.Source(cfg.Seed)
	ng := newNameGen(rng)

	// Base pools. Order matters for determinism.
	countries := w.makeEntities(TypeCountry, cfg.Countries, ng.country)
	nCities := cfg.Countries * cfg.CitiesPer
	cities := w.makeEntities(TypeCity, nCities, ng.city)
	languages := w.makeEntities(TypeLanguage, max(8, cfg.Countries/3), ng.language)
	professions := w.makeEntities(TypeProfession, 24, ng.profession)
	genres := w.makeEntities(TypeGenre, 18, ng.genre)
	univs := w.makeEntities(TypeUniversity, cfg.Univs, ng.university)
	companies := w.makeEntities(TypeCompany, cfg.Companies, ng.company)
	awards := w.makeEntities(TypeAward, cfg.Awards, ng.award)
	teams := w.makeEntities(TypeTeam, cfg.Teams, ng.team)
	persons := w.makeEntities(TypePerson, cfg.Persons, ng.person)
	bands := w.makeEntities(TypeBand, cfg.Bands, ng.band)
	films := w.makeEntities(TypeFilm, int(float64(cfg.Persons)*cfg.FilmFactor), ng.film)
	books := w.makeEntities(TypeBook, int(float64(cfg.Persons)*cfg.BookFactor), ng.book)
	albums := w.makeEntities(TypeAlbum, cfg.Bands*2, ng.album)

	// Geography backbone: each city belongs to one country; each country has
	// a capital and an official language.
	for i, c := range cities {
		w.addFact(c, "locatedIn", countries[i%len(countries)])
	}
	for i, c := range countries {
		// The capital is one of the country's own cities.
		w.addFact(c, "capital", cities[i%len(cities)])
		w.addFact(c, "officialLanguage", languages[i%len(languages)])
		if rng.Float64() < 0.25 { // some countries are multilingual
			w.addFact(c, "officialLanguage", pick(rng, languages))
		}
	}
	for _, u := range univs {
		w.addFact(u, "campus", pick(rng, cities))
	}
	for _, co := range companies {
		w.addFact(co, "headquarter", pick(rng, cities))
		for i := 0; i < 1+rng.IntN(2); i++ {
			w.addFact(co, "foundedBy", pick(rng, persons))
		}
	}
	for _, t := range teams {
		w.addFact(t, "homeCity", pick(rng, cities))
	}

	// People: a bundle of facts each, with probabilities tuned so the mean
	// out-degree lands between the paper's datasets (1.69–3.18 facts/entity).
	for _, p := range persons {
		w.addFact(p, "birthPlace", pick(rng, cities))
		if rng.Float64() < 0.35 {
			w.addFact(p, "deathPlace", pick(rng, cities))
		}
		w.addFact(p, "nationality", pick(rng, countries))
		if rng.Float64() < 0.45 {
			sp := pick(rng, persons)
			if sp != p {
				w.addFact(p, "isMarriedTo", sp)
				w.addFact(sp, "isMarriedTo", p)
			}
		}
		if rng.Float64() < 0.4 {
			w.addFact(p, "almaMater", pick(rng, univs))
		}
		if rng.Float64() < 0.25 {
			w.addFact(p, "award", pick(rng, awards))
			if rng.Float64() < 0.3 {
				w.addFact(p, "award", pick(rng, awards))
			}
		}
		if rng.Float64() < 0.18 {
			w.addFact(p, "playsFor", pick(rng, teams))
		} else if rng.Float64() < 0.3 {
			w.addFact(p, "employer", pick(rng, companies))
		}
		if rng.Float64() < 0.6 {
			w.addFact(p, "profession", pick(rng, professions))
		}
	}

	for _, f := range films {
		w.addFact(f, "director", pick(rng, persons))
		for i := 0; i < 1+rng.IntN(3); i++ {
			w.addFact(f, "starring", pick(rng, persons))
		}
		w.addFact(f, "filmGenre", pick(rng, genres))
		if rng.Float64() < 0.7 {
			w.addFact(f, "studio", pick(rng, companies))
		}
	}
	for _, b := range books {
		w.addFact(b, "author", pick(rng, persons))
		w.addFact(b, "literaryGenre", pick(rng, genres))
	}
	for _, b := range bands {
		w.addFact(b, "bandGenre", pick(rng, genres))
		if rng.Float64() < 0.8 {
			w.addFact(b, "bandOrigin", pick(rng, cities))
		}
	}
	for i, a := range albums {
		w.addFact(a, "artist", bands[i%len(bands)])
	}

	return w
}

// makeEntities creates n entities of type et with Zipfian popularity:
// popularity(rank) = (rank+1)^-0.65, so each pool has a head and a long tail.
func (w *World) makeEntities(et EntityType, n int, name func() string) []*Entity {
	out := make([]*Entity, 0, n)
	for i := 0; i < n; i++ {
		label := name()
		// Ensure global label uniqueness with a numeric disambiguator,
		// mirroring Wikipedia-style "Name (2)" pages.
		if _, dup := w.byLabel[label]; dup {
			for k := 2; ; k++ {
				cand := fmt.Sprintf("%s %d", label, k)
				if _, dup2 := w.byLabel[cand]; !dup2 {
					label = cand
					break
				}
			}
		}
		local := strings.ReplaceAll(label, " ", "_")
		e := &Entity{
			IRI:        kg.IRI("urn:world:" + local),
			Label:      label,
			Type:       et,
			Popularity: math.Pow(float64(i+1), -0.65),
		}
		w.Entities = append(w.Entities, e)
		w.byType[et] = append(w.byType[et], e)
		w.byLabel[label] = e
		out = append(out, e)
	}
	return out
}

func (w *World) addFact(s *Entity, rel string, o *Entity) {
	r := RelationByName(rel)
	if r == nil {
		panic("world: unknown relation " + rel)
	}
	if s.Type != r.Domain || o.Type != r.Range {
		panic(fmt.Sprintf("world: relation %s domain/range violation: %s(%s) -> %s(%s)",
			rel, s.Label, s.Type, o.Label, o.Type))
	}
	f := Fact{S: s, O: o, Relation: r}
	k := f.Key()
	if w.factSet[k] {
		return
	}
	w.factSet[k] = true
	w.Facts = append(w.Facts, f)
	ok := kg.LocalName(s.IRI) + "|" + rel
	if w.objectsOf[ok] == nil {
		w.objectsOf[ok] = map[string]bool{}
	}
	w.objectsOf[ok][kg.LocalName(o.IRI)] = true
}

func pick[T any](rng *rand.Rand, s []T) T { return s[rng.IntN(len(s))] }

// nameGen builds pronounceable synthetic names from syllables.
type nameGen struct {
	rng *rand.Rand
}

func newNameGen(rng *rand.Rand) *nameGen { return &nameGen{rng: rng} }

var (
	sylA = []string{"ka", "ri", "lon", "dor", "mar", "vel", "an", "ti", "os", "ber", "na", "sel", "tor", "mi", "ran", "fal", "du", "pet", "gal", "or", "win", "cas", "el", "bra", "tho"}
	sylB = []string{"ia", "on", "ar", "en", "us", "ix", "ell", "ov", "ine", "ath", "or", "eth", "an", "ys", "em"}
)

func (g *nameGen) word(minSyl, maxSyl int) string {
	n := minSyl + g.rng.IntN(maxSyl-minSyl+1)
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i == n-1 && g.rng.Float64() < 0.5 {
			b.WriteString(sylB[g.rng.IntN(len(sylB))])
		} else {
			b.WriteString(sylA[g.rng.IntN(len(sylA))])
		}
	}
	s := b.String()
	return strings.ToUpper(s[:1]) + s[1:]
}

func (g *nameGen) person() string  { return g.word(2, 3) + " " + g.word(2, 3) }
func (g *nameGen) country() string { return g.word(2, 3) + "ia" }
func (g *nameGen) city() string    { return g.word(2, 3) }
func (g *nameGen) language() string {
	return g.word(2, 2) + "ese"
}
func (g *nameGen) university() string {
	return "University of " + g.word(2, 3)
}
func (g *nameGen) company() string {
	suffix := []string{"Corp", "Industries", "Systems", "Group", "Labs"}
	return g.word(2, 3) + " " + suffix[g.rng.IntN(len(suffix))]
}
func (g *nameGen) award() string {
	kind := []string{"Prize", "Medal", "Award"}
	return g.word(2, 2) + " " + kind[g.rng.IntN(len(kind))]
}
func (g *nameGen) team() string {
	suffix := []string{"United", "FC", "Rovers", "Athletic", "Wanderers"}
	return g.word(2, 2) + " " + suffix[g.rng.IntN(len(suffix))]
}
func (g *nameGen) band() string {
	if g.rng.Float64() < 0.5 {
		return "The " + g.word(2, 2) + "s"
	}
	return g.word(2, 3)
}
func (g *nameGen) film() string {
	pat := g.rng.IntN(3)
	switch pat {
	case 0:
		return "The " + g.word(2, 2) + " of " + g.word(2, 2)
	case 1:
		return g.word(2, 3) + " Rising"
	default:
		return g.word(2, 2) + " and " + g.word(2, 2)
	}
}
func (g *nameGen) book() string {
	if g.rng.Float64() < 0.5 {
		return "A History of " + g.word(2, 3)
	}
	return "The " + g.word(2, 2) + " Chronicles"
}
func (g *nameGen) album() string { return g.word(2, 3) + " Sessions" }
func (g *nameGen) genre() string {
	base := []string{"noir", "epic", "lyric", "pastoral", "urban", "cosmic", "retro", "modern", "folk", "industrial", "chamber", "electric", "acoustic", "baroque", "minimal", "ambient", "satirical", "heroic"}
	// genres come from a fixed pool; the generator cycles deterministically.
	s := base[g.rng.IntN(len(base))]
	return strings.ToUpper(s[:1]) + s[1:] + " " + []string{"Drama", "Fiction", "Rock", "Jazz", "Wave"}[g.rng.IntN(5)]
}
func (g *nameGen) profession() string {
	base := []string{"Architect", "Historian", "Engineer", "Painter", "Composer", "Journalist", "Biologist", "Diplomat", "Actor", "Novelist", "Economist", "Chemist", "Sculptor", "Pilot", "Cartographer", "Astronomer", "Linguist", "Surgeon", "Geologist", "Photographer", "Choreographer", "Botanist", "Philosopher", "Violinist"}
	return base[g.rng.IntN(len(base))]
}
