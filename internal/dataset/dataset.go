// Package dataset builds the three benchmark datasets FactCheck evaluates
// on — FactBench, YAGO and DBpedia — from the synthetic world. Each builder
// reproduces the published characteristics of its dataset (paper Table 2):
//
//	FactBench: 2,800 facts, 10 predicates, 2.42 facts/entity, gold µ = 0.54,
//	           negatives generated by domain/range-preserving corruption.
//	YAGO:      1,386 facts, 16 predicates, 1.69 facts/entity, gold µ = 0.99
//	           (near-perfect accuracy -> positive-bias stress test).
//	DBpedia:   9,344 facts, 1,092 predicates, 3.18 facts/entity, µ = 0.85,
//	           with a long tail of infobox-style predicate variants.
//
// Datasets are deterministic in (world seed, dataset name, scale).
package dataset

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"sync/atomic"

	"factcheck/internal/det"
	"factcheck/internal/kg"
	"factcheck/internal/world"
)

// Name identifies a benchmark dataset.
type Name string

// The three datasets of the benchmark.
const (
	FactBench Name = "FactBench"
	YAGO      Name = "YAGO"
	DBpedia   Name = "DBpedia"
)

// AllNames lists the datasets in the paper's presentation order.
var AllNames = []Name{FactBench, YAGO, DBpedia}

// Fact is one labelled statement of a benchmark dataset.
type Fact struct {
	// ID is a stable dataset-scoped identifier, e.g. "factbench-000017".
	ID string
	// Dataset names the owning dataset.
	Dataset Name
	// Triple is the dataset-native KG encoding (namespaced IRIs, predicate
	// variants, underscores) that the verbalisation phase must clean up.
	Triple kg.Triple
	// PredicateName is the dataset-native predicate local name (for DBpedia
	// this is an infobox-style variant of the base relation).
	PredicateName string

	// Subject/Object/Relation point back into the synthetic world; Relation
	// is the base semantic relation regardless of surface predicate variant.
	Subject  *world.Entity
	Object   *world.Entity
	Relation *world.Relation

	// Gold is the ground-truth label: true facts hold in the world snapshot.
	Gold bool
	// Corruption records how a negative was derived ("" for positives).
	Corruption world.CorruptionStrategy
	// Popularity in (0,1]: how visible the fact is on the synthetic web.
	Popularity float64
	// Topic is the domain stratum used in the error-analysis study.
	Topic string

	// memo holds the state a higher layer derives from the fact once; see
	// Memo. The atomic also makes go vet reject copies of a Fact, which
	// would share the memo of a fact their fields may no longer match.
	memo atomic.Pointer[any]
}

// Memo returns the value build derives from the fact. The first call
// stores it; concurrent first calls may each run build, but all of them
// get the one value stored. The value lives exactly as long as the fact.
// Package strategy owns the slot (it keeps the fact's interned claim and
// explanation table there), so no other build may be passed.
func (f *Fact) Memo(build func(*Fact) any) any {
	if p := f.memo.Load(); p != nil {
		return *p
	}
	v := build(f)
	if f.memo.CompareAndSwap(nil, &v) {
		return v
	}
	return *f.memo.Load()
}

// Key returns the canonical world-level identity of the asserted statement
// (subject|relation|object by local names). For corrupted facts this key is
// NOT in the world's true-fact set; simulated models use it to consult their
// parametric knowledge.
func (f *Fact) Key() string {
	return kg.LocalName(f.Subject.IRI) + "|" + f.Relation.Name + "|" + kg.LocalName(f.Object.IRI)
}

// Dataset is a built benchmark dataset.
type Dataset struct {
	Name  Name
	Facts []*Fact
	// World is the generating universe (shared across datasets).
	World *world.World
}

// Stats are the Table 2 summary statistics.
type Stats struct {
	NumFacts       int
	NumPredicates  int
	FactsPerEntity float64
	GoldAccuracy   float64
}

// Stats computes the dataset's summary statistics.
func (d *Dataset) Stats() Stats {
	preds := map[string]bool{}
	subjects := map[kg.IRI]bool{}
	pos := 0
	for _, f := range d.Facts {
		preds[f.PredicateName] = true
		subjects[f.Subject.IRI] = true
		if f.Gold {
			pos++
		}
	}
	fpe := 0.0
	if len(subjects) > 0 {
		fpe = float64(len(d.Facts)) / float64(len(subjects))
	}
	mu := 0.0
	if len(d.Facts) > 0 {
		mu = float64(pos) / float64(len(d.Facts))
	}
	return Stats{
		NumFacts:       len(d.Facts),
		NumPredicates:  len(preds),
		FactsPerEntity: fpe,
		GoldAccuracy:   mu,
	}
}

// spec captures the published profile each builder targets.
type spec struct {
	size           int
	mu             float64 // gold accuracy
	relations      []string
	variantsPerRel int     // DBpedia-style predicate surface variants
	factsPerEntity float64 // target mean facts per subject entity
	resourceNS     string
	predicateNS    string
	popularityBias float64 // >0 prefers popular facts; 0 uniform
	// relWeights biases which of a subject's facts are sampled (default
	// weight 1); YAGO over-represents relationship and genre facts, which
	// shapes its error-category profile (paper Table 9).
	relWeights map[string]float64
}

func specFor(name Name) spec {
	switch name {
	case FactBench:
		return spec{
			size: 2800, mu: 0.54,
			relations: []string{
				"birthPlace", "deathPlace", "nationality", "isMarriedTo",
				"award", "playsFor", "director", "author", "foundedBy", "capital",
			},
			variantsPerRel: 1, factsPerEntity: 2.42,
			resourceNS: kg.NSDBpediaResource, predicateNS: kg.NSDBpediaOntology,
			popularityBias: 1.0,
		}
	case YAGO:
		return spec{
			size: 1386, mu: 0.99,
			relations: []string{
				"birthPlace", "deathPlace", "nationality", "isMarriedTo",
				"almaMater", "award", "playsFor", "director", "starring",
				"author", "foundedBy", "headquarter", "literaryGenre",
				"bandGenre", "filmGenre", "artist",
			},
			variantsPerRel: 1, factsPerEntity: 1.69,
			resourceNS: kg.NSYAGOResource, predicateNS: kg.NSYAGOResource,
			popularityBias: 1.6,
			relWeights: map[string]float64{
				"isMarriedTo":   6,
				"literaryGenre": 2.5,
				"bandGenre":     2.5,
				"filmGenre":     2.5,
				"birthPlace":    0.6,
				"deathPlace":    0.6,
				"nationality":   0.6,
				// Role relations are under-represented in the original
				// YAGO evaluation sample (its error profile shows almost
				// no role-attribution errors, paper Table 9).
				"playsFor": 0.35,
				"director": 0.35,
				"starring": 0.35,
				"author":   0.35,
				"artist":   0.35,
			},
		}
	case DBpedia:
		return spec{
			size: 9344, mu: 0.85,
			relations:      relationNames(), // all 26 base relations
			variantsPerRel: 49,              // ~1,092 surface predicates after sparse-relation losses
			factsPerEntity: 3.18,
			resourceNS:     kg.NSDBpediaResource, predicateNS: kg.NSDBpediaProperty,
			popularityBias: 0.3, // utility-oriented sampling reaches the tail
		}
	default:
		panic(fmt.Sprintf("dataset: unknown dataset %q", name))
	}
}

func relationNames() []string {
	out := make([]string, len(world.Relations))
	for i, r := range world.Relations {
		out[i] = r.Name
	}
	return out
}

// Build constructs the named dataset at the given scale (1.0 = published
// size; tests use smaller scales). Facts are sampled subject-grouped so the
// facts-per-entity ratio matches the paper, and negatives are derived by
// constraint-respecting corruption to hit the target gold accuracy.
func Build(w *world.World, name Name, scale float64) *Dataset {
	sp := specFor(name)
	size := int(math.Round(float64(sp.size) * scale))
	if size < 10 {
		size = 10
	}
	rng := det.Source("dataset", string(name), fmt.Sprintf("%.4f", scale))

	relSet := map[string]bool{}
	for _, r := range sp.relations {
		relSet[r] = true
	}
	// Group candidate world facts by subject, restricted to the relation
	// vocabulary, in first-fact order.
	bySubject := map[*world.Entity][]world.Fact{}
	var subjects []*world.Entity
	for _, f := range w.Facts {
		if !relSet[f.Relation.Name] {
			continue
		}
		if _, seen := bySubject[f.S]; !seen {
			subjects = append(subjects, f.S)
		}
		bySubject[f.S] = append(bySubject[f.S], f)
	}

	// Popularity-biased subject order: draw subjects with probability
	// proportional to popularity^bias via exponential sort keys. Ties on
	// the key fall to the IRI, so the order is total and does not depend
	// on the order subjects were collected in.
	type keyed struct {
		s *world.Entity
		k float64
	}
	keys := make([]keyed, len(subjects))
	for i, s := range subjects {
		p := math.Pow(s.Popularity, sp.popularityBias)
		u := det.Uniform("dataset-subj", string(name), string(s.IRI))
		// Gumbel trick: sort by log(p) + Gumbel noise for a weighted
		// permutation without replacement.
		g := -math.Log(-math.Log(clamp01(u)))
		keys[i] = keyed{s: s, k: math.Log(p+1e-12) + g}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].k != keys[j].k {
			return keys[i].k > keys[j].k
		}
		return keys[i].s.IRI < keys[j].s.IRI
	})

	d := &Dataset{Name: name, World: w}
	variantOf := newVariantTable(name, sp)

	taken, pos := 0, 0
	for _, ks := range keys {
		if taken >= size {
			break
		}
		facts := bySubject[ks.s]
		if len(sp.relWeights) > 0 {
			facts = weightedOrder(facts, sp.relWeights, string(name))
		}
		// Number of facts to take from this subject: distribute around the
		// target mean so the facts/entity ratio matches the spec.
		want := sampleCount(sp.factsPerEntity, rng.Float64())
		if want > len(facts) {
			// Prefer subjects rich enough to supply the target
			// facts-per-entity ratio; keep a minority of sparse subjects so
			// the subject mix stays diverse.
			if rng.Float64() < 0.8 {
				continue
			}
			want = len(facts)
		}
		for i := 0; i < want && taken < size; i++ {
			wf := facts[i]
			f := &Fact{
				Dataset:  name,
				Subject:  wf.S,
				Object:   wf.O,
				Relation: wf.Relation,
				Gold:     true,
				Topic:    wf.Relation.Topic,
			}
			// Interleave positives and negatives so the gold accuracy µ
			// holds at every prefix (Bresenham-style): the slot is positive
			// while the positive share is not yet ahead of target.
			wantPos := float64(pos) < sp.mu*float64(taken+1)
			if !wantPos {
				cf, strat, ok := corrupt(w, wf, relSet, rng)
				if !ok {
					continue // extremely unlikely; skip this slot
				}
				f.Subject, f.Object, f.Relation = cf.S, cf.O, cf.Relation
				f.Gold = false
				f.Corruption = strat
				f.Topic = cf.Relation.Topic
			} else {
				pos++
			}
			f.Popularity = 0.7*f.Subject.Popularity + 0.3*f.Object.Popularity
			f.PredicateName = variantOf(f.Relation, taken)
			f.ID = fmt.Sprintf("%s-%06d", strings.ToLower(string(name)), taken)
			f.Triple = encodeTriple(f, sp)
			d.Facts = append(d.Facts, f)
			taken++
		}
	}
	// Shuffle deterministically so positives and negatives interleave.
	rng.Shuffle(len(d.Facts), func(i, j int) {
		d.Facts[i], d.Facts[j] = d.Facts[j], d.Facts[i]
	})
	return d
}

func clamp01(u float64) float64 {
	if u <= 1e-12 {
		return 1e-12
	}
	if u >= 1-1e-12 {
		return 1 - 1e-12
	}
	return u
}

// corrupt derives a negative from wf with a deterministic strategy mix,
// keeping predicate corruptions inside the dataset's relation vocabulary
// (a FactBench negative must still use one of FactBench's 10 predicates).
// Falls back to object corruption when the drawn strategy cannot apply.
func corrupt(w *world.World, wf world.Fact, relSet map[string]bool, rng *rand.Rand) (world.Fact, world.CorruptionStrategy, bool) {
	strat := world.AllCorruptionStrategies[rng.IntN(len(world.AllCorruptionStrategies))]
	cf, ok := w.Corrupt(wf, strat, rng)
	if ok && strat == world.CorruptPredicate && !relSet[cf.Relation.Name] {
		ok = false
	}
	if !ok {
		strat = world.CorruptObject
		cf, ok = w.Corrupt(wf, strat, rng)
	}
	return cf, strat, ok
}

// weightedOrder sorts a subject's candidate facts by weighted priority
// (weighted random permutation: priority = U^(1/w), descending), so heavier
// relations are sampled first without changing the candidate set.
func weightedOrder(facts []world.Fact, weights map[string]float64, seed string) []world.Fact {
	type keyed struct {
		f   world.Fact
		key string
		k   float64
	}
	ks := make([]keyed, len(facts))
	for i, f := range facts {
		w := weights[f.Relation.Name]
		if w <= 0 {
			w = 1
		}
		key := f.Key()
		u := clamp01(det.Uniform("relorder", seed, key))
		ks[i] = keyed{f: f, key: key, k: math.Pow(u, 1/w)}
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].k != ks[j].k {
			return ks[i].k > ks[j].k
		}
		return ks[i].key < ks[j].key
	})
	out := make([]world.Fact, len(facts))
	for i, k := range ks {
		out[i] = k.f
	}
	return out
}

// sampleCount draws an integer around mean with the fractional part as a
// Bernoulli trial (mean 2.42 -> 2 or 3).
func sampleCount(mean, u float64) int {
	base := int(mean)
	frac := mean - float64(base)
	if u < frac {
		base++
	}
	if base < 1 {
		base = 1
	}
	return base
}

// encodeTriple renders the dataset-native triple. Entity local names use
// underscores (Alexander_III_of_Russia style); predicates use the dataset's
// namespace and surface variant.
func encodeTriple(f *Fact, sp spec) kg.Triple {
	s := kg.IRI(sp.resourceNS + underscored(f.Subject.Label))
	o := kg.IRI(sp.resourceNS + underscored(f.Object.Label))
	p := kg.IRI(sp.predicateNS + f.PredicateName)
	return kg.NewTriple(s, p, o)
}

func underscored(label string) string {
	return strings.ReplaceAll(label, " ", "_")
}

// newVariantTable returns a function assigning each fact a surface predicate
// variant. FactBench and YAGO use the base relation name; DBpedia cycles
// through infobox-style variants so the dataset exhibits the published
// 1,092-predicate schema diversity.
func newVariantTable(name Name, sp spec) func(r *world.Relation, i int) string {
	if sp.variantsPerRel <= 1 {
		return func(r *world.Relation, _ int) string { return r.Name }
	}
	cache := map[string][]string{}
	counter := map[string]int{}
	return func(r *world.Relation, _ int) string {
		vs, ok := cache[r.Name]
		if !ok {
			vs = predicateVariants(r.Name, sp.variantsPerRel)
			cache[r.Name] = vs
		}
		// Cycle variants with a per-relation counter so each relation's
		// first min(n, variantsPerRel) facts all use distinct surface forms,
		// maximising schema diversity like DBpedia's raw infobox data.
		i := counter[r.Name]
		counter[r.Name]++
		return vs[i%len(vs)]
	}
}

// predicateVariants derives n distinct infobox-style surface forms of a base
// predicate, mimicking DBpedia's dbp: property chaos (casing, underscores,
// synonym prefixes, column qualifiers).
func predicateVariants(base string, n int) []string {
	prefixes := []string{"", "has", "of", "main", "first", "second", "notable", "current", "former", "original", "primary", "alt"}
	suffixes := []string{"", "Name", "Info", "Label", "Field", "Data", "1", "2", "3"}
	seen := map[string]bool{}
	var out []string
	add := func(v string) {
		if v != "" && !seen[v] && len(out) < n {
			seen[v] = true
			out = append(out, v)
		}
	}
	add(base)
	add(strings.ToLower(base))
	add(camelToSnake(base))
	for _, p := range prefixes {
		for _, s := range suffixes {
			if len(out) >= n {
				return out
			}
			v := base
			if p != "" {
				v = p + strings.ToUpper(base[:1]) + base[1:]
			}
			add(v + s)
		}
	}
	// Pad with numbered forms if the combinatorics run short.
	for i := 0; len(out) < n; i++ {
		add(fmt.Sprintf("%sProp%d", base, i))
	}
	return out
}

func camelToSnake(s string) string {
	var b strings.Builder
	for i, r := range s {
		if r >= 'A' && r <= 'Z' {
			if i > 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r + ('a' - 'A'))
		} else {
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Universe builds all three datasets at the given scale over a shared world.
func Universe(w *world.World, scale float64) map[Name]*Dataset {
	out := map[Name]*Dataset{}
	for _, n := range AllNames {
		out[n] = Build(w, n, scale)
	}
	return out
}

// TotalFacts sums the sizes of the given datasets.
func TotalFacts(ds map[Name]*Dataset) int {
	n := 0
	for _, d := range ds {
		n += len(d.Facts)
	}
	return n
}
