package world

import "math/rand/v2"

// ByType returns the entities of the given type in generation order
// (most popular first).
func (w *World) ByType(t EntityType) []*Entity { return w.byType[t] }

// ByLabel resolves an entity by its unique label, or nil.
func (w *World) ByLabel(label string) *Entity { return w.byLabel[label] }

// IsTrueFact reports whether (sLocal, relation, oLocal) is a true statement
// of the world, where sLocal/oLocal are entity IRI local names.
func (w *World) IsTrueFact(sLocal, relName, oLocal string) bool {
	return w.factSet[sLocal+"|"+relName+"|"+oLocal]
}

// TrueObjects returns the true object local names of (sLocal, relName).
func (w *World) TrueObjects(sLocal, relName string) map[string]bool {
	return w.objectsOf[sLocal+"|"+relName]
}

// CorruptionStrategy names the negative-sampling strategies FactBench uses
// (paper §4.1: "incorrect facts generated through various negative sampling
// strategies", respecting domain and range constraints).
type CorruptionStrategy string

// The supported strategies. All preserve domain/range typing so negatives
// are plausible, exactly as the FactBench generator does.
const (
	// CorruptObject replaces the object with another entity of the same
	// type for which the statement is false.
	CorruptObject CorruptionStrategy = "object"
	// CorruptSubject replaces the subject analogously.
	CorruptSubject CorruptionStrategy = "subject"
	// CorruptPredicate rewires the fact onto a different relation with the
	// same domain/range signature (e.g. birthPlace -> deathPlace).
	CorruptPredicate CorruptionStrategy = "predicate"
)

// AllCorruptionStrategies lists the strategies in deterministic order.
var AllCorruptionStrategies = []CorruptionStrategy{
	CorruptObject, CorruptSubject, CorruptPredicate,
}

// Corrupt derives a false fact from the true fact f using the given
// strategy. The result respects the relation's domain/range constraints and
// is guaranteed not to be a true fact of the world. The boolean result is
// false when the strategy cannot produce a corruption (e.g. no alternative
// relation with the same signature); callers should fall back to another
// strategy.
func (w *World) Corrupt(f Fact, strat CorruptionStrategy, rng *rand.Rand) (Fact, bool) {
	const maxTries = 64
	switch strat {
	case CorruptObject:
		pool := w.byType[f.Relation.Range]
		for i := 0; i < maxTries; i++ {
			o := pool[rng.IntN(len(pool))]
			if o == f.O || o == f.S {
				continue
			}
			c := Fact{S: f.S, O: o, Relation: f.Relation}
			if !w.factSet[c.Key()] {
				return c, true
			}
		}
	case CorruptSubject:
		pool := w.byType[f.Relation.Domain]
		for i := 0; i < maxTries; i++ {
			s := pool[rng.IntN(len(pool))]
			if s == f.S || s == f.O {
				continue
			}
			c := Fact{S: s, O: f.O, Relation: f.Relation}
			if !w.factSet[c.Key()] {
				return c, true
			}
		}
	case CorruptPredicate:
		var alts []*Relation
		for _, r := range Relations {
			if r != f.Relation && r.Domain == f.Relation.Domain && r.Range == f.Relation.Range {
				alts = append(alts, r)
			}
		}
		if len(alts) == 0 {
			return Fact{}, false
		}
		for i := 0; i < maxTries; i++ {
			r := alts[rng.IntN(len(alts))]
			c := Fact{S: f.S, O: f.O, Relation: r}
			if !w.factSet[c.Key()] {
				return c, true
			}
		}
	}
	return Fact{}, false
}

// FactsByRelation groups the world's facts by relation name.
func (w *World) FactsByRelation() map[string][]Fact {
	out := map[string][]Fact{}
	for _, f := range w.Facts {
		out[f.Relation.Name] = append(out[f.Relation.Name], f)
	}
	return out
}
