// Package hierarchy implements §4–5 of the paper: rw-levels and
// rwtg-levels, the `higher` partial order, object classification
// (Theorem 4.5), and the security predicate for hierarchical protection
// graphs (Theorem 5.2).
//
// The de facto flow relation is represented as a step digraph: an edge
// u → v means "u learns v's information in one de facto step". rw-levels
// are the strongly connected components of that digraph; `higher` is the
// reachability order of its condensation (Proposition 4.4: a strict
// partial order). Everything is O(V+E) via Kosaraju's algorithm — the
// alternative, deciding can•know•f pairwise, is quadratic and appears as
// an ablation benchmark.
//
// Two derivation paths exist. AnalyzeRW/AnalyzeRWTG (derive.go) run over
// the graph's frozen CSR snapshot on flat int32 arrays with an optional
// worker pool, budget and probe; AnalyzeRWReference (rwtg.go) is the
// original map-based derivation, retained as the independent oracle for
// the equivalence property tests and the E20 ablation baseline. The
// Engine (engine.go) maintains a Structure incrementally across monotone
// mutations.
package hierarchy

import (
	"fmt"
	"math/bits"

	"takegrant/internal/graph"
	"takegrant/internal/rights"
)

// Structure is the level decomposition of a protection graph: a partition
// of (a subset of) its vertices into levels plus the `higher` partial order.
type Structure struct {
	g      *graph.Graph
	levels [][]graph.ID
	// of[v] is the level index of vertex v, or -1 when v is not in the
	// structure (dead vertices; objects under rwtg analysis). Indexed by
	// ID — the guard consults it on every rule application, so it is a
	// flat array load, not a map probe.
	of []int32
	// reach[i] is level i's bitset row: bit j is set when information can
	// flow from level j to level i (level i knows level j, so i is higher
	// than j). The order is sparse, so rows grow on demand: a bit past a
	// row's end reads false, and a fresh level's row is nil. Invariant: no
	// row has its own bit set (levels already collapse cycles) and the
	// relation is transitively closed, so it is a strict partial order.
	reach []bitrow
}

// bitrow is a growable bitset over level indexes.
type bitrow []uint64

func (r bitrow) has(j int) bool {
	w := j >> 6
	return w < len(r) && r[w]&(1<<(j&63)) != 0
}

// with returns r with bit j set, growing it as needed.
func (r bitrow) with(j int) bitrow {
	for j>>6 >= len(r) {
		r = append(r, 0)
	}
	r[j>>6] |= 1 << (j & 63)
	return r
}

func (r bitrow) clear(j int) {
	if w := j >> 6; w < len(r) {
		r[w] &^= 1 << (j & 63)
	}
}

// or returns r ∪ o, growing r to o's length as needed.
func (r bitrow) or(o bitrow) bitrow {
	for len(r) < len(o) {
		r = append(r, 0)
	}
	for w, x := range o {
		r[w] |= x
	}
	return r
}

func (r bitrow) empty() bool {
	for _, x := range r {
		if x != 0 {
			return false
		}
	}
	return true
}

// each calls fn for every set bit, in ascending order.
func (r bitrow) each(fn func(j int)) {
	for w, x := range r {
		for x != 0 {
			fn(w<<6 | bits.TrailingZeros64(x))
			x &= x - 1
		}
	}
}

// stepTargets returns the single-step de facto successors of u: the
// vertices whose information u learns in one step.
func stepTargets(g *graph.Graph, u graph.ID) []graph.ID {
	var out []graph.ID
	uSubj := g.IsSubject(u)
	for _, h := range g.Out(u) {
		// u reads h.Other: explicit read needs an acting subject; an
		// implicit read edge records a flow that already happened.
		if (uSubj && h.Explicit.Has(rights.Read)) || h.Implicit.Has(rights.Read) {
			out = append(out, h.Other)
		}
	}
	for _, h := range g.In(u) {
		// h.Other writes into u.
		if (g.IsSubject(h.Other) && h.Explicit.Has(rights.Write)) || h.Implicit.Has(rights.Write) {
			out = append(out, h.Other)
		}
	}
	return out
}

// AnalyzeRW computes the rw-level structure of g: levels are maximal sets
// of vertices with mutual can•know•f, i.e. strongly connected components of
// the de facto step digraph (Proposition 4.1). It runs the snapshot-backed
// flat-array derivation; see AnalyzeRWObs for the budgeted, instrumented,
// parallel entry point.
func AnalyzeRW(g *graph.Graph) *Structure {
	s, err := AnalyzeRWObs(g, Options{})
	if err != nil {
		panic(err) // unreachable: a nil budget never trips
	}
	return s
}

type frame struct {
	v    graph.ID
	succ []graph.ID
	i    int
}

// computeReach sets bit j of row i when level i reaches level j in the
// condensation (information flows j → i), one BFS per level.
func (s *Structure) computeReach(succ func(graph.ID) []graph.ID) {
	n := len(s.levels)
	adj := make([]map[int]bool, n)
	for i := range adj {
		adj[i] = make(map[int]bool)
	}
	for i, lvl := range s.levels {
		for _, v := range lvl {
			for _, w := range succ(v) {
				if j := s.LevelOf(w); j >= 0 && j != i {
					adj[i][j] = true
				}
			}
		}
	}
	s.reach = make([]bitrow, n)
	for i := 0; i < n; i++ {
		queue := []int{i}
		seen := make([]bool, n)
		seen[i] = true
		for len(queue) > 0 {
			c := queue[0]
			queue = queue[1:]
			for j := range adj[c] {
				if !seen[j] {
					seen[j] = true
					s.reach[i] = s.reach[i].with(j)
					queue = append(queue, j)
				}
			}
		}
	}
}

// NumLevels returns the number of levels.
func (s *Structure) NumLevels() int { return len(s.levels) }

// Levels returns the level membership lists; index them with LevelOf.
func (s *Structure) Levels() [][]graph.ID { return s.levels }

// LevelOf returns the level index of v, or -1 if v is not in the structure
// (e.g. an object when analysing rwtg-levels, which contain only subjects).
func (s *Structure) LevelOf(v graph.ID) int {
	if v < 0 || int(v) >= len(s.of) {
		return -1
	}
	return int(s.of[v])
}

// SameLevel reports whether two vertices share a level.
func (s *Structure) SameLevel(a, b graph.ID) bool {
	ia, ib := s.LevelOf(a), s.LevelOf(b)
	return ia >= 0 && ia == ib
}

// HigherLevel reports whether level i is strictly higher than level j:
// information flows from j to i but not back.
func (s *Structure) HigherLevel(i, j int) bool {
	if i == j || i < 0 || j < 0 {
		return false
	}
	return s.reach[i].has(j) && !s.reach[j].has(i)
}

// Higher reports whether vertex a is strictly higher than vertex b.
func (s *Structure) Higher(a, b graph.ID) bool {
	ia, ib := s.LevelOf(a), s.LevelOf(b)
	return ia >= 0 && ib >= 0 && s.HigherLevel(ia, ib)
}

// Comparable reports whether the two levels are ordered either way.
func (s *Structure) Comparable(i, j int) bool {
	return i == j || s.HigherLevel(i, j) || s.HigherLevel(j, i)
}

// Knows reports whether information can flow from b to a under the
// structure's relation (a is higher than or level with b).
func (s *Structure) Knows(a, b graph.ID) bool {
	ia, ib := s.LevelOf(a), s.LevelOf(b)
	if ia < 0 || ib < 0 {
		return false
	}
	return ia == ib || s.reach[ia].has(ib)
}

// CheckPartialOrder verifies Proposition 4.4 on this structure: `higher`
// must be irreflexive and transitive. It returns nil when the proposition
// holds (it always should; a non-nil result indicates a bug).
func (s *Structure) CheckPartialOrder() error {
	n := len(s.levels)
	for i := 0; i < n; i++ {
		if s.HigherLevel(i, i) {
			return fmt.Errorf("hierarchy: level %d higher than itself", i)
		}
		for j := 0; j < n; j++ {
			if !s.HigherLevel(i, j) {
				continue
			}
			if s.HigherLevel(j, i) {
				return fmt.Errorf("hierarchy: levels %d and %d mutually higher", i, j)
			}
			for k := 0; k < n; k++ {
				if s.HigherLevel(j, k) && !s.HigherLevel(i, k) {
					return fmt.Errorf("hierarchy: transitivity broken %d>%d>%d", i, j, k)
				}
			}
		}
	}
	return nil
}

// ObjectLevel implements Theorem 4.5's classification rule: an object
// belongs to the lowest rw-level whose subjects have explicit read or write
// access to it. The second result is false when no subject accesses the
// object. "Lowest" is any minimal accessor level; the accessor levels of a
// sensibly-built hierarchy are totally ordered.
func (s *Structure) ObjectLevel(o graph.ID) (int, bool) {
	if !s.g.IsObject(o) {
		return -1, false
	}
	var accessors []int
	seen := make(map[int]bool)
	add := func(v graph.ID) {
		if !s.g.IsSubject(v) {
			return
		}
		if i := s.LevelOf(v); i >= 0 && !seen[i] {
			seen[i] = true
			accessors = append(accessors, i)
		}
	}
	for _, h := range s.g.In(o) {
		if h.Explicit.HasAny(rights.RW) {
			add(h.Other)
		}
	}
	if len(accessors) == 0 {
		return -1, false
	}
	lowest := accessors[0]
	for _, i := range accessors[1:] {
		if s.HigherLevel(lowest, i) {
			lowest = i
		}
	}
	return lowest, true
}

// setLevelOf grows the of array as needed and records v's level.
func (s *Structure) setLevelOf(v graph.ID, idx int32) {
	for int(v) >= len(s.of) {
		s.of = append(s.of, -1)
	}
	s.of[v] = idx
}
