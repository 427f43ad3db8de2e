package graph

import (
	"takegrant/internal/rights"
)

// TGIndex is a union-find partition of vertices into tg-islands: the
// maximal subject-only subgraphs connected by explicit take-or-grant
// edges in either direction (the "islands" of Theorem 2.3). Only subject
// vertices are ever unioned; objects and deleted vertices stay singletons
// and callers are expected to guard membership queries with IsSubject.
//
// The index is maintained incrementally by the Graph's mutation paths:
// adding an explicit t/g edge between two subjects merges their sets in
// near-constant time (the monotone, overwhelmingly common case), while
// the rare non-monotone mutations — removing a tg edge, deleting a
// tg-connected subject — invalidate the index and the next TGIslands call
// rebuilds it from scratch in one pass over the edges.
//
// find performs NO path compression: after mutation stops, any number of
// readers may walk the parent chains concurrently (the same contract as
// the rest of the Graph). Union by rank alone keeps chains logarithmic.
type TGIndex struct {
	parent []int32
	rank   []uint8
}

func (x *TGIndex) find(v int32) int32 {
	for x.parent[v] != v {
		v = x.parent[v]
	}
	return v
}

func (x *TGIndex) union(a, b int32) {
	ra, rb := x.find(a), x.find(b)
	if ra == rb {
		return
	}
	if x.rank[ra] < x.rank[rb] {
		ra, rb = rb, ra
	}
	x.parent[rb] = ra
	if x.rank[ra] == x.rank[rb] {
		x.rank[ra]++
	}
}

// Root returns the canonical representative of v's tg-island. Roots are
// stable between mutations but arbitrary across rebuilds: compare roots,
// never store them. Out-of-range IDs return None.
func (x *TGIndex) Root(v ID) ID {
	if v < 0 || int(v) >= len(x.parent) {
		return None
	}
	return ID(x.find(int32(v)))
}

// Same reports whether a and b lie in the same tg-island. The caller is
// responsible for both being live subjects.
func (x *TGIndex) Same(a, b ID) bool {
	ra, rb := x.Root(a), x.Root(b)
	return ra != None && ra == rb
}

// TGIslands returns the incrementally maintained tg-island index,
// rebuilding it only when a non-monotone mutation invalidated it. Safe for
// concurrent use under the Graph's reader contract.
func (g *Graph) TGIslands() *TGIndex {
	g.islMu.Lock()
	defer g.islMu.Unlock()
	if g.isl == nil {
		g.isl = buildTGIndex(g)
		g.islBuilds++
	} else {
		g.islHits++
	}
	return g.isl
}

// IslandStats reports the island index's lifetime counters: lookups that
// reused the live index (hits), from-scratch rebuilds (builds), in-place
// monotone merges (unions) and invalidations by non-monotone mutations.
// Safe for concurrent use.
func (g *Graph) IslandStats() (hits, builds, unions, invalidates uint64) {
	g.islMu.Lock()
	defer g.islMu.Unlock()
	return g.islHits, g.islBuilds, g.islUnions, g.islInvalidates
}

// SameTGIsland reports whether live subjects a and b share a tg-island,
// via the maintained index.
func (g *Graph) SameTGIsland(a, b ID) bool {
	if !g.IsSubject(a) || !g.IsSubject(b) {
		return false
	}
	return g.TGIslands().Same(a, b)
}

// buildTGIndex is the from-scratch rebuild: one union per explicit
// subject→subject edge carrying t or g. It streams the revision-cached
// CSR snapshot's edge arrays instead of iterating the adjacency maps —
// array scans rather than a pointer chase through V map headers, and
// the snapshot is almost always already built for the revision being
// queried. Lock order: TGIslands holds islMu and
// Snapshot takes adjMu; no path acquires islMu while holding adjMu, so
// the nesting is safe.
func buildTGIndex(g *Graph) *TGIndex {
	s := g.Snapshot()
	n := s.Cap()
	x := &TGIndex{parent: make([]int32, n), rank: make([]uint8, n)}
	for i := range x.parent {
		x.parent[i] = int32(i)
	}
	// Pre-classify the label table: one HasAny per distinct label instead
	// of one per edge.
	tg := make([]bool, s.NumLabels())
	for li := range tg {
		tg[li] = s.labels[li].Explicit.HasAny(rights.TG)
	}
	for i := 0; i < n; i++ {
		if !s.IsSubject(ID(i)) {
			continue
		}
		dst, lbl := s.Out(ID(i))
		for j, d := range dst {
			if tg[lbl[j]] && s.IsSubject(d) {
				x.union(int32(i), int32(d))
			}
		}
	}
	return x
}

// islandAddVertex extends a live index with a fresh singleton; new
// vertices can never retroactively connect existing islands.
func (g *Graph) islandAddVertex() {
	g.islMu.Lock()
	if g.isl != nil {
		g.isl.parent = append(g.isl.parent, int32(len(g.isl.parent)))
		g.isl.rank = append(g.isl.rank, 0)
	}
	g.islMu.Unlock()
}

// islandAddExplicit folds a new explicit label into a live index: a t or g
// right between two subjects merges their islands. Monotone — no rebuild.
func (g *Graph) islandAddExplicit(src, dst ID, set rights.Set) {
	if !set.HasAny(rights.TG) ||
		g.vertices[src].kind != Subject || g.vertices[dst].kind != Subject {
		return
	}
	g.islMu.Lock()
	if g.isl != nil {
		g.isl.union(int32(src), int32(dst))
		g.islUnions++
	}
	g.islMu.Unlock()
}

// InvalidateIslandIndex drops the maintained island index so the next
// TGIslands call rebuilds from scratch. Exposed for the derived-index
// registry's Invalidate contract; the graph's own mutation paths use the
// internal form below.
func (g *Graph) InvalidateIslandIndex() { g.islandInvalidate() }

// islandInvalidate drops the index; the next TGIslands call rebuilds.
// Called on the non-monotone mutations (tg-edge removal, subject deletion
// with incident tg edges, revision restore) — a union-find cannot split.
func (g *Graph) islandInvalidate() {
	g.islMu.Lock()
	if g.isl != nil {
		g.islInvalidates++
	}
	g.isl = nil
	g.islMu.Unlock()
}
