// Package graph implements the protection graph of the Take-Grant model.
//
// A protection graph is a finite directed graph with two kinds of vertices —
// subjects (active; they can invoke rewriting rules) and objects (passive) —
// whose edges are labelled with subsets of a finite set of rights.
//
// Edges carry two labels: the explicit label records authority known to the
// protection system (only the de jure rules create or destroy explicit
// rights), and the implicit label records potential information-flow paths
// exhibited by the de facto rules. Implicit edges represent no authority and
// cannot be manipulated by the de jure rules.
//
// The Graph type is a mutable store with deterministic iteration order,
// cheap cloning, structural equality, diffing, and a canonical textual
// encoding used to deduplicate states during derivation-space exploration.
// It is not safe for concurrent mutation; concurrent readers are safe once
// mutation stops.
package graph

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"takegrant/internal/rights"
)

// ID identifies a vertex within one Graph. IDs are dense, start at 0, and
// are never reused; deleting a vertex leaves a hole.
type ID int32

// None is the invalid vertex ID.
const None ID = -1

// Kind distinguishes active subjects from passive objects.
type Kind uint8

const (
	// Subject vertices are active: they can invoke rules. Drawn as ● in
	// the paper.
	Subject Kind = iota
	// Object vertices are passive: files, documents. Drawn as ○.
	Object
)

func (k Kind) String() string {
	switch k {
	case Subject:
		return "subject"
	case Object:
		return "object"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// label is the pair of rights sets carried by one directed vertex pair.
type label struct {
	explicit rights.Set
	implicit rights.Set
}

func (l label) empty() bool { return l.explicit == 0 && l.implicit == 0 }

type vertex struct {
	name    string
	kind    Kind
	deleted bool
	// out and in are allocated lazily on first edge: bulk-loaded worlds
	// are dominated by leaf objects with no out-edges, and two empty maps
	// per vertex is hundreds of megabytes at the million-vertex scale.
	// All read paths (range, len, index, delete) treat nil as empty.
	out map[ID]label
	in  map[ID]struct{} // reverse index: which vertices have an edge to us
}

// Graph is a mutable protection graph. Create one with New.
type Graph struct {
	universe *rights.Universe
	vertices []vertex
	byName   map[string]ID
	revision uint64
	live     int
	numEdges int

	// adjMu guards snap, the frozen CSR snapshot used by the search
	// engines and Edges; it is stale once the revision moves. Mutations
	// record in dirty the vertices whose listings they changed, and the
	// next Snapshot refreshes snap from those rows (snapshot.go);
	// snapRebuild asks for a build from scratch instead. The counters feed
	// SnapshotStats.
	adjMu         sync.Mutex
	snap          *Snapshot
	dirty         map[ID]uint8
	snapRebuild   bool
	snapHits      uint64
	snapRefreshes uint64
	snapBuilds    uint64

	// islMu guards isl, the incrementally maintained tg-island union-find
	// (see tgisland.go); nil means "rebuild on next use". The counters feed
	// IslandStats.
	islMu          sync.Mutex
	isl            *TGIndex
	islHits        uint64
	islBuilds      uint64
	islUnions      uint64
	islInvalidates uint64

	// recorder, when set, observes every effective mutation (changes.go).
	recorder func(Change)
}

// New returns an empty protection graph over the given rights universe.
// A nil universe gets a fresh one containing only r, w, t, g.
func New(u *rights.Universe) *Graph {
	if u == nil {
		u = rights.NewUniverse()
	}
	return &Graph{universe: u, byName: make(map[string]ID)}
}

// Universe returns the rights universe labelling this graph's edges.
func (g *Graph) Universe() *rights.Universe { return g.universe }

// Grow pre-sizes the vertex table and name index for n additional
// vertices, sparing bulk loaders the incremental rehash/regrow cost. It
// changes no observable state.
func (g *Graph) Grow(n int) {
	if n <= 0 {
		return
	}
	if free := cap(g.vertices) - len(g.vertices); free < n {
		grown := make([]vertex, len(g.vertices), len(g.vertices)+n)
		copy(grown, g.vertices)
		g.vertices = grown
	}
	byName := make(map[string]ID, len(g.byName)+n)
	for k, v := range g.byName {
		byName[k] = v
	}
	g.byName = byName
}

// Revision returns a counter incremented by every successful mutation.
// Any result computed purely from the graph remains valid while the
// revision is unchanged — both the lazy adjacency snapshot below and the
// service layer's query cache (internal/qcache) key on it. Counters from
// different Graph instances are unrelated; cross-graph keys need an
// additional generation discriminator.
func (g *Graph) Revision() uint64 { return g.revision }

// RestoreRevision overwrites the revision counter. It exists for crash
// recovery: a graph rebuilt from a durable snapshot must resume the
// revision sequence the snapshot recorded, so that replayed journal
// mutations land on the same revisions as the originals and
// revision-keyed caches never conflate pre- and post-crash states. The
// lazy adjacency snapshot is dropped — it may have been built at a now-
// colliding counter value over different edges — and so is the island
// index.
func (g *Graph) RestoreRevision(rev uint64) {
	g.adjMu.Lock()
	g.revision = rev
	g.snap = nil
	g.dirty = nil
	g.adjMu.Unlock()
	g.islandInvalidate()
	g.record(Change{Kind: ChangeDestructive, Src: None, Dst: None})
}

// NumVertices returns the number of live (non-deleted) vertices.
func (g *Graph) NumVertices() int { return g.live }

// Cap returns the upper bound on vertex IDs: all live IDs are < Cap().
func (g *Graph) Cap() int { return len(g.vertices) }

// NumEdges returns the number of directed vertex pairs carrying a non-empty
// explicit or implicit label.
func (g *Graph) NumEdges() int { return g.numEdges }

func (g *Graph) addVertex(name string, kind Kind) (ID, error) {
	if name == "" {
		return None, fmt.Errorf("graph: empty vertex name")
	}
	if strings.ContainsAny(name, " \t\n\r(){}") {
		return None, fmt.Errorf("graph: invalid vertex name %q", name)
	}
	if _, dup := g.byName[name]; dup {
		return None, fmt.Errorf("graph: duplicate vertex name %q", name)
	}
	id := ID(len(g.vertices))
	g.vertices = append(g.vertices, vertex{name: name, kind: kind})
	g.byName[name] = id
	g.revision++
	g.live++
	g.markRows(id, rowsOut|rowsIn)
	g.islandAddVertex()
	g.record(Change{Kind: ChangeAddVertex, Src: id, Dst: None})
	return id, nil
}

// AddSubject adds a subject vertex with a unique name.
func (g *Graph) AddSubject(name string) (ID, error) { return g.addVertex(name, Subject) }

// AddObject adds an object vertex with a unique name.
func (g *Graph) AddObject(name string) (ID, error) { return g.addVertex(name, Object) }

// MustSubject adds a subject and panics on error; for building fixtures.
func (g *Graph) MustSubject(name string) ID {
	id, err := g.AddSubject(name)
	if err != nil {
		panic(err)
	}
	return id
}

// MustObject adds an object and panics on error; for building fixtures.
func (g *Graph) MustObject(name string) ID {
	id, err := g.AddObject(name)
	if err != nil {
		panic(err)
	}
	return id
}

// Lookup returns the vertex with the given name.
func (g *Graph) Lookup(name string) (ID, bool) {
	id, ok := g.byName[name]
	return id, ok
}

// Valid reports whether id names a live vertex.
func (g *Graph) Valid(id ID) bool {
	return id >= 0 && int(id) < len(g.vertices) && !g.vertices[id].deleted
}

func (g *Graph) mustLive(id ID) *vertex {
	if !g.Valid(id) {
		panic(fmt.Sprintf("graph: invalid vertex id %d", id))
	}
	return &g.vertices[id]
}

// Name returns the vertex's name.
func (g *Graph) Name(id ID) string { return g.mustLive(id).name }

// KindOf returns whether the vertex is a subject or an object.
func (g *Graph) KindOf(id ID) Kind { return g.mustLive(id).kind }

// IsSubject reports whether id is a live subject vertex.
func (g *Graph) IsSubject(id ID) bool { return g.Valid(id) && g.vertices[id].kind == Subject }

// IsObject reports whether id is a live object vertex.
func (g *Graph) IsObject(id ID) bool { return g.Valid(id) && g.vertices[id].kind == Object }

// DeleteVertex removes a vertex and every edge incident to it. The ID is
// not reused.
func (g *Graph) DeleteVertex(id ID) error {
	if !g.Valid(id) {
		return fmt.Errorf("graph: invalid vertex id %d", id)
	}
	v := &g.vertices[id]
	// Island-index maintenance: deleting a subject with incident explicit
	// tg edges to other subjects can split an island — invalidate. A
	// tg-isolated vertex leaves every other island untouched (the stale
	// singleton is unreachable through IsSubject guards).
	if v.kind == Subject {
		splits := false
		for dst, l := range v.out {
			if l.explicit.HasAny(rights.TG) && g.IsSubject(dst) {
				splits = true
				break
			}
		}
		if !splits {
			for src := range v.in {
				if g.vertices[src].kind == Subject &&
					g.vertices[src].out[id].explicit.HasAny(rights.TG) {
					splits = true
					break
				}
			}
		}
		if splits {
			g.islandInvalidate()
		}
	}
	g.numEdges -= len(v.out) + len(v.in)
	g.rebuildSnapshot()
	for dst := range v.out {
		delete(g.vertices[dst].in, id)
	}
	for src := range v.in {
		delete(g.vertices[src].out, id)
	}
	delete(g.byName, v.name)
	v.out, v.in = nil, nil
	v.deleted = true
	g.revision++
	g.live--
	g.record(Change{Kind: ChangeDestructive, Src: id, Dst: None})
	return nil
}

// Vertices returns all live vertex IDs in ascending order.
func (g *Graph) Vertices() []ID {
	out := make([]ID, 0, g.live)
	for i := range g.vertices {
		if !g.vertices[i].deleted {
			out = append(out, ID(i))
		}
	}
	return out
}

// Subjects returns all live subject IDs in ascending order.
func (g *Graph) Subjects() []ID {
	var out []ID
	for i := range g.vertices {
		if !g.vertices[i].deleted && g.vertices[i].kind == Subject {
			out = append(out, ID(i))
		}
	}
	return out
}

// Objects returns all live object IDs in ascending order.
func (g *Graph) Objects() []ID {
	var out []ID
	for i := range g.vertices {
		if !g.vertices[i].deleted && g.vertices[i].kind == Object {
			out = append(out, ID(i))
		}
	}
	return out
}

// AddExplicit adds the rights in set to the explicit label of the edge
// src→dst, creating the edge if needed. Self-edges are rejected: the model's
// rules only relate distinct vertices.
func (g *Graph) AddExplicit(src, dst ID, set rights.Set) error {
	return g.addLabel(src, dst, set, false)
}

// AddImplicit adds the rights in set to the implicit label of src→dst.
// De facto rules only ever add read; the set is typically rights.R.
func (g *Graph) AddImplicit(src, dst ID, set rights.Set) error {
	return g.addLabel(src, dst, set, true)
}

func (g *Graph) addLabel(src, dst ID, set rights.Set, implicit bool) error {
	if src == dst {
		return fmt.Errorf("graph: self-edge on vertex %d", src)
	}
	if !g.Valid(src) || !g.Valid(dst) {
		return fmt.Errorf("graph: invalid edge %d→%d", src, dst)
	}
	if set.Empty() {
		return nil
	}
	s := &g.vertices[src]
	l, had := s.out[dst]
	var added rights.Set
	if implicit {
		added = set.Minus(l.implicit)
		l.implicit = l.implicit.Union(set)
	} else {
		added = set.Minus(l.explicit)
		l.explicit = l.explicit.Union(set)
		g.islandAddExplicit(src, dst, set)
	}
	if s.out == nil {
		s.out = make(map[ID]label)
	}
	s.out[dst] = l
	d := &g.vertices[dst]
	if d.in == nil {
		d.in = make(map[ID]struct{})
	}
	d.in[src] = struct{}{}
	g.revision++
	if !had {
		g.numEdges++
	}
	if !added.Empty() {
		g.markRows(src, rowsOut)
		g.markRows(dst, rowsIn)
		kind := ChangeAddExplicit
		if implicit {
			kind = ChangeAddImplicit
		}
		g.record(Change{Kind: kind, Src: src, Dst: dst, Set: added})
	}
	return nil
}

// RemoveExplicit deletes the rights in set from the explicit label of
// src→dst. If both labels become empty the edge disappears. Removing rights
// from a non-existent edge is a no-op, mirroring the remove rule's
// tolerance.
func (g *Graph) RemoveExplicit(src, dst ID, set rights.Set) error {
	if !g.Valid(src) || !g.Valid(dst) {
		return fmt.Errorf("graph: invalid edge %d→%d", src, dst)
	}
	s := &g.vertices[src]
	l, ok := s.out[dst]
	if !ok {
		return nil
	}
	had := l.explicit
	l.explicit = l.explicit.Minus(set)
	// Island-index maintenance: losing the last t/g right on a
	// subject→subject edge can split an island — non-monotone, invalidate.
	if had.HasAny(rights.TG) && !l.explicit.HasAny(rights.TG) &&
		s.kind == Subject && g.vertices[dst].kind == Subject {
		g.islandInvalidate()
	}
	g.setLabel(src, dst, l)
	g.revision++
	if removed := had.Minus(l.explicit); !removed.Empty() {
		g.record(Change{Kind: ChangeRemoveExplicit, Src: src, Dst: dst, Set: removed})
	}
	return nil
}

// RemoveImplicit deletes the rights in set from the implicit label of
// src→dst; used when de facto closures are recomputed.
func (g *Graph) RemoveImplicit(src, dst ID, set rights.Set) error {
	if !g.Valid(src) || !g.Valid(dst) {
		return fmt.Errorf("graph: invalid edge %d→%d", src, dst)
	}
	s := &g.vertices[src]
	l, ok := s.out[dst]
	if !ok {
		return nil
	}
	had := l.implicit
	l.implicit = l.implicit.Minus(set)
	g.setLabel(src, dst, l)
	g.revision++
	if removed := had.Minus(l.implicit); !removed.Empty() {
		g.record(Change{Kind: ChangeRemoveImplicit, Src: src, Dst: dst, Set: removed})
	}
	return nil
}

// ClearImplicit removes every implicit label in the graph.
func (g *Graph) ClearImplicit() {
	g.rebuildSnapshot()
	for i := range g.vertices {
		v := &g.vertices[i]
		if v.deleted {
			continue
		}
		for dst, l := range v.out {
			l.implicit = 0
			g.setLabel(ID(i), dst, l)
		}
	}
	g.revision++
	g.record(Change{Kind: ChangeDestructive, Src: None, Dst: None})
}

// setLabel replaces the label of the existing edge src→dst, deleting the
// edge when l is empty.
func (g *Graph) setLabel(src, dst ID, l label) {
	if g.vertices[src].out[dst] == l {
		return
	}
	if l.empty() {
		delete(g.vertices[src].out, dst)
		delete(g.vertices[dst].in, src)
		g.numEdges--
	} else {
		g.vertices[src].out[dst] = l
	}
	g.markRows(src, rowsOut)
	g.markRows(dst, rowsIn)
}

// Explicit returns the explicit label of src→dst (empty if no edge).
func (g *Graph) Explicit(src, dst ID) rights.Set {
	if !g.Valid(src) || !g.Valid(dst) {
		return 0
	}
	return g.vertices[src].out[dst].explicit
}

// Implicit returns the implicit label of src→dst (empty if no edge).
func (g *Graph) Implicit(src, dst ID) rights.Set {
	if !g.Valid(src) || !g.Valid(dst) {
		return 0
	}
	return g.vertices[src].out[dst].implicit
}

// Combined returns the union of explicit and implicit labels of src→dst.
func (g *Graph) Combined(src, dst ID) rights.Set {
	if !g.Valid(src) || !g.Valid(dst) {
		return 0
	}
	l := g.vertices[src].out[dst]
	return l.explicit.Union(l.implicit)
}

// HalfEdge is one end of an adjacency listing: the far vertex and the labels
// on the edge in the listed direction.
type HalfEdge struct {
	Other    ID
	Explicit rights.Set
	Implicit rights.Set
}

// Combined returns the union of the half-edge's labels.
func (h HalfEdge) Combined() rights.Set { return h.Explicit.Union(h.Implicit) }

// Out returns v's outgoing half-edges sorted by destination ID.
func (g *Graph) Out(v ID) []HalfEdge {
	vt := g.mustLive(v)
	out := make([]HalfEdge, 0, len(vt.out))
	for dst, l := range vt.out {
		out = append(out, HalfEdge{Other: dst, Explicit: l.explicit, Implicit: l.implicit})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Other < out[j].Other })
	return out
}

// In returns v's incoming half-edges (labels read in the src→v direction),
// sorted by source ID.
func (g *Graph) In(v ID) []HalfEdge {
	vt := g.mustLive(v)
	in := make([]HalfEdge, 0, len(vt.in))
	for src := range vt.in {
		l := g.vertices[src].out[v]
		in = append(in, HalfEdge{Other: src, Explicit: l.explicit, Implicit: l.implicit})
	}
	sort.Slice(in, func(i, j int) bool { return in[i].Other < in[j].Other })
	return in
}

// AppendOut appends v's out-neighbours and the labels of those edges to
// dst and lbl, in no particular order, read straight from the live
// adjacency maps with no snapshot build and no sort. It is for mutation
// observers (SetRecorder), which run after a change and before any
// snapshot of the new revision exists; like every read it must not race
// a mutation. A dead v appends nothing.
func (g *Graph) AppendOut(v ID, dst []ID, lbl []LabelPair) ([]ID, []LabelPair) {
	if !g.Valid(v) {
		return dst, lbl
	}
	for w, l := range g.vertices[v].out {
		dst = append(dst, w)
		lbl = append(lbl, LabelPair{Explicit: l.explicit, Implicit: l.implicit})
	}
	return dst, lbl
}

// AppendIn is AppendOut for v's in-neighbours; labels read in the
// neighbour→v direction.
func (g *Graph) AppendIn(v ID, dst []ID, lbl []LabelPair) ([]ID, []LabelPair) {
	if !g.Valid(v) {
		return dst, lbl
	}
	for w := range g.vertices[v].in {
		l := g.vertices[w].out[v]
		dst = append(dst, w)
		lbl = append(lbl, LabelPair{Explicit: l.explicit, Implicit: l.implicit})
	}
	return dst, lbl
}

// Edge is a full directed labelled edge, as returned by Edges.
type Edge struct {
	Src, Dst ID
	Explicit rights.Set
	Implicit rights.Set
}

// Edges returns every labelled edge sorted by (Src, Dst). The listing is
// materialized from the revision-cached CSR snapshot — sources ascend and
// each source's destinations are pre-sorted, so no per-call sort runs —
// into a slice pre-sized to the known edge count.
func (g *Graph) Edges() []Edge {
	s := g.Snapshot()
	out := make([]Edge, 0, s.NumEdges())
	for i := 0; i < s.Cap(); i++ {
		dst, lbl := s.Out(ID(i))
		for j, d := range dst {
			lp := s.labels[lbl[j]]
			out = append(out, Edge{Src: ID(i), Dst: d, Explicit: lp.Explicit, Implicit: lp.Implicit})
		}
	}
	return out
}

// Clone returns a deep copy sharing only the (immutable by convention)
// rights universe.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		universe: g.universe,
		vertices: make([]vertex, len(g.vertices)),
		byName:   make(map[string]ID, len(g.byName)),
		revision: g.revision,
		live:     g.live,
		numEdges: g.numEdges,
	}
	for i := range g.vertices {
		v := &g.vertices[i]
		nv := vertex{name: v.name, kind: v.kind, deleted: v.deleted}
		if v.out != nil {
			nv.out = make(map[ID]label, len(v.out))
			for k, l := range v.out {
				nv.out[k] = l
			}
		}
		if v.in != nil {
			nv.in = make(map[ID]struct{}, len(v.in))
			for k := range v.in {
				nv.in[k] = struct{}{}
			}
		}
		c.vertices[i] = nv
	}
	for k, v := range g.byName {
		c.byName[k] = v
	}
	return c
}

// Equal reports structural equality: same vertices (ID, name, kind, live
// status) and identical labels on every pair.
func (g *Graph) Equal(o *Graph) bool {
	if len(g.vertices) != len(o.vertices) {
		return false
	}
	for i := range g.vertices {
		a, b := &g.vertices[i], &o.vertices[i]
		if a.deleted != b.deleted {
			return false
		}
		if a.deleted {
			continue
		}
		if a.name != b.name || a.kind != b.kind || len(a.out) != len(b.out) {
			return false
		}
		for dst, l := range a.out {
			if b.out[dst] != l {
				return false
			}
		}
	}
	return true
}

// Canonical returns a deterministic textual encoding of the graph's live
// structure. Two graphs with equal canonical forms are Equal up to deleted-
// vertex holes. Used for state deduplication in derivation exploration.
func (g *Graph) Canonical() string {
	var b strings.Builder
	for i := range g.vertices {
		v := &g.vertices[i]
		if v.deleted {
			continue
		}
		fmt.Fprintf(&b, "%d%c;", i, kindChar(v.kind))
	}
	b.WriteByte('|')
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "%d>%d:%x/%x;", e.Src, e.Dst, uint64(e.Explicit), uint64(e.Implicit))
	}
	return b.String()
}

func kindChar(k Kind) byte {
	if k == Subject {
		return 's'
	}
	return 'o'
}

// Validate checks internal invariants (index consistency, no self-edges,
// no labels on deleted vertices, the edge counter) and returns the violations found. A healthy
// graph returns nil; a non-nil result indicates a bug in this package or
// memory corruption by a caller.
func (g *Graph) Validate() []error {
	var errs []error
	edges := 0
	for i := range g.vertices {
		v := &g.vertices[i]
		if v.deleted {
			if v.out != nil || v.in != nil {
				errs = append(errs, fmt.Errorf("deleted vertex %d retains adjacency", i))
			}
			continue
		}
		edges += len(v.out)
		if got, ok := g.byName[v.name]; !ok || got != ID(i) {
			errs = append(errs, fmt.Errorf("vertex %d name index broken (%q)", i, v.name))
		}
		for dst, l := range v.out {
			if dst == ID(i) {
				errs = append(errs, fmt.Errorf("self-edge on %d", i))
			}
			if l.empty() {
				errs = append(errs, fmt.Errorf("empty label retained on %d→%d", i, dst))
			}
			if !g.Valid(dst) {
				errs = append(errs, fmt.Errorf("edge %d→%d to dead vertex", i, dst))
				continue
			}
			if _, ok := g.vertices[dst].in[ID(i)]; !ok {
				errs = append(errs, fmt.Errorf("missing reverse index for %d→%d", i, dst))
			}
		}
		for src := range v.in {
			if !g.Valid(src) {
				errs = append(errs, fmt.Errorf("reverse index %d→%d from dead vertex", src, i))
				continue
			}
			if _, ok := g.vertices[src].out[ID(i)]; !ok {
				errs = append(errs, fmt.Errorf("stale reverse index for %d→%d", src, i))
			}
		}
	}
	if edges != g.numEdges {
		errs = append(errs, fmt.Errorf("edge counter %d, adjacency holds %d edges", g.numEdges, edges))
	}
	return errs
}

// String renders a compact human-readable listing, one edge per line.
func (g *Graph) String() string {
	var b strings.Builder
	for _, id := range g.Vertices() {
		fmt.Fprintf(&b, "%s %s\n", g.KindOf(id), g.Name(id))
	}
	for _, e := range g.Edges() {
		if !e.Explicit.Empty() {
			fmt.Fprintf(&b, "%s -> %s : %s\n", g.Name(e.Src), g.Name(e.Dst), e.Explicit.Format(g.universe))
		}
		if !e.Implicit.Empty() {
			fmt.Fprintf(&b, "%s ~> %s : %s\n", g.Name(e.Src), g.Name(e.Dst), e.Implicit.Format(g.universe))
		}
	}
	return b.String()
}
