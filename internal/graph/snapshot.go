package graph

import (
	"cmp"
	"runtime"
	"slices"
	"sort"
	"sync"

	"takegrant/internal/rights"
)

// LabelPair is one interned (explicit, implicit) rights pair. Snapshot
// stores every distinct pair once and references it by index: protection
// graphs label thousands of edges with a handful of distinct sets (t, g,
// r, rw, ...), so the per-edge cost drops to one uint32.
type LabelPair struct {
	Explicit rights.Set
	Implicit rights.Set
}

// Combined returns the union of the pair's labels.
func (l LabelPair) Combined() rights.Set { return l.Explicit.Union(l.Implicit) }

// Snapshot is a frozen, read-optimized view of a Graph at one revision:
// compressed-sparse-row adjacency in both directions, destinations sorted
// per vertex, labels interned. It is immutable once Graph.Snapshot has
// returned it and therefore safe for any number of concurrent readers —
// the decision procedures share one snapshot per revision instead of
// re-sorting map iterations on every Out/In call.
//
// Obtain one with Graph.Snapshot. A Snapshot describes the graph as it was
// at Revision(); mutating the graph does not change existing snapshots,
// it only makes the next Graph.Snapshot call derive a new one.
//
// Consecutive snapshots of one graph share memory. A vertex's listings
// are located through a two-level table of fixed-size row pages, and a
// refresh (refreshSnapshot) copies only the top level and the
// directories and pages its dirty vertices fall in, and appends their
// re-packed listings past the end of the edge arrays it inherits. Every
// older snapshot's slices end at or before that point, so the appends
// never touch a row an older reader can see.
type Snapshot struct {
	rev      uint64
	numEdges int
	n        int // vertex-ID bound

	// dirs locates vertex v's row (see page): its out-edges are
	// outDst[outLo:outHi] with parallel label indices in outLbl; same
	// shape for in-edges, whose labels read in the src→v direction. The
	// arrays may hold listings of superseded rows (see dead).
	dirs   []*rowDir
	outDst []ID
	inDst  []ID
	outLbl []uint32
	inLbl  []uint32

	labels []LabelPair
	// intern maps each label pair in labels to its index. It is shared
	// along a chain of refreshed snapshots and only read or written under
	// the owning graph's adjMu, by the refresh that extends the chain.
	intern map[label]uint32
}

// Row paging: rows sit in pages of pageSize vertices, pages in
// directories of dirSize pages. A refresh copies the directory list (62
// pointers at 1e6 vertices) plus at most one 512-byte directory and one
// 4 KiB page per dirty vertex, so its cost does not grow with V. A
// one-level table would copy V/pageSize pointers per refresh, or copy
// bigger pages; at 1e6 vertices either shows in a refresh's time.
const (
	pageShift = 8
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
	dirShift  = 6
	dirSize   = 1 << dirShift
	dirMask   = dirSize - 1
)

// vrow locates one vertex's out- and in-listings in the edge arrays.
type vrow struct {
	outLo, outHi int32
	inLo, inHi   int32
}

// Vertex flags, one byte per row beside the rows so a row stays 16 bytes.
const (
	flagLive uint8 = 1 << iota
	flagSubject
)

type rowPage struct {
	rows  [pageSize]vrow
	flags [pageSize]uint8
}

type rowDir [dirSize]*rowPage

// vertexFlags returns the flags of a live vertex's row.
func vertexFlags(v *vertex) uint8 {
	if v.kind == Subject {
		return flagLive | flagSubject
	}
	return flagLive
}

// Dirty-row bits: which of a vertex's listings a mutation changed.
const (
	rowsOut uint8 = 1 << iota
	rowsIn
)

// maxDirtyShare bounds dirty tracking: once more than 1/maxDirtyShare of
// the vertex table is dirty, re-packing row by row costs about what the
// counting-sort build does, so the graph stops tracking and the next
// Snapshot builds from scratch.
const maxDirtyShare = 4

// markRows records that a mutation changed v's listings (rows is a mask
// of rowsOut and rowsIn), for the next Snapshot to re-pack. It does
// nothing while no snapshot exists — a bulk load pays no tracking — or
// once a full build is due.
func (g *Graph) markRows(v ID, rows uint8) {
	if g.snap == nil || g.snapRebuild {
		return
	}
	if g.dirty == nil {
		g.dirty = make(map[ID]uint8)
	}
	g.dirty[v] |= rows
	if len(g.dirty)*maxDirtyShare > len(g.vertices) {
		g.rebuildSnapshot()
	}
}

// rebuildSnapshot makes the next Snapshot call build from scratch: for
// mutations that change more rows than a refresh should chase, or that
// remove vertices.
func (g *Graph) rebuildSnapshot() {
	g.snapRebuild = true
	g.dirty = nil
}

// Snapshot returns the frozen adjacency view for the graph's current
// revision, sharing it until the next mutation. The first call after a
// mutation refreshes the previous snapshot from the rows the mutations
// dirtied; it builds from scratch when there is none, after a vertex
// deletion or ClearImplicit, when the dirty rows passed a quarter of the
// vertex table, or to compact once superseded rows outweigh live ones.
// Safe for concurrent use.
func (g *Graph) Snapshot() *Snapshot {
	g.adjMu.Lock()
	defer g.adjMu.Unlock()
	switch s := g.snap; {
	case s != nil && s.rev == g.revision:
		g.snapHits++
		return s
	case s != nil && !g.snapRebuild && s.dead() <= 2*g.numEdges:
		g.snap = refreshSnapshot(g, s, g.dirty)
		g.snapRefreshes++
	default:
		g.snap = buildSnapshot(g)
		g.snapBuilds++
	}
	clear(g.dirty)
	g.snapRebuild = false
	return g.snap
}

// SnapshotStats reports how often Snapshot reused the frozen view (hits),
// derived a new revision's view from the previous one (refreshes), and
// built one from scratch (builds). Safe for concurrent use.
func (g *Graph) SnapshotStats() (hits, refreshes, builds uint64) {
	g.adjMu.Lock()
	defer g.adjMu.Unlock()
	return g.snapHits, g.snapRefreshes, g.snapBuilds
}

// dead is the number of edge-array entries, in both directions, that no
// row of s references: listings a refresh superseded. Live entries are
// 2*numEdges.
func (s *Snapshot) dead() int { return len(s.outDst) + len(s.inDst) - 2*s.numEdges }

// halfRow is one listing entry while a refresh re-packs a row.
type halfRow struct {
	other ID
	l     label
}

// refreshSnapshot derives the snapshot of g's current revision from old,
// the snapshot of an earlier one, given every vertex whose listings
// changed since (dirty, with rowsOut/rowsIn masks). Each dirty listing is
// re-packed sorted at the tail of the edge arrays; every other row, page,
// directory and array prefix is shared with old, which stays valid as it
// was. O(V/(pageSize·dirSize) + dirty·(dirSize + pageSize) + Σ dirty
// degree·log degree).
func refreshSnapshot(g *Graph, old *Snapshot, dirty map[ID]uint8) *Snapshot {
	n := len(g.vertices)
	s := &Snapshot{
		rev:      g.revision,
		numEdges: g.numEdges,
		n:        n,
		dirs:     make([]*rowDir, (n+dirSize*pageSize-1)>>(pageShift+dirShift)),
		outDst:   old.outDst,
		inDst:    old.inDst,
		outLbl:   old.outLbl,
		inLbl:    old.inLbl,
		labels:   old.labels,
		intern:   old.intern,
	}
	copy(s.dirs, old.dirs)
	ids := make([]ID, 0, len(dirty))
	for v := range dirty {
		ids = append(ids, v)
	}
	slices.Sort(ids) // interning order, and so label indices, is deterministic
	var row []halfRow
	for _, v := range ids {
		pg := s.ownPage(old, v)
		r := &pg.rows[v&pageMask]
		vt := &g.vertices[v]
		pg.flags[v&pageMask] = vertexFlags(vt)
		if dirty[v]&rowsOut != 0 {
			row = row[:0]
			for w, l := range vt.out {
				row = append(row, halfRow{w, l})
			}
			r.outLo, r.outHi = s.appendRow(row, &s.outDst, &s.outLbl)
		}
		if dirty[v]&rowsIn != 0 {
			row = row[:0]
			for w := range vt.in {
				row = append(row, halfRow{w, g.vertices[w].out[v]})
			}
			r.inLo, r.inHi = s.appendRow(row, &s.inDst, &s.inLbl)
		}
	}
	return s
}

// ownPage returns the page holding v's row that s may write: a fresh page
// or directory where old had none, a copy where s still shares old's.
func (s *Snapshot) ownPage(old *Snapshot, v ID) *rowPage {
	d, p := int(v)>>(pageShift+dirShift), int(v)>>pageShift&dirMask
	var oldDir *rowDir
	if d < len(old.dirs) {
		oldDir = old.dirs[d]
	}
	dir := s.dirs[d]
	switch {
	case dir == nil:
		dir = new(rowDir)
		s.dirs[d] = dir
	case dir == oldDir:
		cp := *dir
		dir = &cp
		s.dirs[d] = dir
	}
	pg := dir[p]
	switch {
	case pg == nil:
		pg = new(rowPage)
		dir[p] = pg
	case oldDir != nil && pg == oldDir[p]:
		cp := *pg
		pg = &cp
		dir[p] = pg
	}
	return pg
}

// appendRow sorts one listing by neighbour and appends it, labels
// interned, to the tail of *dst and *lbl, returning its bounds there.
func (s *Snapshot) appendRow(row []halfRow, dst *[]ID, lbl *[]uint32) (lo, hi int32) {
	slices.SortFunc(row, func(a, b halfRow) int { return cmp.Compare(a.other, b.other) })
	lo = int32(len(*dst))
	for _, e := range row {
		li, ok := s.intern[e.l]
		if !ok {
			li = uint32(len(s.labels))
			s.labels = append(s.labels, LabelPair{Explicit: e.l.explicit, Implicit: e.l.implicit})
			s.intern[e.l] = li
		}
		*dst = append(*dst, e.other)
		*lbl = append(*lbl, li)
	}
	return lo, int32(len(*dst))
}

// parallelSnapshotEdges is the edge count above which buildSnapshot fans
// the map-flattening stage across a worker pool. Below it the goroutine
// and synchronization overhead outweighs the walk itself.
const parallelSnapshotEdges = 1 << 15

// labelInterner assigns dense indices to distinct label pairs. Workers
// keep a private cache (protection graphs use a handful of distinct
// labels, so the cache hits almost always) and fall back to the shared
// table under a mutex only on a cache miss — global indices come out of
// the shared table directly, so no remap pass is needed afterwards.
type labelInterner struct {
	mu     sync.Mutex
	intern map[label]uint32
	labels []LabelPair
}

func (it *labelInterner) local() func(label) uint32 {
	cache := make(map[label]uint32, 16)
	return func(l label) uint32 {
		if li, ok := cache[l]; ok {
			return li
		}
		it.mu.Lock()
		li, ok := it.intern[l]
		if !ok {
			li = uint32(len(it.labels))
			it.labels = append(it.labels, LabelPair{Explicit: l.explicit, Implicit: l.implicit})
			it.intern[l] = li
		}
		it.mu.Unlock()
		cache[l] = li
		return li
	}
}

// flattenRange walks the out-maps of vertices [lo, hi) into the
// per-source runs of tmpDst/tmpLbl (unsorted within a run, since map
// iteration order is arbitrary); outStart holds the runs' offsets.
// Ranges are disjoint, so workers never write the same slot.
func flattenRange(g *Graph, outStart []int32, tmpDst []ID, tmpLbl []uint32, lo, hi int, intern func(label) uint32) {
	for i := lo; i < hi; i++ {
		v := &g.vertices[i]
		if v.deleted || len(v.out) == 0 {
			continue
		}
		k := outStart[i]
		for dst, l := range v.out {
			tmpDst[k] = dst
			tmpLbl[k] = intern(l)
			k++
		}
	}
}

// splitByEdges partitions the vertex index space into `workers` ranges of
// roughly equal out-edge mass, using the CSR prefix sums.
func splitByEdges(outStart []int32, n, workers int) []int {
	bounds := make([]int, workers+1)
	bounds[workers] = n
	total := int(outStart[n])
	for w := 1; w < workers; w++ {
		target := int32(total * w / workers)
		bounds[w] = sort.Search(n, func(i int) bool { return outStart[i] >= target })
	}
	return bounds
}

// buildSnapshot packs the live adjacency into CSR form from scratch, with
// a two-pass counting sort instead of per-vertex comparison sorts:
//
//  1. Flatten: walk the out-maps into per-source runs (dst, label index),
//     unsorted within a run. This is the expensive stage — map iteration
//     and label interning — and it fans out across a worker pool on
//     large graphs, partitioned by edge mass.
//  2. Scatter by source: stream the runs in ascending source order into
//     the in-CSR. Each destination's in-list fills with sources in
//     ascending order — sorted, no comparisons.
//  3. Scatter by destination: stream the in-CSR in ascending destination
//     order back into the out-CSR; each source's out-list fills with
//     destinations ascending.
//
// Both scatters are valid counting sorts because a (src, dst) pair
// carries at most one label. O(V + E) time, and the only transients
// beyond the result arrays are one (ID, uint32) pair per edge and two
// offset arrays. The rows come out contiguous, with no dead space.
func buildSnapshot(g *Graph) *Snapshot {
	n := len(g.vertices)
	np := (n + pageMask) >> pageShift
	s := &Snapshot{rev: g.revision, n: n, dirs: make([]*rowDir, (np+dirMask)>>dirShift)}
	dirs, pages := make([]rowDir, len(s.dirs)), make([]rowPage, np)
	for p := range pages {
		if p&dirMask == 0 {
			s.dirs[p>>dirShift] = &dirs[p>>dirShift]
		}
		s.dirs[p>>dirShift][p&dirMask] = &pages[p]
	}
	outStart := make([]int32, n+1)
	inStart := make([]int32, n+1)
	for i := range g.vertices {
		v := &g.vertices[i]
		if v.deleted {
			continue
		}
		s.page(ID(i)).flags[i&pageMask] = vertexFlags(v)
		s.numEdges += len(v.out)
		outStart[i+1] = int32(len(v.out))
		inStart[i+1] = int32(len(v.in))
	}
	for i := 0; i < n; i++ {
		outStart[i+1] += outStart[i]
		inStart[i+1] += inStart[i]
		r := s.row(ID(i))
		r.outLo, r.outHi = outStart[i], outStart[i+1]
		r.inLo, r.inHi = inStart[i], inStart[i+1]
	}
	m := s.numEdges

	// Stage 1: flatten maps into per-source runs.
	tmpDst := make([]ID, m)
	tmpLbl := make([]uint32, m)
	it := &labelInterner{intern: make(map[label]uint32)}
	workers := runtime.GOMAXPROCS(0)
	if workers > 16 {
		workers = 16
	}
	if m < parallelSnapshotEdges || workers < 2 {
		flattenRange(g, outStart, tmpDst, tmpLbl, 0, n, it.local())
	} else {
		bounds := splitByEdges(outStart, n, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := bounds[w], bounds[w+1]
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				flattenRange(g, outStart, tmpDst, tmpLbl, lo, hi, it.local())
			}(lo, hi)
		}
		wg.Wait()
	}
	s.labels, s.intern = it.labels, it.intern

	// Stage 2: scatter by ascending source into the in-CSR.
	s.inDst = make([]ID, m)
	s.inLbl = make([]uint32, m)
	cur := inStart[:n]
	for src := 0; src < n; src++ {
		for k := outStart[src]; k < outStart[src+1]; k++ {
			d := tmpDst[k]
			p := cur[d]
			cur[d]++
			s.inDst[p] = ID(src)
			s.inLbl[p] = tmpLbl[k]
		}
	}
	tmpDst, tmpLbl = nil, nil

	// Stage 3: scatter by ascending destination into the out-CSR. The
	// in-rows' bounds come from the rows now that stage 2 has consumed
	// inStart as its cursor.
	s.outDst = make([]ID, m)
	s.outLbl = make([]uint32, m)
	cur = outStart[:n]
	for dst := 0; dst < n; dst++ {
		r := s.row(ID(dst))
		for k := r.inLo; k < r.inHi; k++ {
			src := s.inDst[k]
			p := cur[src]
			cur[src]++
			s.outDst[p] = ID(dst)
			s.outLbl[p] = s.inLbl[k]
		}
	}
	return s
}

// page returns the page holding v's row; v must be in [0, Cap()).
func (s *Snapshot) page(v ID) *rowPage {
	return s.dirs[v>>(pageShift+dirShift)][v>>pageShift&dirMask]
}

// row returns v's row; v must be in [0, Cap()).
func (s *Snapshot) row(v ID) *vrow { return &s.page(v).rows[v&pageMask] }

// Revision returns the graph revision the snapshot describes.
func (s *Snapshot) Revision() uint64 { return s.rev }

// Cap returns the vertex-ID bound of the snapshot: all IDs are < Cap().
func (s *Snapshot) Cap() int { return s.n }

// NumEdges returns the number of labelled directed vertex pairs.
func (s *Snapshot) NumEdges() int { return s.numEdges }

// NumLabels returns the number of interned label pairs. A refreshed
// snapshot's table may also hold pairs no edge carries any more; a full
// build drops them.
func (s *Snapshot) NumLabels() int { return len(s.labels) }

// Live reports whether v was a live vertex at the snapshot's revision.
func (s *Snapshot) Live(v ID) bool {
	return v >= 0 && int(v) < s.n && s.page(v).flags[v&pageMask]&flagLive != 0
}

// IsSubject reports whether v was a live subject at the snapshot's revision.
func (s *Snapshot) IsSubject(v ID) bool {
	return v >= 0 && int(v) < s.n && s.page(v).flags[v&pageMask]&flagSubject != 0
}

// Out returns v's out-edge destinations (ascending) and the parallel label
// indices, resolvable via Label. The slices alias the snapshot's arrays and
// must not be mutated; their capacity ends with the listing, so an append
// to them copies instead of writing into a row later snapshots share.
func (s *Snapshot) Out(v ID) (dst []ID, lbl []uint32) {
	if v < 0 || int(v) >= s.n {
		return nil, nil
	}
	r := s.row(v)
	return s.outDst[r.outLo:r.outHi:r.outHi], s.outLbl[r.outLo:r.outHi:r.outHi]
}

// In returns v's in-edge sources (ascending) and the parallel label
// indices; labels read in the src→v direction. The slices alias the
// snapshot's arrays like Out's.
func (s *Snapshot) In(v ID) (dst []ID, lbl []uint32) {
	if v < 0 || int(v) >= s.n {
		return nil, nil
	}
	r := s.row(v)
	return s.inDst[r.inLo:r.inHi:r.inHi], s.inLbl[r.inLo:r.inHi:r.inHi]
}

// Label resolves an interned label index from Out or In.
func (s *Snapshot) Label(i uint32) LabelPair { return s.labels[i] }

// Labels returns the interned label table that Out and In index into.
// The slice aliases the snapshot's table and must not be mutated.
func (s *Snapshot) Labels() []LabelPair { return s.labels[:len(s.labels):len(s.labels)] }
