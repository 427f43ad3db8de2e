package graph

import (
	"runtime"
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
// per vertex, labels interned. It is immutable after construction and
// therefore safe for any number of concurrent readers — the decision
// procedures share one snapshot per revision instead of re-sorting map
// iterations on every Out/In call.
//
// Obtain one with Graph.Snapshot. A Snapshot describes the graph as it was
// at Revision(); mutating the graph does not change existing snapshots,
// it only makes the next Graph.Snapshot call build a fresh one.
type Snapshot struct {
	rev      uint64
	numEdges int

	// CSR layout: vertex v's out-edges are outDst[outStart[v]:outStart[v+1]]
	// with parallel label indices in outLbl; same shape for in-edges. The
	// in-listing of v carries the labels read in the src→v direction.
	outStart []int32
	inStart  []int32
	outDst   []ID
	inDst    []ID
	outLbl   []uint32
	inLbl    []uint32

	labels  []LabelPair
	subject []bool // live subject per ID
	live    []bool
}

// Snapshot returns the frozen adjacency view for the graph's current
// revision, building it on first read and sharing it until the next
// mutation. Safe for concurrent use.
func (g *Graph) Snapshot() *Snapshot {
	g.adjMu.Lock()
	defer g.adjMu.Unlock()
	if g.snap == nil || g.snap.rev != g.revision {
		g.snap = buildSnapshot(g)
		g.snapBuilds++
	} else {
		g.snapHits++
	}
	return g.snap
}

// SnapshotStats reports how often Snapshot reused the frozen view (hits)
// versus rebuilt it for a new revision (builds). Safe for concurrent use.
func (g *Graph) SnapshotStats() (hits, builds uint64) {
	g.adjMu.Lock()
	defer g.adjMu.Unlock()
	return g.snapHits, g.snapBuilds
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
// iteration order is arbitrary). Ranges are disjoint, so workers never
// write the same slot.
func flattenRange(g *Graph, s *Snapshot, tmpDst []ID, tmpLbl []uint32, lo, hi int, intern func(label) uint32) {
	for i := lo; i < hi; i++ {
		v := &g.vertices[i]
		if v.deleted || len(v.out) == 0 {
			continue
		}
		k := s.outStart[i]
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

// buildSnapshot packs the live adjacency into CSR form with a two-pass
// counting sort instead of per-vertex comparison sorts:
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
// carries at most one label. O(V + E) time, and the only transient beyond
// the result arrays is one (ID, uint32) pair per edge.
func buildSnapshot(g *Graph) *Snapshot {
	n := len(g.vertices)
	s := &Snapshot{
		rev:      g.revision,
		outStart: make([]int32, n+1),
		inStart:  make([]int32, n+1),
		subject:  make([]bool, n),
		live:     make([]bool, n),
	}
	for i := range g.vertices {
		v := &g.vertices[i]
		if v.deleted {
			continue
		}
		s.live[i] = true
		s.subject[i] = v.kind == Subject
		s.numEdges += len(v.out)
		s.outStart[i+1] = int32(len(v.out))
		s.inStart[i+1] = int32(len(v.in))
	}
	for i := 0; i < n; i++ {
		s.outStart[i+1] += s.outStart[i]
		s.inStart[i+1] += s.inStart[i]
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
		flattenRange(g, s, tmpDst, tmpLbl, 0, n, it.local())
	} else {
		bounds := splitByEdges(s.outStart, n, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := bounds[w], bounds[w+1]
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				flattenRange(g, s, tmpDst, tmpLbl, lo, hi, it.local())
			}(lo, hi)
		}
		wg.Wait()
	}
	s.labels = it.labels

	// Stage 2: scatter by ascending source into the in-CSR.
	s.inDst = make([]ID, m)
	s.inLbl = make([]uint32, m)
	cur := make([]int32, n)
	copy(cur, s.inStart[:n])
	for src := 0; src < n; src++ {
		for k := s.outStart[src]; k < s.outStart[src+1]; k++ {
			d := tmpDst[k]
			p := cur[d]
			cur[d]++
			s.inDst[p] = ID(src)
			s.inLbl[p] = tmpLbl[k]
		}
	}
	tmpDst, tmpLbl = nil, nil

	// Stage 3: scatter by ascending destination into the out-CSR.
	s.outDst = make([]ID, m)
	s.outLbl = make([]uint32, m)
	copy(cur, s.outStart[:n])
	for dst := 0; dst < n; dst++ {
		for k := s.inStart[dst]; k < s.inStart[dst+1]; k++ {
			src := s.inDst[k]
			p := cur[src]
			cur[src]++
			s.outDst[p] = ID(dst)
			s.outLbl[p] = s.inLbl[k]
		}
	}
	return s
}

// Revision returns the graph revision the snapshot describes.
func (s *Snapshot) Revision() uint64 { return s.rev }

// Cap returns the vertex-ID bound of the snapshot: all IDs are < Cap().
func (s *Snapshot) Cap() int { return len(s.live) }

// NumEdges returns the number of labelled directed vertex pairs.
func (s *Snapshot) NumEdges() int { return s.numEdges }

// NumLabels returns the number of distinct interned label pairs.
func (s *Snapshot) NumLabels() int { return len(s.labels) }

// Live reports whether v was a live vertex at the snapshot's revision.
func (s *Snapshot) Live(v ID) bool {
	return v >= 0 && int(v) < len(s.live) && s.live[v]
}

// IsSubject reports whether v was a live subject at the snapshot's revision.
func (s *Snapshot) IsSubject(v ID) bool {
	return v >= 0 && int(v) < len(s.subject) && s.subject[v]
}

// Out returns v's out-edge destinations (ascending) and the parallel label
// indices, resolvable via Label. The slices alias the snapshot's arrays and
// must not be mutated.
func (s *Snapshot) Out(v ID) (dst []ID, lbl []uint32) {
	if v < 0 || int(v) >= len(s.live) {
		return nil, nil
	}
	lo, hi := s.outStart[v], s.outStart[v+1]
	return s.outDst[lo:hi], s.outLbl[lo:hi]
}

// In returns v's in-edge sources (ascending) and the parallel label
// indices; labels read in the src→v direction. The slices alias the
// snapshot's arrays and must not be mutated.
func (s *Snapshot) In(v ID) (dst []ID, lbl []uint32) {
	if v < 0 || int(v) >= len(s.live) {
		return nil, nil
	}
	lo, hi := s.inStart[v], s.inStart[v+1]
	return s.inDst[lo:hi], s.inLbl[lo:hi]
}

// Label resolves an interned label index from Out or In.
func (s *Snapshot) Label(i uint32) LabelPair { return s.labels[i] }

// Labels returns the interned label table that Out and In index into.
// The slice aliases the snapshot's table and must not be mutated.
func (s *Snapshot) Labels() []LabelPair { return s.labels }
