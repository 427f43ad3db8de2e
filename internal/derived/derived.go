// Package derived unifies the repo's incrementally maintained derived
// structures — the frozen CSR snapshot, the tg-island union-find, the
// revision-keyed query cache, the hierarchy engine's rw-level structure
// and the reach-closure rows — behind one registry with a single
// maintenance contract.
//
// Every one of those structures answers the same question ("is my cached
// derivation still the graph's derivation?") and before this package each
// answered it with its own hand-rolled wiring: the snapshot compares
// revisions, the island index nils itself from inside the mutation paths,
// the cache keys entries by (generation, revision), the engine installs
// itself as the graph's change recorder. The registry keeps those
// mechanisms — they are each the right mechanism for their structure —
// but routes the one change stream to all of them and gives each a
// uniform stats surface for /stats and /metrics.
//
// # Contract
//
// An Index receives every effective graph mutation as a graph.Change via
// Patch, called synchronously under the caller's mutation lock (the same
// contract as graph.SetRecorder: no readers are concurrent with a Patch).
// Patch returns true when the index absorbed the change — updated itself
// in place, deferred work it can replay later, or proved the change
// irrelevant — and false when it cannot stay consistent incrementally;
// the registry then calls Invalidate, after which the index must rebuild
// lazily on next use. Patch must never block on its own rebuild: lazy
// rebuild on the read path is what keeps the mutation path cheap.
package derived

import (
	"sort"
	"sync"
	"sync/atomic"

	"takegrant/internal/graph"
	"takegrant/internal/qcache"
)

// Index is one derived structure under registry maintenance.
type Index interface {
	// Name identifies the index in /stats and metrics ("snapshot",
	// "tg_islands", "qcache", "hierarchy", "reach_closure").
	Name() string
	// Patch folds one effective mutation into the index, returning false
	// when the index cannot absorb it (the registry then invalidates).
	// Called under the graph's mutation lock — never concurrent with
	// readers.
	Patch(c graph.Change) bool
	// Invalidate drops the derived state; the next use rebuilds from
	// scratch. Same locking contract as Patch.
	Invalidate()
}

// StatsReporter is optionally implemented by an Index to report its
// read-side counters. Patch and invalidate counts are kept by the
// registry itself — a reporter must not count registry dispatches, only
// its own hits (reads served from live derived state), misses (reads
// that found the state stale or absent) and rebuilds (from-scratch
// reconstructions).
type StatsReporter interface {
	IndexStats() (hits, misses, rebuilds uint64)
}

// Stats is one index's counter snapshot, as exposed in /stats and as the
// takegrant_index_* metric families.
type Stats struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Patches     uint64 `json:"patches"`
	Invalidates uint64 `json:"invalidates"`
	Rebuilds    uint64 `json:"rebuilds"`
}

type cell struct {
	idx         Index
	patches     atomic.Uint64
	invalidates atomic.Uint64
}

// Registry fans the graph's change stream out to every registered index
// and aggregates their stats. Register all indexes, then Attach to the
// graph; Observe runs under the mutation lock, Stats may run concurrently
// with readers (it only touches atomics and reporter snapshots).
type Registry struct {
	mu    sync.RWMutex
	cells []*cell
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds an index to the dispatch list. Register before Attach (or
// otherwise before mutations flow); duplicate names are the caller's bug
// and simply shadow each other in Stats.
func (r *Registry) Register(idx Index) {
	r.mu.Lock()
	r.cells = append(r.cells, &cell{idx: idx})
	r.mu.Unlock()
}

// Attach installs the registry as g's change recorder, replacing any
// previously installed recorder (the hierarchy engine's self-installed
// one, in practice — the engine is then fed through the registry
// instead).
func (r *Registry) Attach(g *graph.Graph) { g.SetRecorder(r.Observe) }

// Observe dispatches one change: each index either patches itself or is
// invalidated. Called under the graph's mutation lock.
func (r *Registry) Observe(c graph.Change) {
	r.mu.RLock()
	cells := r.cells
	r.mu.RUnlock()
	for _, cl := range cells {
		if cl.idx.Patch(c) {
			cl.patches.Add(1)
		} else {
			cl.idx.Invalidate()
			cl.invalidates.Add(1)
		}
	}
}

// Stats snapshots every index's counters by name: registry-side patch and
// invalidate counts merged with the index's own hit/miss/rebuild counts
// when it reports them.
func (r *Registry) Stats() map[string]Stats {
	r.mu.RLock()
	cells := r.cells
	r.mu.RUnlock()
	out := make(map[string]Stats, len(cells))
	for _, cl := range cells {
		s := Stats{
			Patches:     cl.patches.Load(),
			Invalidates: cl.invalidates.Load(),
		}
		if sr, ok := cl.idx.(StatsReporter); ok {
			s.Hits, s.Misses, s.Rebuilds = sr.IndexStats()
		}
		out[cl.idx.Name()] = s
	}
	return out
}

// Names returns the registered index names, sorted — the stable iteration
// order for metrics exposition.
func (r *Registry) Names() []string {
	r.mu.RLock()
	cells := r.cells
	r.mu.RUnlock()
	names := make([]string, 0, len(cells))
	for _, cl := range cells {
		names = append(names, cl.idx.Name())
	}
	sort.Strings(names)
	return names
}

// snapshotIndex adapts graph.Snapshot: the frozen CSR view is keyed by
// revision, so every change is absorbed trivially — a stale snapshot is
// unreachable the moment the revision moves, and the next Graph.Snapshot
// call derives a new one. Counts come from the graph itself: a miss is
// any read that found the view stale (a refresh or a full build), a
// rebuild only a build from scratch, such as a compaction.
type snapshotIndex struct{ g *graph.Graph }

// Snapshot returns the registry adapter for g's frozen CSR snapshot.
func Snapshot(g *graph.Graph) Index { return snapshotIndex{g} }

func (snapshotIndex) Name() string            { return "snapshot" }
func (snapshotIndex) Patch(graph.Change) bool { return true }
func (snapshotIndex) Invalidate()             {}
func (s snapshotIndex) IndexStats() (h, m, b uint64) {
	hits, refreshes, builds := s.g.SnapshotStats()
	return hits, refreshes + builds, builds
}

// islandIndex adapts graph.TGIslands: the union-find is maintained
// physically inside the graph's mutation paths (they run before the
// change is recorded, and subject deletion needs edge detail a
// ChangeDestructive does not carry), so the adapter absorbs every change
// and surfaces the graph's own counters.
type islandIndex struct{ g *graph.Graph }

// Islands returns the registry adapter for g's tg-island union-find.
func Islands(g *graph.Graph) Index { return islandIndex{g} }

func (islandIndex) Name() string            { return "tg_islands" }
func (islandIndex) Patch(graph.Change) bool { return true }
func (i islandIndex) Invalidate()           { i.g.InvalidateIslandIndex() }
func (i islandIndex) IndexStats() (h, m, b uint64) {
	hits, builds, _, _ := i.g.IslandStats()
	return hits, builds, builds
}

// qcacheIndex adapts the query cache: entries are keyed by (generation,
// revision), so any change makes stale entries unreachable — absorbed by
// construction. Invalidate maps to a full reset (used when a caller swaps
// structures out from under the keys).
type qcacheIndex struct{ c *qcache.Cache }

// QCache returns the registry adapter for a query cache.
func QCache(c *qcache.Cache) Index { return qcacheIndex{c} }

func (qcacheIndex) Name() string            { return "qcache" }
func (qcacheIndex) Patch(graph.Change) bool { return true }
func (q qcacheIndex) Invalidate()           { q.c.Reset() }
func (q qcacheIndex) IndexStats() (h, m, b uint64) {
	s := q.c.Stats()
	return s.Hits, s.Misses, s.Resets
}
