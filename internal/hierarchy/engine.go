package hierarchy

import (
	"math/bits"
	"slices"
	"sync"

	"takegrant/internal/budget"
	"takegrant/internal/graph"
	"takegrant/internal/obs"
	"takegrant/internal/rights"
)

// Engine maintains the rw-level Structure of one graph across mutations,
// revision-keyed: it registers as the graph's change recorder, buffers
// the per-revision dirty set, and on Rearm either patches the structure
// in place (monotone mutations — rule applications only ever add vertices
// and rights, which can only merge levels or add order, the same
// contract graph.TGIslands exploits per Lemma 5.1) or rebuilds from
// scratch via the parallel snapshot derivation (destructive mutations:
// sever of an rw right, vertex deletion, implicit clearing, revision
// restore).
//
// Concurrency contract, mirroring the graph itself: mutations — and
// therefore the recorder callback and Rearm/Structure — must be
// serialized by the caller (the service holds its write lock); Secure
// and Stats are safe to call from concurrent readers once mutation
// stops, and Secure's verdict cache is internally locked.
type Engine struct {
	g       *graph.Graph
	workers int

	cur       *Structure
	pending   []graph.Change
	wholesale bool

	stats EngineStats

	secMu    sync.Mutex
	secRev   uint64
	secValid bool
	secOK    bool
	secViol  *Violation
}

// EngineStats counts the engine's maintenance work since creation. The
// JSON tags shape the service's /stats report.
type EngineStats struct {
	// Rebuilds is the number of full from-scratch derivations (including
	// the initial one).
	Rebuilds uint64 `json:"rebuilds"`
	// Patches is the number of Rearm calls answered by in-place patching.
	Patches uint64 `json:"patches"`
	// PatchedEdges / NoopEdges / Merges / Inserts classify the step edges
	// processed by the patcher: already-implied edges are no-ops, edges
	// adding order are transitive inserts, edges closing a cycle merge
	// levels.
	PatchedEdges uint64 `json:"patched_edges"`
	NoopEdges    uint64 `json:"noop_edges"`
	Merges       uint64 `json:"merges"`
	Inserts      uint64 `json:"inserts"`
	// Invalidations counts destructive mutations forcing a rebuild.
	Invalidations uint64 `json:"invalidations"`
	// LastDirty and MaxDirty size the dirty set (buffered changes) at the
	// most recent and largest Rearm.
	LastDirty int `json:"last_dirty"`
	MaxDirty  int `json:"max_dirty"`
	// Workers is the configured worker-pool bound for full rebuilds.
	Workers int `json:"workers"`
}

// NewEngine derives the initial structure of g and attaches the engine as
// g's mutation recorder. workers bounds the rebuild worker pool (0 means
// GOMAXPROCS).
func NewEngine(g *graph.Graph, workers int) *Engine {
	e := &Engine{g: g, workers: workers}
	e.rebuild(nil)
	g.SetRecorder(e.record)
	return e
}

// Detach unregisters the engine from its graph; the current structure
// remains readable but no longer tracks mutations.
func (e *Engine) Detach() { e.g.SetRecorder(nil) }

// record buffers one mutation into the dirty set. Monotone changes queue
// for in-place patching; a destructive change collapses the set to a
// wholesale invalidation. Removals that cannot affect the step digraph
// (revoking t/g, or an explicit r/w held by an object source — objects
// contribute no explicit step) are dropped as no-ops.
func (e *Engine) record(c graph.Change) {
	if !e.Patch(c) {
		e.Invalidate()
	}
}

// Patch implements the derived-index contract (internal/derived): it
// absorbs one effective mutation, buffering monotone deltas for in-place
// patching at the next Rearm, and returns false for the changes that
// force a wholesale rebuild — a destructive mutation, or a removal that
// can shrink the step digraph. Removals that cannot affect it (revoking
// t/g, or an explicit r/w held by an object source — objects contribute
// no explicit step) are absorbed as no-ops. Once the engine is already
// pending a wholesale rebuild every further change is absorbed by it.
// Called under the graph's mutation lock.
func (e *Engine) Patch(c graph.Change) bool {
	if e.wholesale {
		return true
	}
	switch c.Kind {
	case graph.ChangeDestructive:
		return false
	case graph.ChangeRemoveExplicit:
		return !(c.Set.HasAny(rights.RW) && e.g.IsSubject(c.Src))
	case graph.ChangeRemoveImplicit:
		return !c.Set.HasAny(rights.RW)
	default:
		e.pending = append(e.pending, c)
		return true
	}
}

// Invalidate drops the incremental state; the next Rearm re-derives the
// structure from scratch. Implements the derived-index contract; same
// locking contract as Patch.
func (e *Engine) Invalidate() {
	e.wholesale = true
	e.pending = nil
	e.stats.Invalidations++
}

// Name identifies the engine in the derived-index registry.
func (e *Engine) Name() string { return "hierarchy" }

// IndexStats reports the engine's read-side derived-index counters:
// patch-drain rounds served without a rebuild count as hits, wholesale
// re-derivations as misses and rebuilds. (Registry-dispatched patch and
// invalidate totals are counted by the registry itself.)
func (e *Engine) IndexStats() (hits, misses, rebuilds uint64) {
	s := e.Stats()
	return s.Patches, s.Rebuilds, s.Rebuilds
}

// Structure returns the engine's structure for the graph's current
// revision, draining any buffered mutations first. Callers must hold the
// graph's mutation lock (see the concurrency contract above).
func (e *Engine) Structure() *Structure { return e.Rearm(nil) }

// Rearm drains the dirty set — patching in place for monotone deltas,
// rebuilding in parallel for destructive ones — and returns the
// up-to-date structure. The probe receives the rebuild phase spans plus a
// hier_patch span when patching.
func (e *Engine) Rearm(p *obs.Probe) *Structure {
	dirty := len(e.pending)
	if e.wholesale {
		dirty++ // the invalidation itself
	}
	if dirty > 0 {
		e.stats.LastDirty = dirty
		if dirty > e.stats.MaxDirty {
			e.stats.MaxDirty = dirty
		}
	}
	if e.wholesale {
		e.rebuild(p)
		return e.cur
	}
	if len(e.pending) == 0 {
		return e.cur
	}
	sp := p.Span("hier_patch")
	var edges, noops, inserts, merges uint64
	for _, c := range e.pending {
		switch c.Kind {
		case graph.ChangeAddVertex:
			e.cur.addSingleton(c.Src)
		case graph.ChangeAddExplicit:
			// Explicit steps require an acting subject source.
			if e.g.IsSubject(c.Src) {
				if c.Set.Has(rights.Read) {
					edges++
					e.applyStep(c.Src, c.Dst, &noops, &inserts, &merges)
				}
				if c.Set.Has(rights.Write) {
					edges++
					e.applyStep(c.Dst, c.Src, &noops, &inserts, &merges)
				}
			}
		case graph.ChangeAddImplicit:
			// Implicit edges record flows that already happened; no
			// subject guard.
			if c.Set.Has(rights.Read) {
				edges++
				e.applyStep(c.Src, c.Dst, &noops, &inserts, &merges)
			}
			if c.Set.Has(rights.Write) {
				edges++
				e.applyStep(c.Dst, c.Src, &noops, &inserts, &merges)
			}
		}
	}
	e.pending = e.pending[:0]
	e.stats.Patches++
	e.stats.PatchedEdges += edges
	e.stats.NoopEdges += noops
	e.stats.Inserts += inserts
	e.stats.Merges += merges
	sp.Count("edges", int64(edges)).Count("noops", int64(noops)).
		Count("inserts", int64(inserts)).Count("merges", int64(merges)).End()
	return e.cur
}

func (e *Engine) rebuild(p *obs.Probe) {
	s, err := AnalyzeRWObs(e.g, Options{Workers: e.workers, Probe: p})
	if err != nil {
		panic(err) // unreachable: rebuilds run unbudgeted
	}
	e.cur = s
	e.pending = nil
	e.wholesale = false
	e.stats.Rebuilds++
}

func (e *Engine) applyStep(u, v graph.ID, noops, inserts, merges *uint64) {
	switch e.cur.insertStep(u, v) {
	case stepNoop:
		*noops++
	case stepInsert:
		*inserts++
	case stepMerge:
		*merges++
	}
}

// Secure evaluates the §5 predicate against the engine's current
// structure, caching the verdict per revision. Safe for concurrent
// callers once the structure is current (i.e. after Rearm under the
// mutation lock); budget exhaustion aborts with an error and is not
// cached.
func (e *Engine) Secure(p *obs.Probe, b *budget.Budget) (bool, *Violation, error) {
	rev := e.g.Revision()
	e.secMu.Lock()
	if e.secValid && e.secRev == rev {
		ok, v := e.secOK, e.secViol
		e.secMu.Unlock()
		return ok, v, nil
	}
	e.secMu.Unlock()
	ok, v, err := secureWith(e.g, e.cur, Options{Workers: e.workers, Budget: b, Probe: p})
	if err != nil {
		return false, nil, err
	}
	e.secMu.Lock()
	e.secRev, e.secValid, e.secOK, e.secViol = rev, true, ok, v
	e.secMu.Unlock()
	return ok, v, nil
}

// Stats returns a copy of the engine's maintenance counters.
func (e *Engine) Stats() EngineStats {
	st := e.stats
	st.Workers = Options{Workers: e.workers}.workers()
	return st
}

// Dirty returns the number of buffered changes awaiting the next Rearm
// (treating a wholesale invalidation as one change).
func (e *Engine) Dirty() int {
	if e.wholesale {
		return 1
	}
	return len(e.pending)
}

// ---- in-place structure patching ----

type stepOutcome uint8

const (
	stepNoop stepOutcome = iota
	stepInsert
	stepMerge
)

// addSingleton appends a fresh one-vertex level for v (no order relative
// to anything yet): O(1), since its row is nil and no column is stored
// for it until some level's row reaches it. No-op if v already has a
// level.
func (s *Structure) addSingleton(v graph.ID) {
	if s.LevelOf(v) >= 0 {
		return
	}
	s.setLevelOf(v, int32(len(s.levels)))
	s.levels = append(s.levels, []graph.ID{v})
	s.reach = append(s.reach, nil)
}

// insertStep patches the structure for a new step edge u → v (u learns
// v's information in one de facto step). Monotonicity is the whole trick:
// an added edge can only coarsen the partition or extend reachability.
// Three cases, with reach kept transitively closed throughout:
//
//   - already implied (same level, or level(u) reaches level(v)): no-op;
//   - new order, no cycle: Italiano-style transitive insert — every level
//     reaching u's level ORs in v's row, word by word;
//   - cycle closed (level(v) already reached level(u)): merge u's level,
//     v's level and every level between them (reach[j][k] && reach[k][i])
//     into one, then renumber in place — exactly the SCC coarsening Lemma
//     5.1 style monotone reasoning predicts.
func (s *Structure) insertStep(u, v graph.ID) stepOutcome {
	// Defensive: unknown vertices get singleton levels (normally the
	// AddVertex change precedes any edge mentioning it).
	if s.LevelOf(u) < 0 {
		s.addSingleton(u)
	}
	if s.LevelOf(v) < 0 {
		s.addSingleton(v)
	}
	i, j := s.LevelOf(u), s.LevelOf(v)
	if i == j || s.reach[i].has(j) {
		return stepNoop
	}
	if !s.reach[j].has(i) {
		// Transitive insert: levels a with a == i or reach[a][i] now reach
		// j and everything j reaches. No cycle can arise: reach[j][x] with
		// reach[x][i] would imply reach[j][i], so no row gains its own bit
		// and row j itself is never written.
		rowJ := s.reach[j]
		for a, row := range s.reach {
			if a == i || row.has(i) {
				s.reach[a] = row.with(j).or(rowJ)
			}
		}
		return stepInsert
	}
	s.merge(i, j)
	return stepMerge
}

// merge collapses the cycle the step i → j closed (j already reached i):
// M = {i, j} ∪ {k : reach[j][k] && reach[k][i]} becomes one level at the
// smallest member index t, and the other members D are deleted.
func (s *Structure) merge(i, j int) {
	mem := []int{i, j}
	s.reach[j].each(func(k int) {
		if k != i && s.reach[k].has(i) {
			mem = append(mem, k)
		}
	})
	slices.Sort(mem)
	t, drop := mem[0], mem[1:]
	// j reaches every other member and reach is transitively closed, so
	// row j is already the union of the members' rows: the merged level's
	// row. Levels reaching any member (equivalently, reaching i) absorb
	// it; member columns fold into t when the rows are renumbered below.
	union := s.reach[j]
	for a, row := range s.reach {
		if row.has(i) {
			s.reach[a] = row.or(union)
		}
	}
	var members []graph.ID
	for _, m := range mem {
		members = append(members, s.levels[m]...)
	}
	slices.Sort(members)
	s.levels[t], s.reach[t] = members, union
	// Delete the dropped levels: only indexes past drop[0] move.
	n, k := drop[0], 0
	for x := drop[0]; x < len(s.levels); x++ {
		if k < len(drop) && drop[k] == x {
			k++
			continue
		}
		s.levels[n], s.reach[n] = s.levels[x], s.reach[x]
		n++
	}
	clear(s.levels[n:])
	clear(s.reach[n:])
	s.levels, s.reach = s.levels[:n], s.reach[:n]
	for a, row := range s.reach {
		s.reach[a] = row.dropCols(t, drop)
	}
	s.reach[t].clear(t) // member-to-member flow is intra-level now
	for _, v := range members {
		s.of[v] = int32(t)
	}
	for x := drop[0]; x < n; x++ {
		for _, v := range s.levels[x] {
			s.of[v] = int32(x)
		}
	}
}

// dropCols renumbers r's columns for a merge into t: a bit in drop
// (ascending, every member above t) becomes bit t, and every other bit
// above drop[0] moves down by the number of dropped columns below it. The
// row is rewritten in place from drop[0]'s word on; rows that end before
// it are untouched.
func (r bitrow) dropCols(t int, drop []int) bitrow {
	w0 := drop[0] >> 6
	if w0 >= len(r) {
		return r
	}
	keep := uint64(1)<<(drop[0]&63) - 1
	hit, k := false, 0
	for w := w0; w < len(r); w++ {
		x := r[w]
		if w == w0 {
			r[w] = x & keep
			x &^= keep
		} else {
			r[w] = 0
		}
		// Targets never exceed their source bit, so they land in words
		// already rewritten (or this one, whose source bits are in x).
		for ; x != 0; x &= x - 1 {
			c := w<<6 | bits.TrailingZeros64(x)
			for k < len(drop) && drop[k] < c {
				k++
			}
			if k < len(drop) && drop[k] == c {
				hit = true
				continue
			}
			c -= k
			r[c>>6] |= 1 << (c & 63)
		}
	}
	if hit {
		r = r.with(t)
	}
	for len(r) > 0 && r[len(r)-1] == 0 {
		r = r[:len(r)-1]
	}
	return r
}

// EquivalentTo reports whether two structures describe the same level
// partition and the same `higher` order, up to renumbering of level
// indices — the equivalence the incremental ≡ from-scratch property tests
// assert.
func (s *Structure) EquivalentTo(o *Structure) bool {
	if len(s.levels) != len(o.levels) {
		return false
	}
	perm := make([]int, len(s.levels))
	for i, lvl := range s.levels {
		oi := o.LevelOf(lvl[0])
		if oi < 0 || len(o.levels[oi]) != len(lvl) {
			return false
		}
		for _, v := range lvl {
			if o.LevelOf(v) != oi {
				return false
			}
		}
		perm[i] = oi
	}
	for i := range s.levels {
		for j := range s.levels {
			if s.reach[i].has(j) != o.reach[perm[i]].has(perm[j]) {
				return false
			}
		}
	}
	return true
}
