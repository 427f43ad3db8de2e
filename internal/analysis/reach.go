package analysis

import (
	"sync"
	"sync/atomic"

	"takegrant/internal/budget"
	"takegrant/internal/graph"
	"takegrant/internal/obs"
	"takegrant/internal/relang"
	"takegrant/internal/rights"
)

// ReachIndex memoizes the decision procedures' transitive structure as
// closure rows, so a warm can•share / can•know / can•know•f verdict is a
// bit-test instead of a budgeted product search. It implements the
// derived-index contract of internal/derived and is fed the graph's
// change stream through that registry.
//
// # Row families
//
// Two per-island families hold the chain closures of Theorems 2.3(iii)
// and 3.2(c), keyed by tg-island root: the bridge-chain row (subjects
// reachable through chains of islands and bridges) and the link-chain row
// (subjects reachable through words in B ∪ C). Both chain languages
// compose at subject boundaries and every tg edge inside an island is
// itself a bridge, so all subjects of one island share one row — the row
// is a property of the island, not the start vertex (this is the typed
// per-island bridge index: one bitset per (island, chain type)).
//
// Three per-vertex families answer the predicates:
//
//   - share[x]: every vertex s some subject in x's bridge-chain closure
//     terminally spans — can•share(α,x,y) is then "some source of y with
//     an explicit α edge is in share[x]" (Theorem 2.3 with the spanner
//     and chain conditions pre-folded).
//   - know[x]: the can•know closure of x (exactly KnowClosure's set).
//   - knowf[x]: the can•know•f closure of x (KnowFClosure's set).
//
// Each row keeps its members in a relang.Bitset, and the rows a write
// can extend also keep the product search that built them, as a
// relang.Resumable: one visited bit per (vertex, NFA state).
//
// # Maintenance
//
// Monotone mutations can only grow a closure, and each family reads a
// known alphabet: bridge chains and t*/t*g spans read explicit t/g only;
// link chains and rw-spans read explicit r/w/t/g; admissible paths read
// r/w in either view. Patch handles each change in one of three ways.
//
//   - Extend. An explicit r/w add, an implicit r/w add or a vertex add
//     resumes the live rows' searches in place: from every visited
//     (src, q) with a forward transition on an added right to (dst, q′),
//     from every visited (dst, q) with a reverse one to (src, q′), under
//     the usual guards, then on to whatever those states open up. That is
//     exactly the fixpoint a rebuild would reach, at a cost that follows
//     the size of the change: the know family's link rows, span rows and
//     per-vertex spanner searches and the knowf rows grow in place and
//     stay warm. Subjects newly accepted into a link row become new seeds
//     of its island's span row; spanners newly reached by a know row add
//     references to more island span rows. A vertex add only appends:
//     bitsets read an absent tail as unset. The searches run over the
//     graph's live adjacency, so a write builds no CSR snapshot, and a
//     family with no live rows costs nothing.
//   - Drop. An explicit t/g add can merge tg-islands, which re-keys the
//     island rows: it drops the share and know families, and the next
//     query lazily rebuilds its row under that query's budget. An
//     extension may also grow a row by at most the row's own size; past
//     that Patch drops the row (for an island row, its whole family), as
//     it does a know row whose new spanner lands in an island with no
//     live span row. An add outside every alphabet, and any removal of
//     uninterpreted rights, is absorbed as a no-op.
//   - Invalidate. Removals within the alphabets and destructive changes
//     make Patch return false; the registry then calls Invalidate and
//     every verdict falls back to the budgeted from-scratch build — never
//     a stale answer.
//
// # Concurrency
//
// Patch and Invalidate run under the graph's mutation lock with no
// concurrent readers (the graph.SetRecorder contract), so extending rows
// in place never races a reader. Queries may run concurrently with each
// other; two readers racing to build the same row both compute it, one
// publishes and the other adopts it (the qcache double-compute idiom). A
// row is warm iff its generation matches its family's; every Patch that
// touches a family bumps the generation (restamping the rows it
// extended), so a build that straddled a mutation is served but never
// published.
type ReachIndex struct {
	g *graph.Graph

	mu sync.Mutex
	// Per-family build generations: a row is warm iff row.gen matches its
	// family's generation. Bumped by every change the family sees, which
	// restamps the rows it extends and drops the rest; all bumped by
	// Invalidate.
	shareGen uint64
	knowGen  uint64
	knowfGen uint64

	share     map[graph.ID]*reachRow // per x (span-row references)
	know      map[graph.ID]*reachRow // per x (span-row references)
	knowf     map[graph.ID]*reachRow // per x
	chain     map[graph.ID]*reachRow // per island root (bridge chains)
	link      map[graph.ID]*reachRow // per island root (links, B ∪ C)
	shareSpan map[graph.ID]*reachRow // per island root (chain ∪ terminal spans)
	knowSpan  map[graph.ID]*reachRow // per island root (link ∪ rw-terminal spans)

	hits     atomic.Uint64
	misses   atomic.Uint64
	rebuilds atomic.Uint64
}

// reachRow is one closure row: the generation it was built under and its
// member set. Island rows additionally keep their island root and, for
// chain rows, the member subjects as search seeds for the span rows built
// on top of them. Per-vertex share and know rows carry no set of their
// own: their membership is the union of the per-island span rows they
// reference (spans), so N query vertices whose spanners land in the same
// islands share one terminal-span computation instead of running N.
// search is the row's product search, kept by the families a write
// extends (know and knowf) and nil in the share family.
type reachRow struct {
	gen    uint64
	set    *relang.Bitset
	root   graph.ID
	ids    []graph.ID
	spans  []*reachRow
	search *relang.Resumable
}

// has reports membership across the row's own set and its referenced
// span rows. Span rows are only referenced by rows of the same family
// generation, and families drop together — a live row never reaches a
// dropped span row.
func (r *reachRow) has(v graph.ID) bool {
	if r.set != nil && r.set.HasVertex(v) {
		return true
	}
	for _, sp := range r.spans {
		if sp.set.HasVertex(v) {
			return true
		}
	}
	return false
}

// refs reports whether the row references the span row of island root.
func (r *reachRow) refs(root graph.ID) bool {
	for _, sp := range r.spans {
		if sp.root == root {
			return true
		}
	}
	return false
}

// growLimit is the most product states one change may leave a row's
// search holding: its size before the change plus as much again — and
// never less than one more vertex's worth of automaton states, so a tiny
// row can still take in the vertex a create adds. A larger growth drops
// the row, as its rebuild would cost about as much.
func growLimit(s *relang.Resumable) int { return s.Len() + max(s.Len(), s.States()) }

// reachRWTG is the union of every alphabet a reach row reads.
var reachRWTG = rights.RW.Union(rights.TG)

// NewReachIndex returns an empty index over g. Register it with the
// derived registry (or otherwise feed it g's change stream) before
// mutating g, or its rows will go silently stale.
func NewReachIndex(g *graph.Graph) *ReachIndex {
	return &ReachIndex{
		g:         g,
		share:     make(map[graph.ID]*reachRow),
		know:      make(map[graph.ID]*reachRow),
		knowf:     make(map[graph.ID]*reachRow),
		chain:     make(map[graph.ID]*reachRow),
		link:      make(map[graph.ID]*reachRow),
		shareSpan: make(map[graph.ID]*reachRow),
		knowSpan:  make(map[graph.ID]*reachRow),
	}
}

// Name identifies the index in the derived registry.
func (ix *ReachIndex) Name() string { return "reach_closure" }

// Patch implements the derived-index contract: r/w adds and vertex adds
// extend the live rows in place, t/g adds drop the families whose island
// keys they may change, removals outside every alphabet are no-ops, and
// anything else (in-alphabet removals, destructive changes) reports false
// so the registry invalidates. Called under the graph's mutation lock.
func (ix *ReachIndex) Patch(c graph.Change) bool {
	switch c.Kind {
	case graph.ChangeAddVertex:
		// A fresh vertex has no edges, so no closure changes; every row's
		// bitsets read its IDs as unset until an extension reaches it.
		return true
	case graph.ChangeAddExplicit, graph.ChangeAddImplicit:
		// Only admissible paths read implicit labels (the de jure spans and
		// chains are explicit-view searches).
		implicit := c.Kind == graph.ChangeAddImplicit
		ix.mu.Lock()
		if !implicit && c.Set.HasAny(rights.TG) {
			ix.dropShareLocked()
			ix.dropKnowLocked()
		} else if !implicit && c.Set.HasAny(rights.RW) {
			ix.extendKnowLocked(c)
		}
		if c.Set.HasAny(rights.RW) {
			ix.extendKnowFLocked(c, implicit)
		}
		ix.mu.Unlock()
		return true
	case graph.ChangeRemoveExplicit, graph.ChangeRemoveImplicit:
		// Removing rights no row family reads cannot shrink any closure.
		return !c.Set.HasAny(reachRWTG)
	default:
		return false
	}
}

// extendKnowLocked resumes every live know-family row after the explicit
// r/w add c: link rows first, whose newly accepted subjects then seed
// their island's span row, then the per-vertex spanner searches. A link
// or span row past its growth limit drops the family; a know row past its
// limit, or whose new spanner's island has no live span row, is dropped
// alone.
func (ix *ReachIndex) extendKnowLocked(c graph.Change) {
	ix.knowGen++
	if len(ix.know)+len(ix.link)+len(ix.knowSpan) == 0 {
		return
	}
	g := ix.g
	gen := ix.knowGen
	fresh := make(map[graph.ID][]graph.ID)
	for root, lr := range ix.link {
		err := lr.search.AddEdge(g, c.Src, c.Dst, c.Set, false, growLimit(lr.search), func(v graph.ID) {
			if g.IsSubject(v) && lr.set.AddVertex(v) {
				lr.ids = append(lr.ids, v)
				fresh[root] = append(fresh[root], v)
			}
		})
		if err != nil {
			ix.dropKnowLocked()
			return
		}
		lr.gen = gen
	}
	for root, sr := range ix.knowSpan {
		limit := growLimit(sr.search)
		add := func(v graph.ID) { sr.set.AddVertex(v) }
		err := sr.search.AddEdge(g, c.Src, c.Dst, c.Set, false, limit, add)
		if seeds := fresh[root]; err == nil && len(seeds) > 0 {
			for _, v := range seeds {
				sr.set.AddVertex(v)
			}
			err = sr.search.AddStarts(g, seeds, limit, add)
		}
		if err != nil {
			ix.dropKnowLocked()
			return
		}
		sr.gen = gen
	}
	var spanners []graph.ID
	for x, kr := range ix.know {
		spanners = spanners[:0]
		err := kr.search.AddEdge(g, c.Src, c.Dst, c.Set, false, growLimit(kr.search), func(v graph.ID) {
			if v != x && g.IsSubject(v) {
				spanners = append(spanners, v)
			}
		})
		ok := err == nil
		for _, u := range spanners {
			if !ok {
				break
			}
			root := g.TGIslands().Root(u)
			if kr.refs(root) {
				continue
			}
			sr := ix.knowSpan[root]
			ok = sr != nil
			if ok {
				kr.spans = append(kr.spans, sr)
			}
		}
		if !ok {
			delete(ix.know, x)
			continue
		}
		kr.gen = gen
	}
}

// extendKnowFLocked resumes every live knowf row after the r/w add c,
// adding the definition's implicit-edge base cases an implicit add
// creates at the row's own vertex. A row past its growth limit is
// dropped.
func (ix *ReachIndex) extendKnowFLocked(c graph.Change, implicit bool) {
	ix.knowfGen++
	for x, fr := range ix.knowf {
		err := fr.search.AddEdge(ix.g, c.Src, c.Dst, c.Set, implicit, growLimit(fr.search), func(v graph.ID) {
			fr.set.AddVertex(v)
		})
		if err != nil {
			delete(ix.knowf, x)
			continue
		}
		if implicit && c.Src == x && c.Set.Has(rights.Read) {
			fr.set.AddVertex(c.Dst)
		}
		if implicit && c.Dst == x && c.Set.Has(rights.Write) {
			fr.set.AddVertex(c.Src)
		}
		fr.gen = ix.knowfGen
	}
}

// Invalidate drops every row; subsequent verdicts fall back to budgeted
// from-scratch builds. Called under the graph's mutation lock.
func (ix *ReachIndex) Invalidate() {
	ix.mu.Lock()
	ix.dropShareLocked()
	ix.dropKnowLocked()
	ix.knowfGen++
	clear(ix.knowf)
	ix.mu.Unlock()
}

func (ix *ReachIndex) dropShareLocked() {
	ix.shareGen++
	clear(ix.share)
	clear(ix.chain)
	clear(ix.shareSpan)
}

func (ix *ReachIndex) dropKnowLocked() {
	ix.knowGen++
	clear(ix.know)
	clear(ix.link)
	clear(ix.knowSpan)
}

// IndexStats reports warm bit-test answers (hits), row builds forced by
// absent or dropped rows (misses) and total row constructions including
// the island chain rows (rebuilds).
func (ix *ReachIndex) IndexStats() (hits, misses, rebuilds uint64) {
	return ix.hits.Load(), ix.misses.Load(), ix.rebuilds.Load()
}

// CanShare answers can•share(α, x, y, G) from the closure index,
// building x's share row under b on a miss. warm reports whether the
// verdict was served without any product search — the closure fast path.
// The verdict is always exact (Theorem 2.3, pinned against the oracle by
// the property tests); on a budget trip the error wraps
// budget.ErrExhausted and the verdict is meaningless.
func (ix *ReachIndex) CanShare(alpha rights.Right, x, y graph.ID, p *obs.Probe, b *budget.Budget) (ok, warm bool, err error) {
	g := ix.g
	if !g.Valid(x) || !g.Valid(y) || x == y {
		return false, true, nil
	}
	if g.Explicit(x, y).Has(alpha) {
		return true, true, nil
	}
	row, warm, err := ix.shareRow(x, p, b)
	if err != nil {
		return false, false, err
	}
	// Theorem 2.3(i): the sources s with an explicit α edge to y, scanned
	// off the frozen snapshot exactly as the oracle scans them. A source
	// in share[x] is terminally spanned by a subject bridge-chain-linked
	// to an initial spanner of x — conditions (ii) and (iii) by one bit.
	snap := g.Snapshot()
	srcIDs, srcLbls := snap.In(y)
	if err := b.Charge(int64(1 + len(srcIDs))); err != nil {
		return false, warm, err
	}
	for j, s := range srcIDs {
		if snap.Label(srcLbls[j]).Explicit.Has(alpha) && row.has(s) {
			return true, warm, nil
		}
	}
	return false, warm, nil
}

// CanKnow answers can•know(x, y, G) from the closure index: y's bit in
// x's know row (Theorem 3.2 with the spanner and link-chain conditions
// pre-folded, exactly KnowClosure's membership).
func (ix *ReachIndex) CanKnow(x, y graph.ID, p *obs.Probe, b *budget.Budget) (ok, warm bool, err error) {
	g := ix.g
	if !g.Valid(x) || !g.Valid(y) {
		return false, true, nil
	}
	if x == y {
		return true, true, nil
	}
	row, warm, err := ix.knowRow(x, p, b)
	if err != nil {
		return false, false, err
	}
	if err := b.Charge(1); err != nil {
		return false, warm, err
	}
	return row.has(y), warm, nil
}

// CanKnowF answers can•know•f(x, y, G) from the closure index: y's bit
// in x's admissible-path closure row (Theorem 3.1, exactly
// KnowFClosure's membership).
func (ix *ReachIndex) CanKnowF(x, y graph.ID, p *obs.Probe, b *budget.Budget) (ok, warm bool, err error) {
	g := ix.g
	if !g.Valid(x) || !g.Valid(y) {
		return false, true, nil
	}
	if x == y {
		return true, true, nil
	}
	row, warm, err := ix.knowfRow(x, p, b)
	if err != nil {
		return false, false, err
	}
	if err := b.Charge(1); err != nil {
		return false, warm, err
	}
	return row.set.HasVertex(y), warm, nil
}

// row fetch ---------------------------------------------------------------

// getRow serves one per-vertex row, building it with build on a miss and
// publishing under the captured generation. The bool reports a warm hit.
func (ix *ReachIndex) getRow(rows map[graph.ID]*reachRow, gen *uint64, v graph.ID, p *obs.Probe,
	build func(gen uint64) (*reachRow, error)) (*reachRow, bool, error) {
	sp := p.Span("closure_index")
	ix.mu.Lock()
	cur := *gen
	if r := rows[v]; r != nil && r.gen == cur {
		ix.mu.Unlock()
		ix.hits.Add(1)
		sp.Count("hits", 1).End()
		return r, true, nil
	}
	ix.mu.Unlock()
	ix.misses.Add(1)
	sp.Count("misses", 1).End()
	r, err := build(cur)
	if err != nil {
		return nil, false, err
	}
	return ix.publish(rows, gen, v, r), false, nil
}

// publish installs a row built under generation r.gen unless a mutation
// moved the family on meanwhile (impossible under the service's lock
// discipline, tolerated here: the build is served, nothing published) or
// a concurrent reader published first, whose row is then adopted.
func (ix *ReachIndex) publish(rows map[graph.ID]*reachRow, gen *uint64, k graph.ID, r *reachRow) *reachRow {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if *gen != r.gen {
		return r
	}
	if old := rows[k]; old != nil && old.gen == r.gen {
		return old
	}
	rows[k] = r
	return r
}

func (ix *ReachIndex) shareRow(x graph.ID, p *obs.Probe, b *budget.Budget) (*reachRow, bool, error) {
	return ix.getRow(ix.share, &ix.shareGen, x, p, func(gen uint64) (*reachRow, error) {
		return ix.buildRefRow(x, gen, b, ix.chain, ix.shareSpan, &ix.shareGen,
			initialSpanRevNFA, bridgeChainNFA, terminalSpanNFA, false)
	})
}

func (ix *ReachIndex) knowRow(x graph.ID, p *obs.Probe, b *budget.Budget) (*reachRow, bool, error) {
	return ix.getRow(ix.know, &ix.knowGen, x, p, func(gen uint64) (*reachRow, error) {
		return ix.buildRefRow(x, gen, b, ix.link, ix.knowSpan, &ix.knowGen,
			rwInitialSpanRevNFA, linkChainNFA, rwTerminalNFA, true)
	})
}

func (ix *ReachIndex) knowfRow(x graph.ID, p *obs.Probe, b *budget.Budget) (*reachRow, bool, error) {
	return ix.getRow(ix.knowf, &ix.knowfGen, x, p, func(gen uint64) (*reachRow, error) {
		return ix.buildKnowFRow(x, gen, b)
	})
}

// row construction --------------------------------------------------------

// buildRefRow computes a share or know row as span-row references: for
// each island holding a subject that spans to x under revNFA (x itself
// when a subject), the per-island span row — the island's chain closure
// under chainNFA plus its spans under spanNFA. The per-x work shrinks to
// the local reverse spanner search plus map lookups; the O(E) chain and
// span searches run once per (island, era), not once per query vertex.
// keep retains the spanner search for extension. Reflexivity (x ∈ row)
// is handled by the callers' x == y early returns.
//
// For share rows this is Theorem 2.3(ii)-(iii) with initial spanners,
// bridge chains and terminal spans; for know rows it mirrors
// KnowClosureInto: rw-initial spanners, B ∪ C link chains and
// rw-terminal spans.
func (ix *ReachIndex) buildRefRow(x graph.ID, gen uint64, b *budget.Budget,
	chainRows, spanRows map[graph.ID]*reachRow, famGen *uint64,
	revNFA, chainNFA, spanNFA *relang.NFA, keep bool) (*reachRow, error) {
	g := ix.g
	ix.rebuilds.Add(1)
	search := relang.NewResumable(revNFA, relang.ViewExplicit)
	var spanners []graph.ID
	if g.IsSubject(x) {
		spanners = append(spanners, x)
	}
	if _, _, err := search.Start(g, []graph.ID{x}, b, func(v graph.ID) {
		if v != x && g.IsSubject(v) {
			spanners = append(spanners, v)
		}
	}); err != nil {
		return nil, err
	}
	row := &reachRow{gen: gen}
	if keep {
		row.search = search
	}
	if len(spanners) == 0 {
		return row, nil
	}
	spans, err := ix.spanRowsFor(chainRows, spanRows, famGen, chainNFA, spanNFA, spanners, gen, b, keep)
	if err != nil {
		return nil, err
	}
	row.spans = spans
	return row, nil
}

// buildKnowFRow computes knowf[x] as the admissible-path closure plus the
// definition's implicit-edge base cases, as KnowFClosureInto does.
func (ix *ReachIndex) buildKnowFRow(x graph.ID, gen uint64, b *budget.Budget) (*reachRow, error) {
	g := ix.g
	ix.rebuilds.Add(1)
	set := new(relang.Bitset)
	set.Reserve(g.Cap())
	set.AddVertex(x)
	knowFBaseCases(g.Snapshot(), x, func(v graph.ID) { set.AddVertex(v) })
	search := relang.NewResumable(admissibleNFA, relang.ViewCombined)
	if _, _, err := search.Start(g, []graph.ID{x}, b, func(v graph.ID) { set.AddVertex(v) }); err != nil {
		return nil, err
	}
	return &reachRow{gen: gen, set: set, search: search}, nil
}

// spanRowsFor resolves the per-island span rows for the islands of the
// given subjects: for each distinct island root, the island's chain row
// (of chainNFA, built if missing) extended by everything its subjects
// span under spanNFA. Both computations are properties of the island —
// chain languages compose at subject boundaries and island tg edges are
// bridges — so the rows are keyed by island root and shared by every
// query vertex whose spanners land in the island. The union over islands
// equals the single merged-seed search it replaces: reachability from a
// seed union is the union of per-seed closures.
func (ix *ReachIndex) spanRowsFor(chainRows, spanRows map[graph.ID]*reachRow, gen *uint64,
	chainNFA, spanNFA *relang.NFA, subjects []graph.ID, want uint64, b *budget.Budget, keep bool) ([]*reachRow, error) {
	idx := ix.g.TGIslands()
	out := make([]*reachRow, 0, 2)
	for _, s := range subjects {
		root := idx.Root(s)
		dup := false
		for _, r := range out {
			dup = dup || r.root == root
		}
		if dup {
			continue
		}
		ix.mu.Lock()
		r := spanRows[root]
		if r == nil || r.gen != want {
			r = nil
		}
		chain := chainRows[root]
		if chain == nil || chain.gen != want {
			chain = nil
		}
		ix.mu.Unlock()
		if r == nil {
			if chain == nil {
				built, err := ix.buildChainRow(chainNFA, root, s, want, b, keep)
				if err != nil {
					return nil, err
				}
				chain = ix.publish(chainRows, gen, root, built)
			}
			built, err := ix.buildSpanRow(spanNFA, root, chain.ids, want, b, keep)
			if err != nil {
				return nil, err
			}
			r = ix.publish(spanRows, gen, root, built)
		}
		out = append(out, r)
	}
	return out, nil
}

// buildSpanRow computes one island's span row: the chain-closure
// subjects themselves (every subject spans itself via the ν span) plus
// everything they reach under spanNFA.
func (ix *ReachIndex) buildSpanRow(spanNFA *relang.NFA, root graph.ID, seeds []graph.ID, gen uint64, b *budget.Budget, keep bool) (*reachRow, error) {
	g := ix.g
	ix.rebuilds.Add(1)
	set := new(relang.Bitset)
	set.Reserve(g.Cap())
	for _, s := range seeds {
		set.AddVertex(s)
	}
	search := relang.NewResumable(spanNFA, relang.ViewExplicit)
	if _, _, err := search.Start(g, seeds, b, func(v graph.ID) { set.AddVertex(v) }); err != nil {
		return nil, err
	}
	row := &reachRow{gen: gen, set: set, root: root}
	if keep {
		row.search = search
	}
	return row, nil
}

// buildChainRow runs one chain search seeded from a single island member
// and collects the accepted subjects.
func (ix *ReachIndex) buildChainRow(nfa *relang.NFA, root, seed graph.ID, gen uint64, b *budget.Budget, keep bool) (*reachRow, error) {
	g := ix.g
	ix.rebuilds.Add(1)
	set := new(relang.Bitset)
	var ids []graph.ID
	// The empty chain ν makes every start a member of its own closure; the
	// search accepts it too.
	search := relang.NewResumable(nfa, relang.ViewExplicit)
	if _, _, err := search.Start(g, []graph.ID{seed}, b, func(v graph.ID) {
		if g.IsSubject(v) && set.AddVertex(v) {
			ids = append(ids, v)
		}
	}); err != nil {
		return nil, err
	}
	row := &reachRow{gen: gen, set: set, root: root, ids: ids}
	if keep {
		row.search = search
	}
	return row, nil
}
