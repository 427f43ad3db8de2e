package relang

import (
	"errors"
	"sync"

	"takegrant/internal/budget"
	"takegrant/internal/graph"
	"takegrant/internal/rights"
)

// View selects which edge labels a search traverses.
type View uint8

const (
	// ViewExplicit traverses only explicit (de jure) labels. Spans and
	// bridges are defined over explicit authority.
	ViewExplicit View = iota
	// ViewCombined traverses the union of explicit and implicit labels.
	// Admissible rw-paths may ride implicit edges added by de facto rules.
	ViewCombined
)

// Options configures a product search.
type Options struct {
	// View selects the traversed labels; default ViewExplicit.
	View View
	// Allow, when non-nil, restricts traversal to vertices it admits.
	// Start vertices are always admitted.
	Allow func(graph.ID) bool
	// Trace records per-state steps so Witness and Origin work. Leave it
	// off for boolean reachability — the searches under CanShare/CanKnow
	// run hot and skip the bookkeeping.
	Trace bool
	// Budget, when non-nil, is charged one unit per product state expanded.
	// When it trips, the search stops where it is and Result.Err reports
	// the exhaustion; the partial Result must not be read as a verdict.
	Budget *budget.Budget
}

// Step is one edge traversal of a witness path.
type Step struct {
	From, To graph.ID // path order: the step leaves From and enters To
	Sym      Symbol
}

// Result holds the reachable product states of a Search and supports
// witness-path extraction.
//
// Internally product states (vertex, nfa-state) are indexed densely as
// vertex*numStates+state: the search is the hot path under every decision
// procedure, and slice-indexed bookkeeping beats hashing by a wide margin.
type Result struct {
	g      *graph.Graph
	n      *NFA
	states int
	// parent[idx] is the predecessor product index (selfParent for
	// starts); steps[idx] is the edge taken (Sym.Right == stepNone for
	// ε-moves and starts). Both exist only for Trace searches: an
	// untraced search keeps nothing but its visited bits.
	parent  []int32
	steps   []Step
	accepts map[graph.ID]int32 // first accepting product index per vertex
	order   []graph.ID         // accepted vertices in discovery order
	visited int                // product states enqueued
	scanned int                // half-edges examined across all expansions
	err     error              // non-nil when a budget aborted the search
}

const (
	selfParent = int32(-2)
	stepNone   = rights.Right(255)
)

// ErrGrowthLimit reports that a Resumable extension visited more new
// product states than its caller allowed. The visited set then holds a
// partial extension and must be discarded.
var ErrGrowthLimit = errors.New("relang: extension grew past its limit")

// scratch is the pooled working set of one search run: the visited bits
// of a one-shot search, the BFS queue, and the buffers an extension reads
// the live adjacency into. A one-shot search clears the bits it set
// through its queue before returning, so starting a search is O(1) after
// the first use at a given size and costs one bit per product state.
type scratch struct {
	vis   Bitset
	queue []int32
	dst   []graph.ID
	lbl   []graph.LabelPair
	iota  []uint32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// run is the one product-BFS kernel. Every entry point seeds product
// states into vis and drains its queue here — a one-shot Search or
// SearchVisit, a Resumable's first build and each of its extensions — so
// a fresh search is just the extension of an empty visited set. Seeds are
// starts in the start state plus, when edge is set, the moves across one
// grown edge. With live set the search reads g's live adjacency maps
// instead of its snapshot: an extension runs inside a mutation, where the
// snapshot is stale and rebuilding it is the O(V+E) the extension exists
// to avoid. With res non-nil acceptance (and, when res carries parent
// arrays, the witness bookkeeping) is recorded on the Result; otherwise
// each newly accepted vertex streams to visit. A non-negative limit caps
// the visited set's size (ErrGrowthLimit past it).
func run(g *graph.Graph, n *NFA, opts Options, vis *Bitset, live bool, limit int,
	starts []graph.ID, edge *edgeSeed, res *Result, visit func(graph.ID)) (nVisited, nScanned int, err error) {
	sc := scratchPool.Get().(*scratch)
	nq := len(n.states)
	queue := sc.queue[:0]
	if vis == nil {
		vis = &sc.vis
	}
	var snap *graph.Snapshot
	var labels []graph.LabelPair
	if !live {
		snap = g.Snapshot()
		labels = snap.Labels()
		vis.Reserve(snap.Cap() * nq)
	}
	base := vis.Len()
	words := vis.words
	add := func(v graph.ID, st int, par int32, step Step) {
		i := int(v)*nq + st
		// vis.Set, spelled out on a local copy of its words: the call does
		// not inline, and the hot path should not reload through vis.
		w, m := i>>6, uint64(1)<<(uint(i)&63)
		if w >= len(words) {
			vis.Reserve(i + 1)
			words = vis.words
		}
		if words[w]&m != 0 {
			return
		}
		words[w] |= m
		if res != nil && res.parent != nil {
			res.parent[i] = par
			res.steps[i] = step
		}
		queue = append(queue, int32(i))
		if st == n.accept {
			// The accept product state of v is visited at most once, so
			// both sinks see each vertex exactly once.
			if res != nil {
				if _, seen := res.accepts[v]; !seen {
					res.accepts[v] = int32(i)
					res.order = append(res.order, v)
				}
			} else if visit != nil {
				visit(v)
			}
		}
	}
	noStep := Step{Sym: Symbol{Right: stepNone}}
	view, allow, bud := opts.View, opts.Allow, opts.Budget

	for _, v := range starts {
		if (live && g.Valid(v)) || (!live && snap.Live(v)) {
			add(v, n.start, selfParent, noStep)
		}
	}
	if edge != nil {
		// The only new moves are across the grown edge: forward from every
		// visited (src, q), reverse from every visited (dst, q).
		src, dst := edge.src, edge.dst
		srcSubj, dstSubj := g.IsSubject(src), g.IsSubject(dst)
		for q := range n.states {
			atSrc, atDst := vis.Has(int(src)*nq+q), vis.Has(int(dst)*nq+q)
			if !atSrc && !atDst {
				continue
			}
			for _, tr := range n.states[q].syms {
				if !edge.added.Has(tr.sym.Right) {
					continue
				}
				if tr.sym.Dir == Fwd {
					if atSrc && guardOK(tr.guard, srcSubj, dstSubj) {
						add(dst, tr.to, selfParent, noStep)
					}
				} else if atDst && guardOK(tr.guard, dstSubj, srcSubj) {
					add(src, tr.to, selfParent, noStep)
				}
			}
		}
	}

	for head := 0; head < len(queue); head++ {
		if bud != nil {
			if cerr := bud.Charge(1); cerr != nil {
				err = cerr
				break
			}
		}
		if limit >= 0 && base+len(queue) > limit {
			err = ErrGrowthLimit
			break
		}
		k := queue[head]
		v := graph.ID(int(k) / nq)
		st := &n.states[int(k)%nq]
		vSubj := subjectIn(g, snap, v)
		// ε-moves stay on the same vertex.
		for _, e := range st.eps {
			if e.needSubject && !vSubj {
				continue
			}
			add(v, e.to, k, noStep)
		}
		// Symbol moves traverse edges.
		if len(st.syms) == 0 {
			continue
		}
		var outDst, inDst []graph.ID
		var outLbl, inLbl []uint32
		if live {
			outDst, outLbl, inDst, inLbl, labels = sc.liveEdges(g, v)
		} else {
			outDst, outLbl = snap.Out(v)
			inDst, inLbl = snap.In(v)
		}
		for _, tr := range st.syms {
			dsts, lbls := outDst, outLbl
			if tr.sym.Dir != Fwd {
				dsts, lbls = inDst, inLbl
			}
			nScanned += len(dsts)
			for j, w := range dsts {
				if !labelFor(labels[lbls[j]], view).Has(tr.sym.Right) {
					continue
				}
				if allow != nil && !allow(w) {
					continue
				}
				// Only a head guard reads w's kind.
				if tr.guard != GuardNone && !guardOK(tr.guard, vSubj, tr.guard == GuardHeadSubject && subjectIn(g, snap, w)) {
					continue
				}
				add(w, tr.to, k, Step{From: v, To: w, Sym: tr.sym})
			}
		}
	}
	nVisited = len(queue)
	if vis == &sc.vis {
		vis.clearIndices(queue)
	} else {
		vis.n += nVisited
	}
	sc.queue = queue[:0]
	scratchPool.Put(sc)
	return nVisited, nScanned, err
}

// liveEdges lists v's out- and in-edges from g's live adjacency maps in
// the snapshot's shape: destinations with indices into a label table,
// here one label per listed edge. Kept out of line, off the snapshot
// path's registers.
func (sc *scratch) liveEdges(g *graph.Graph, v graph.ID) (outDst []graph.ID, outLbl []uint32, inDst []graph.ID, inLbl []uint32, labels []graph.LabelPair) {
	sc.dst, sc.lbl = g.AppendOut(v, sc.dst[:0], sc.lbl[:0])
	nOut := len(sc.dst)
	sc.dst, sc.lbl = g.AppendIn(v, sc.dst, sc.lbl)
	for len(sc.iota) < len(sc.dst) {
		sc.iota = append(sc.iota, uint32(len(sc.iota)))
	}
	return sc.dst[:nOut], sc.iota[:nOut], sc.dst[nOut:], sc.iota[nOut:len(sc.dst)], sc.lbl
}

// subjectIn reports whether v is a live subject in snap, or in g's live
// state when snap is nil.
func subjectIn(g *graph.Graph, snap *graph.Snapshot, v graph.ID) bool {
	if snap != nil {
		return snap.IsSubject(v)
	}
	return g.IsSubject(v)
}

// edgeSeed names the edge an extension resumes across: src→dst gained the
// rights in added.
type edgeSeed struct {
	src, dst graph.ID
	added    rights.Set
}

// Search explores the product of the protection graph with the automaton,
// starting at every vertex in starts (in the automaton's start state), and
// returns the reachable product states. A vertex is "accepted" when some
// path from a start vertex to it spells a word of the language.
//
// The search explores walks: vertices may repeat along a witness. For every
// language in this model that is the intended semantics — the rewriting
// rules that realise a span, bridge or connection are insensitive to
// revisits (see analysis package documentation).
//
// Adjacency comes from the graph's frozen per-revision CSR snapshot
// (graph.Snapshot): concurrent searches share one immutable flat-array
// view instead of each sorting map iterations.
func Search(g *graph.Graph, n *NFA, starts []graph.ID, opts Options) *Result {
	res := &Result{
		g:       g,
		n:       n,
		states:  len(n.states),
		accepts: make(map[graph.ID]int32),
	}
	res.visited, res.scanned, res.err = searchRun(g, n, starts, opts, res, nil)
	return res
}

// SearchVisit is the allocation-free variant of Search for bulk closure
// computation: instead of materializing a Result it streams each accepted
// vertex to visit, in discovery order, exactly once per vertex (the accept
// product state is enqueued at most once). It always runs on pooled
// scratch — Options.Trace is rejected — and returns the visited/scanned
// work counters plus the budget error, if any. On a non-nil error the
// vertices already streamed cover only the states expanded before the
// abort and must not be read as a complete closure.
func SearchVisit(g *graph.Graph, n *NFA, starts []graph.ID, opts Options, visit func(graph.ID)) (visited, scanned int, err error) {
	if opts.Trace {
		panic("relang: SearchVisit does not support Options.Trace")
	}
	return searchRun(g, n, starts, opts, nil, visit)
}

// searchRun is a one-shot search on pooled scratch. With res non-nil it
// records acceptance (and, when tracing, parents and steps) on the
// Result; with res nil it streams accepted vertices to visit.
func searchRun(g *graph.Graph, n *NFA, starts []graph.ID, opts Options, res *Result, visit func(graph.ID)) (nVisited, nScanned int, err error) {
	if opts.Trace {
		// Traced searches (witness extraction) keep parent/steps alive on
		// the Result; tracing is the cold path.
		size := g.Snapshot().Cap() * len(n.states)
		res.parent = make([]int32, size)
		res.steps = make([]Step, size)
	}
	return run(g, n, opts, nil, false, -1, starts, nil, res, visit)
}

// Resumable is a product search whose visited set outlives the call: when
// the graph grows monotonically, the search resumes from the product
// states the growth opens up instead of starting over, and reaches
// exactly the least fixpoint a fresh search of the grown graph would. It
// costs one bit per product state, vertex-major, so a vertex created
// later only appends. Long-lived derived indexes keep one per closure row.
//
// A Resumable is not safe for concurrent use. Start reads the graph's
// frozen snapshot; AddStarts and AddEdge read its live adjacency and are
// meant for mutation observers running under the graph's mutation lock.
type Resumable struct {
	n    *NFA
	view View
	vis  Bitset
}

// NewResumable returns an empty search of n's language over view.
func NewResumable(n *NFA, view View) *Resumable { return &Resumable{n: n, view: view} }

// Len returns the number of product states visited so far.
func (r *Resumable) Len() int { return r.vis.Len() }

// States returns the number of automaton states: one vertex's worth of
// product states.
func (r *Resumable) States() int { return len(r.n.states) }

// Start seeds starts in the automaton's start state and runs the search
// to its fixpoint over g's snapshot under budget b, streaming every newly
// accepted vertex to visit, and returns the work counters of this run.
// On a fresh Resumable this is a from-scratch search. On a budget error
// the visited set is partial and the Resumable must be discarded.
func (r *Resumable) Start(g *graph.Graph, starts []graph.ID, b *budget.Budget, visit func(graph.ID)) (visited, scanned int, err error) {
	return run(g, r.n, Options{View: r.view, Budget: b}, &r.vis, false, -1, starts, nil, nil, visit)
}

// AddStarts resumes the search with more start vertices, over g's live
// adjacency, streaming each newly accepted vertex to visit. A
// non-negative limit caps the visited set's size: past it the search
// stops with ErrGrowthLimit and the Resumable must be discarded.
func (r *Resumable) AddStarts(g *graph.Graph, starts []graph.ID, limit int, visit func(graph.ID)) error {
	_, _, err := run(g, r.n, Options{View: r.view}, &r.vis, true, limit, starts, nil, nil, visit)
	return err
}

// AddEdge resumes the search after the edge src→dst gained the rights in
// added (to its implicit label when implicit is set), over g's live
// adjacency, under the same limit and visit contract as AddStarts. The
// new moves are across that edge: from every visited (src, q) by a
// forward transition on a right in added, and from every visited (dst, q)
// by a reverse one, under the usual guards; the search then follows
// whatever those states open up.
func (r *Resumable) AddEdge(g *graph.Graph, src, dst graph.ID, added rights.Set, implicit bool, limit int, visit func(graph.ID)) error {
	if implicit && r.view != ViewCombined {
		return nil
	}
	_, _, err := run(g, r.n, Options{View: r.view}, &r.vis, true, limit, nil,
		&edgeSeed{src: src, dst: dst, added: added}, nil, visit)
	return err
}

// Visited returns the number of product states (vertex, nfa-state) the
// search enqueued — the |V|·|Q| term of the paper's complexity bounds
// (Corollaries 5.6/5.7), measured rather than assumed.
func (r *Result) Visited() int { return r.visited }

// Scanned returns the number of half-edges examined across all state
// expansions — the |E|·|Q| term of the complexity bounds.
func (r *Result) Scanned() int { return r.scanned }

// Err reports whether the search ran to completion. A non-nil error (a
// budget exhaustion) means the Result covers only the states expanded
// before the abort: Accepted may under-report and must not be read as a
// negative verdict.
func (r *Result) Err() error { return r.err }

func labelFor(l graph.LabelPair, v View) rights.Set {
	if v == ViewCombined {
		return l.Combined()
	}
	return l.Explicit
}

// Accepted reports whether v is reachable in an accepting state.
func (r *Result) Accepted(v graph.ID) bool {
	_, ok := r.accepts[v]
	return ok
}

// AcceptedVertices returns every accepted vertex in discovery order.
func (r *Result) AcceptedVertices() []graph.ID {
	return append([]graph.ID(nil), r.order...)
}

// Witness returns a path (sequence of steps) from some start vertex to v
// spelling a word of the language, or nil,false if v is not accepted.
// An empty non-nil slice means v itself is a start vertex accepted by the
// empty word.
func (r *Result) Witness(v graph.ID) ([]Step, bool) {
	if r.steps == nil {
		panic("relang: Witness needs a Search run with Options.Trace")
	}
	k, ok := r.accepts[v]
	if !ok {
		return nil, false
	}
	var rev []Step
	for r.parent[k] != selfParent {
		if r.steps[k].Sym.Right != stepNone {
			rev = append(rev, r.steps[k])
		}
		k = r.parent[k]
	}
	steps := make([]Step, len(rev))
	for i := range rev {
		steps[i] = rev[len(rev)-1-i]
	}
	return steps, true
}

// Origin returns the start vertex from which v was accepted.
func (r *Result) Origin(v graph.ID) (graph.ID, bool) {
	if r.parent == nil {
		panic("relang: Origin needs a Search run with Options.Trace")
	}
	k, ok := r.accepts[v]
	if !ok {
		return graph.None, false
	}
	for r.parent[k] != selfParent {
		k = r.parent[k]
	}
	return graph.ID(int(k) / r.states), true
}

// Reaches is a convenience wrapper: does a word of n's language label some
// walk from src to dst?
func Reaches(g *graph.Graph, n *NFA, src, dst graph.ID, opts Options) bool {
	return Search(g, n, []graph.ID{src}, opts).Accepted(dst)
}

// WordOf formats a witness as its associated word, e.g. "t> g> t<".
func WordOf(u *rights.Universe, steps []Step) string {
	if len(steps) == 0 {
		return "ν"
	}
	out := ""
	for i, s := range steps {
		if i > 0 {
			out += " "
		}
		out += s.Sym.Format(u)
	}
	return out
}
