package hierarchy

import (
	"runtime"
	"slices"
	"sync"

	"takegrant/internal/analysis"
	"takegrant/internal/budget"
	"takegrant/internal/graph"
	"takegrant/internal/obs"
	"takegrant/internal/rights"
)

// Options configures the instrumented derivation entry points
// (AnalyzeRWObs, AnalyzeRWTGObs, SecureObs, StrictSecureObs).
type Options struct {
	// Workers bounds the worker pool the per-subject closure loops fan
	// across; 0 or negative means GOMAXPROCS. Results are deterministic
	// for any worker count: each worker owns a contiguous index range and
	// merge order is by index.
	Workers int
	// Budget, when non-nil, is charged for visited product states and
	// scanned edges across all workers (via a budget.Group); exhaustion
	// aborts the derivation with an error wrapping budget.ErrExhausted —
	// never a wrong structure.
	Budget *budget.Budget
	// Probe receives per-phase spans with work counts; nil records
	// nothing.
	Probe *obs.Probe
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// fanOut splits [0, n) into one contiguous chunk per worker and runs fn
// concurrently, handing each worker a private budget drawing on the shared
// group. Output is deterministic as long as fn(w, ...) writes only
// worker-slot w / index-range state. Returns the first (lowest-chunk)
// error.
func fanOut(workers, n int, gr *budget.Group, fn func(w, lo, hi int, wb *budget.Budget) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		wb := gr.Worker()
		err := fn(0, 0, n, wb)
		wb.Flush() // report the sub-stride tail, or the group undercounts
		return err
	}
	chunk := (n + workers - 1) / workers
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			wb := gr.Worker()
			errs[w] = fn(w, lo, hi, wb)
			wb.Flush()
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Per-label relevance bits for the de facto step digraph, precomputed once
// per derivation from the snapshot's interned label table so the CSR build
// tests a byte instead of four rights-set probes per edge.
const (
	stepExpR = 1 << iota
	stepImpR
	stepExpW
	stepImpW
)

// AnalyzeRWObs is AnalyzeRW with workers, budget and probe: it derives the
// rw-level structure over the graph's frozen CSR snapshot on flat int32
// arrays — build the de facto step digraph as a CSR pair (parallel over
// vertex ranges), run Kosaraju on it, then compute condensation
// reachability in one topological pass. Spans: step_digraph, scc, reach.
func AnalyzeRWObs(g *graph.Graph, opt Options) (*Structure, error) {
	workers := opt.workers()
	b, p := opt.Budget, opt.Probe
	snap := g.Snapshot()
	n := snap.Cap()
	gr := b.Group()

	sp := p.Span("step_digraph")
	labBits := make([]uint8, snap.NumLabels())
	for i := range labBits {
		lp := snap.Label(uint32(i))
		var bits uint8
		if lp.Explicit.Has(rights.Read) {
			bits |= stepExpR
		}
		if lp.Implicit.Has(rights.Read) {
			bits |= stepImpR
		}
		if lp.Explicit.Has(rights.Write) {
			bits |= stepExpW
		}
		if lp.Implicit.Has(rights.Write) {
			bits |= stepImpW
		}
		labBits[i] = bits
	}

	// Count pass: deg[u] = out-degree of u in the step digraph.
	deg := make([]int32, n)
	countErr := fanOut(workers, n, gr, func(_, lo, hi int, wb *budget.Budget) error {
		for ui := lo; ui < hi; ui++ {
			u := graph.ID(ui)
			if !snap.Live(u) {
				continue
			}
			uSubj := snap.IsSubject(u)
			outDst, outLbl := snap.Out(u)
			inDst, inLbl := snap.In(u)
			if err := wb.Charge(int64(len(outDst) + len(inDst))); err != nil {
				return err
			}
			d := int32(0)
			for j := range outDst {
				bits := labBits[outLbl[j]]
				if (uSubj && bits&stepExpR != 0) || bits&stepImpR != 0 {
					d++
				}
			}
			for j, src := range inDst {
				bits := labBits[inLbl[j]]
				if (snap.IsSubject(src) && bits&stepExpW != 0) || bits&stepImpW != 0 {
					d++
				}
			}
			deg[u] = d
		}
		return nil
	})
	if countErr != nil {
		sp.Count("aborted", 1).End()
		return nil, countErr
	}
	start := make([]int32, n+1)
	for i := 0; i < n; i++ {
		start[i+1] = start[i] + deg[i]
	}
	total := start[n]

	// Fill pass: each vertex writes its own fwd segment, so chunks stay
	// disjoint and the listing is deterministic.
	fwd := make([]graph.ID, total)
	fillErr := fanOut(workers, n, gr, func(_, lo, hi int, wb *budget.Budget) error {
		for ui := lo; ui < hi; ui++ {
			u := graph.ID(ui)
			if !snap.Live(u) {
				continue
			}
			uSubj := snap.IsSubject(u)
			off := start[ui]
			outDst, outLbl := snap.Out(u)
			inDst, inLbl := snap.In(u)
			if err := wb.Charge(int64(len(outDst) + len(inDst))); err != nil {
				return err
			}
			for j, dst := range outDst {
				bits := labBits[outLbl[j]]
				if (uSubj && bits&stepExpR != 0) || bits&stepImpR != 0 {
					fwd[off] = dst
					off++
				}
			}
			for j, src := range inDst {
				bits := labBits[inLbl[j]]
				if (snap.IsSubject(src) && bits&stepExpW != 0) || bits&stepImpW != 0 {
					fwd[off] = src
					off++
				}
			}
		}
		return nil
	})
	if fillErr != nil {
		sp.Count("aborted", 1).End()
		return nil, fillErr
	}
	// Reverse CSR, derived from the forward listing in one sequential pass.
	revStart := make([]int32, n+1)
	for _, t := range fwd {
		revStart[t+1]++
	}
	for i := 0; i < n; i++ {
		revStart[i+1] += revStart[i]
	}
	rev := make([]graph.ID, total)
	cur := make([]int32, n)
	copy(cur, revStart[:n])
	for ui := 0; ui < n; ui++ {
		for k := start[ui]; k < start[ui+1]; k++ {
			t := fwd[k]
			rev[cur[t]] = graph.ID(ui)
			cur[t]++
		}
	}
	sp.Count("vertices", int64(n)).Count("step_edges", int64(total)).End()
	if err := b.Charge(gr.Visited()); err != nil {
		return nil, err
	}

	// Kosaraju over the flat CSR pair. Sequential — the passes are a
	// fraction of the closure work and inherently order-dependent.
	sp = p.Span("scc")
	s, err := sccFlat(g, snap, start, fwd, revStart, rev, b)
	sp.Count("levels", int64(len(s.levels))).End()
	if err != nil {
		return nil, err
	}

	sp = p.Span("reach")
	if err := s.computeReachFlat(start, fwd, b); err != nil {
		sp.Count("aborted", 1).End()
		return nil, err
	}
	sp.End()
	return s, nil
}

// sccFlat is iterative Kosaraju over a CSR pair, producing the level
// partition in the same shape sccOf does (each level's members sorted
// ascending; level order from reverse finish order — deterministic).
func sccFlat(g *graph.Graph, snap *graph.Snapshot, start []int32, fwd []graph.ID, revStart []int32, rev []graph.ID, b *budget.Budget) (*Structure, error) {
	n := snap.Cap()
	visited := make([]bool, n)
	order := make([]graph.ID, 0, g.NumVertices())
	var vstack []graph.ID
	var istack []int32
	for v0 := 0; v0 < n; v0++ {
		if visited[v0] || !snap.Live(graph.ID(v0)) {
			continue
		}
		visited[v0] = true
		vstack = append(vstack[:0], graph.ID(v0))
		istack = append(istack[:0], start[v0])
		for len(vstack) > 0 {
			v := vstack[len(vstack)-1]
			i := istack[len(istack)-1]
			if err := b.Charge(1); err != nil {
				return nil, err
			}
			advanced := false
			for i < start[v+1] {
				w := fwd[i]
				i++
				if !visited[w] {
					visited[w] = true
					istack[len(istack)-1] = i
					vstack = append(vstack, w)
					istack = append(istack, start[w])
					advanced = true
					break
				}
			}
			if !advanced {
				order = append(order, v)
				vstack = vstack[:len(vstack)-1]
				istack = istack[:len(istack)-1]
			}
		}
	}
	s := &Structure{g: g}
	s.of = make([]int32, n)
	for i := range s.of {
		s.of[i] = -1
	}
	comp := make([]graph.ID, 0, 16)
	for i := len(order) - 1; i >= 0; i-- {
		root := order[i]
		if s.of[root] >= 0 {
			continue
		}
		idx := int32(len(s.levels))
		comp = append(comp[:0], root)
		s.of[root] = idx
		for head := 0; head < len(comp); head++ {
			v := comp[head]
			if err := b.Charge(1); err != nil {
				return nil, err
			}
			for k := revStart[v]; k < revStart[v+1]; k++ {
				u := rev[k]
				if s.of[u] < 0 {
					s.of[u] = idx
					comp = append(comp, u)
				}
			}
		}
		slices.Sort(comp)
		s.levels = append(s.levels, append([]graph.ID(nil), comp...))
	}
	return s, nil
}

// computeReachFlat fills the condensation reachability rows from the
// step CSR in one sequential pass. Kosaraju numbers the levels in
// topological order, so every level edge i → j has j > i: filling rows in
// descending i, row i = ∪ (bit j | row j) over its level edges is final
// once every row it reads is. Charges b one unit per level edge plus one
// per level.
func (s *Structure) computeReachFlat(start []int32, fwd []graph.ID, b *budget.Budget) error {
	L := len(s.levels)
	s.reach = make([]bitrow, L)
	mark := make([]int32, L)
	for i := range mark {
		mark[i] = -1
	}
	var adj []int32
	for i := L - 1; i >= 0; i-- {
		adj = adj[:0]
		words := 0
		for _, v := range s.levels[i] {
			for k := start[v]; k < start[v+1]; k++ {
				j := s.of[fwd[k]]
				if j >= 0 && int(j) != i && mark[j] != int32(i) {
					mark[j] = int32(i)
					adj = append(adj, j)
					words = max(words, int(j)>>6+1, len(s.reach[j]))
				}
			}
		}
		if err := b.Charge(int64(len(adj) + 1)); err != nil {
			return err
		}
		// Sized for every bit and row it absorbs, so with and or never
		// reallocate it.
		row := make(bitrow, words)
		for _, j := range adj {
			row.with(int(j)).or(s.reach[j])
		}
		s.reach[i] = row
	}
	return nil
}

// AnalyzeRWTGObs is AnalyzeRWTG with workers, budget and probe: the
// per-subject can•know closures — the dominant cost — fan across the
// worker pool (each worker reuses one closure buffer and charges a
// group-shared budget), results land in index-order slots for a
// deterministic knows digraph, and the SCC + reach condensation reuses
// the level machinery. Spans: parallel_closures, rwtg_scc.
func AnalyzeRWTGObs(g *graph.Graph, opt Options) (*Structure, error) {
	workers := opt.workers()
	b, p := opt.Budget, opt.Probe
	subjects := g.Subjects()
	subjIdx := make([]int32, g.Cap())
	for i := range subjIdx {
		subjIdx[i] = -1
	}
	for i, u := range subjects {
		subjIdx[u] = int32(i)
	}
	knows := make([][]graph.ID, len(subjects))
	gr := b.Group()
	sp := p.Span("parallel_closures")
	err := fanOut(workers, len(subjects), gr, func(_, lo, hi int, wb *budget.Budget) error {
		var buf []graph.ID
		for idx := lo; idx < hi; idx++ {
			u := subjects[idx]
			buf = buf[:0]
			var err error
			buf, err = analysis.KnowClosureInto(g, u, buf, wb)
			if err != nil {
				return err
			}
			ks := make([]graph.ID, 0, len(buf))
			for _, v := range buf {
				if v != u && subjIdx[v] >= 0 {
					ks = append(ks, v)
				}
			}
			knows[idx] = ks
		}
		return nil
	})
	sp.Count("subjects", int64(len(subjects))).Count("workers", int64(workers)).Count("visited", gr.Visited()).End()
	if err != nil {
		return nil, err
	}
	if err := b.Charge(gr.Visited()); err != nil {
		return nil, err
	}
	sp = p.Span("rwtg_scc")
	succ := func(u graph.ID) []graph.ID { return knows[subjIdx[u]] }
	s := sccOf(g, subjects, succ)
	s.computeReach(succ)
	sp.Count("levels", int64(len(s.levels))).End()
	return s, nil
}

// SecureObs is Secure with workers, budget and probe: derive the rw-levels
// (AnalyzeRWObs), then sweep one can•know closure per vertex — subjects
// and objects alike, replacing the former pairwise object × vertex
// CanKnow scan — across the worker pool. The returned violation is
// deterministic: the lowest-position vertex with a breach, witnessed by
// the first closure member above it in discovery order.
func SecureObs(g *graph.Graph, opt Options) (bool, *Violation, error) {
	rw, err := AnalyzeRWObs(g, opt)
	if err != nil {
		return false, nil, err
	}
	return secureWith(g, rw, opt)
}

// secureWith runs the §5 sweep against an already-derived rw structure;
// the engine calls it with its incrementally maintained structure.
func secureWith(g *graph.Graph, rw *Structure, opt Options) (bool, *Violation, error) {
	workers := opt.workers()
	b, p := opt.Budget, opt.Probe
	vs := g.Vertices()
	gr := b.Group()
	if workers > len(vs) {
		workers = len(vs)
	}
	if workers < 1 {
		workers = 1
	}
	viols := make([]*Violation, workers)
	sp := p.Span("secure_sweep")
	err := fanOut(workers, len(vs), gr, func(w, lo, hi int, wb *budget.Budget) error {
		var buf []graph.ID
		for pos := lo; pos < hi && viols[w] == nil; pos++ {
			u := vs[pos]
			buf = buf[:0]
			var err error
			buf, err = analysis.KnowClosureInto(g, u, buf, wb)
			if err != nil {
				return err
			}
			for _, v := range buf {
				if v != u && rw.Higher(v, u) {
					viols[w] = &Violation{Lower: u, Upper: v}
					break
				}
			}
		}
		return nil
	})
	sp.Count("vertices", int64(len(vs))).Count("workers", int64(workers)).Count("visited", gr.Visited()).End()
	if err != nil {
		return false, nil, err
	}
	if err := b.Charge(gr.Visited()); err != nil {
		return false, nil, err
	}
	for _, v := range viols {
		if v != nil {
			return false, v, nil
		}
	}
	return true, nil, nil
}

// StrictSecureObs is StrictSecure with workers, budget and probe: for
// each vertex, the can•know closure is compared against the bulk
// can•know•f closure (one admissible search plus implicit base cases)
// instead of |closure| pairwise CanKnowF searches. Deterministic witness
// as in SecureObs.
func StrictSecureObs(g *graph.Graph, opt Options) (bool, *Violation, error) {
	workers := opt.workers()
	b, p := opt.Budget, opt.Probe
	vs := g.Vertices()
	gr := b.Group()
	if workers > len(vs) {
		workers = len(vs)
	}
	if workers < 1 {
		workers = 1
	}
	viols := make([]*Violation, workers)
	sp := p.Span("strict_secure_sweep")
	vcap := g.Cap()
	err := fanOut(workers, len(vs), gr, func(w, lo, hi int, wb *budget.Budget) error {
		var kbuf, fbuf []graph.ID
		var ms memberSet
		for pos := lo; pos < hi && viols[w] == nil; pos++ {
			u := vs[pos]
			kbuf = kbuf[:0]
			var err error
			kbuf, err = analysis.KnowClosureInto(g, u, kbuf, wb)
			if err != nil {
				return err
			}
			fbuf = fbuf[:0]
			fbuf, err = analysis.KnowFClosureInto(g, u, fbuf, wb)
			if err != nil {
				return err
			}
			ms.reset(vcap)
			for _, v := range fbuf {
				ms.add(v)
			}
			for _, v := range kbuf {
				if v != u && !ms.has(v) {
					viols[w] = &Violation{Lower: u, Upper: v}
					break
				}
			}
		}
		return nil
	})
	sp.Count("vertices", int64(len(vs))).Count("workers", int64(workers)).Count("visited", gr.Visited()).End()
	if err != nil {
		return false, nil, err
	}
	if err := b.Charge(gr.Visited()); err != nil {
		return false, nil, err
	}
	for _, v := range viols {
		if v != nil {
			return false, v, nil
		}
	}
	return true, nil, nil
}

// memberSet is a worker-local epoch-stamped vertex set.
type memberSet struct {
	stamp []uint32
	epoch uint32
}

func (m *memberSet) reset(size int) {
	if cap(m.stamp) < size {
		m.stamp = make([]uint32, size)
		m.epoch = 0
	} else {
		m.stamp = m.stamp[:size]
	}
	m.epoch++
	if m.epoch == 0 {
		full := m.stamp[:cap(m.stamp)]
		for i := range full {
			full[i] = 0
		}
		m.epoch = 1
	}
}

func (m *memberSet) add(v graph.ID) { m.stamp[v] = m.epoch }

func (m *memberSet) has(v graph.ID) bool { return m.stamp[v] == m.epoch }
