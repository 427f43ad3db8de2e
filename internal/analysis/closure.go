package analysis

import (
	"sync"

	"takegrant/internal/budget"
	"takegrant/internal/graph"
	"takegrant/internal/relang"
	"takegrant/internal/rights"
)

// closureScratch is the pooled working set of one KnowClosureInto call:
// an epoch-stamped membership filter over vertex IDs (marking is O(1) and
// starting a closure is O(1) after the first use at a given size) plus
// reusable candidate buffers for the u1/un subject sets of Theorem 3.2.
type closureScratch struct {
	stamp []uint32
	epoch uint32
	u1s   []graph.ID
	uns   []graph.ID
	one   [1]graph.ID
}

var closurePool = sync.Pool{New: func() any { return new(closureScratch) }}

func (cs *closureScratch) reset(size int) {
	if cap(cs.stamp) < size {
		cs.stamp = make([]uint32, size)
		cs.epoch = 0
	} else {
		cs.stamp = cs.stamp[:size]
	}
	cs.epoch++
	if cs.epoch == 0 { // wrapped: stale stamps could alias the new epoch
		full := cs.stamp[:cap(cs.stamp)]
		for i := range full {
			full[i] = 0
		}
		cs.epoch = 1
	}
	cs.u1s = cs.u1s[:0]
	cs.uns = cs.uns[:0]
}

// mark records v as a closure member and reports whether it was new.
func (cs *closureScratch) mark(v graph.ID) bool {
	if cs.stamp[v] == cs.epoch {
		return false
	}
	cs.stamp[v] = cs.epoch
	return true
}

// KnowClosureInto appends to dst every vertex v with can•know(u, v, G) —
// u itself first, then the rest in search discovery order, each exactly
// once — and returns the extended slice. It is the allocation-free core
// behind KnowClosure: the three product searches of the bulk Theorem 3.2
// evaluation (reversed rw-initial spans to find the u1 candidates, the
// B ∪ C link chain, forward rw-terminal spans) stream their accepts
// through pooled epoch-stamped scratch, so a caller reusing dst across
// subjects performs no steady-state allocation. The budget b is charged
// one unit per product state by the underlying searches; on exhaustion
// the partial dst extension must not be read as a closure.
func KnowClosureInto(g *graph.Graph, u graph.ID, dst []graph.ID, b *budget.Budget) ([]graph.ID, error) {
	if !g.Valid(u) {
		return dst, nil
	}
	cs := closurePool.Get().(*closureScratch)
	cs.reset(g.Cap())
	cs.mark(u)
	dst = append(dst, u)

	// (a) u1 candidates: subjects rw-initially spanning to u, plus u when
	// u is itself a subject.
	if g.IsSubject(u) {
		cs.u1s = append(cs.u1s, u)
	}
	cs.one[0] = u
	opts := relang.Options{View: relang.ViewExplicit, Budget: b}
	_, _, err := relang.SearchVisit(g, rwInitialSpanRevNFA, cs.one[:], opts, func(v graph.ID) {
		if v != u && g.IsSubject(v) {
			cs.u1s = append(cs.u1s, v)
		}
	})
	if err != nil {
		closurePool.Put(cs)
		return dst, err
	}
	if len(cs.u1s) == 0 {
		closurePool.Put(cs)
		return dst, nil
	}

	// (c) link chain: every subject reachable from the u1 set by words in
	// B ∪ C is a un candidate and itself a closure member.
	_, _, err = relang.SearchVisit(g, linkChainNFA, cs.u1s, opts, func(v graph.ID) {
		if g.IsSubject(v) {
			cs.uns = append(cs.uns, v)
			if cs.mark(v) {
				dst = append(dst, v)
			}
		}
	})
	if err != nil {
		closurePool.Put(cs)
		return dst, err
	}

	// (b) forward rw-terminal spans extend the reached subjects to every
	// vertex whose information they can read.
	if len(cs.uns) > 0 {
		_, _, err = relang.SearchVisit(g, rwTerminalNFA, cs.uns, opts, func(v graph.ID) {
			if cs.mark(v) {
				dst = append(dst, v)
			}
		})
	}
	closurePool.Put(cs)
	if err != nil {
		return dst, err
	}
	return dst, nil
}

// KnowFClosureInto appends to dst every vertex y with can•know•f(x, y, G)
// — x itself first, then the rest in discovery order, each exactly once —
// and returns the extended slice. It is the bulk form of CanKnowF: one
// admissible-path search over the combined view plus the definition's
// implicit-edge base cases (an implicit read x→y or implicit write y→x
// witnesses the flow regardless of vertex kinds). Pooled scratch, no
// steady-state allocation when dst capacity suffices. On a budget error
// the partial extension must not be read as a closure.
func KnowFClosureInto(g *graph.Graph, x graph.ID, dst []graph.ID, b *budget.Budget) ([]graph.ID, error) {
	if !g.Valid(x) {
		return dst, nil
	}
	cs := closurePool.Get().(*closureScratch)
	cs.reset(g.Cap())
	cs.mark(x)
	dst = append(dst, x)
	knowFBaseCases(g.Snapshot(), x, func(y graph.ID) {
		if cs.mark(y) {
			dst = append(dst, y)
		}
	})
	cs.one[0] = x
	_, _, err := relang.SearchVisit(g, admissibleNFA, cs.one[:], relang.Options{View: relang.ViewCombined, Budget: b}, func(v graph.ID) {
		if cs.mark(v) {
			dst = append(dst, v)
		}
	})
	closurePool.Put(cs)
	if err != nil {
		return dst, err
	}
	return dst, nil
}

// knowFBaseCases streams the vertices can•know•f reaches from x by the
// definition's base case alone: an implicit read x→y or an implicit write
// y→x witnesses the flow regardless of vertex kinds.
func knowFBaseCases(snap *graph.Snapshot, x graph.ID, add func(graph.ID)) {
	outDst, outLbl := snap.Out(x)
	for j, y := range outDst {
		if snap.Label(outLbl[j]).Implicit.Has(rights.Read) {
			add(y)
		}
	}
	inDst, inLbl := snap.In(x)
	for j, y := range inDst {
		if snap.Label(inLbl[j]).Implicit.Has(rights.Write) {
			add(y)
		}
	}
}
