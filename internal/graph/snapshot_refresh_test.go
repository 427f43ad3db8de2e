package graph

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"takegrant/internal/rights"
)

// dumpSnapshot renders everything a reader can see through the Snapshot
// API, with labels resolved, so two snapshots that intern or lay out
// their rows differently compare equal exactly when they serve the same
// graph.
func dumpSnapshot(s *Snapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "rev %d cap %d edges %d\n", s.Revision(), s.Cap(), s.NumEdges())
	row := func(dst []ID, lbl []uint32) {
		for j, d := range dst {
			lp := s.Label(lbl[j])
			fmt.Fprintf(&b, " %d:%x/%x", d, uint64(lp.Explicit), uint64(lp.Implicit))
		}
	}
	for v := ID(0); int(v) < s.Cap(); v++ {
		fmt.Fprintf(&b, "%d live=%v subject=%v out", v, s.Live(v), s.IsSubject(v))
		row(s.Out(v))
		b.WriteString(" in")
		row(s.In(v))
		b.WriteByte('\n')
	}
	return b.String()
}

// sameSnapshot reports whether a and b serve the same graph; it is
// dumpSnapshot equality without the formatting.
func sameSnapshot(a, b *Snapshot) bool {
	if a.Revision() != b.Revision() || a.Cap() != b.Cap() || a.NumEdges() != b.NumEdges() {
		return false
	}
	sameRow := func(aDst []ID, aLbl []uint32, bDst []ID, bLbl []uint32) bool {
		if len(aDst) != len(bDst) {
			return false
		}
		for j := range aDst {
			if aDst[j] != bDst[j] || a.Label(aLbl[j]) != b.Label(bLbl[j]) {
				return false
			}
		}
		return true
	}
	for v := ID(0); int(v) < a.Cap(); v++ {
		if a.Live(v) != b.Live(v) || a.IsSubject(v) != b.IsSubject(v) {
			return false
		}
		aDst, aLbl := a.Out(v)
		bDst, bLbl := b.Out(v)
		if !sameRow(aDst, aLbl, bDst, bLbl) {
			return false
		}
		aDst, aLbl = a.In(v)
		bDst, bLbl = b.In(v)
		if !sameRow(aDst, aLbl, bDst, bLbl) {
			return false
		}
	}
	return true
}

// checkSnapshot compares the snapshot g serves with a from-scratch
// build, and g's edge counter with a walk of its adjacency maps.
func checkSnapshot(tb testing.TB, g *Graph, step string) {
	tb.Helper()
	if got, want := g.Snapshot(), buildSnapshot(g); !sameSnapshot(got, want) {
		tb.Fatalf("%s: served snapshot differs from a fresh build:\n got %s\nwant %s",
			step, dumpSnapshot(got), dumpSnapshot(want))
	}
	edges := 0
	for i := range g.vertices {
		edges += len(g.vertices[i].out)
	}
	if g.NumEdges() != edges {
		tb.Fatalf("%s: NumEdges() = %d, the maps hold %d", step, g.NumEdges(), edges)
	}
}

// snapshotOp applies one mutation decoded from four bytes and returns the
// graph to carry on with (a Clone replaces it). The op byte is weighted
// towards edge churn; deletions, ClearImplicit, RestoreRevision and Clone
// each come up about once in 32 ops. Endpoint bytes count back from the
// newest vertex, so edges reach the vertices the stream adds. Errors
// (self-edges, dead endpoints) leave the graph unchanged and are part of
// the stream.
func snapshotOp(g *Graph, op, a, b, c byte) *Graph {
	src, dst := ID(g.Cap()-1-int(a)%g.Cap()), ID(g.Cap()-1-int(b)%g.Cap())
	set := rights.Set(1 + c%15)
	switch op := op % 32; {
	case op < 4:
		name := fmt.Sprintf("v%d", g.Cap())
		if c%3 == 0 {
			g.MustObject(name)
		} else {
			g.MustSubject(name)
		}
	case op < 16:
		_ = g.AddExplicit(src, dst, set)
	case op < 21:
		_ = g.AddImplicit(src, dst, set)
	case op < 26:
		_ = g.RemoveExplicit(src, dst, set)
	case op < 29:
		_ = g.RemoveImplicit(src, dst, set)
	case op == 29:
		if g.NumVertices() > 2 {
			_ = g.DeleteVertex(src)
		}
	case op == 30:
		g.ClearImplicit()
	case c%2 == 0:
		g.RestoreRevision(g.Revision() + uint64(c))
	default:
		g = g.Clone()
	}
	return g
}

// snapshotWorld is n vertices, two subjects to every object, with a
// snapshot already taken, so that every later read refreshes.
func snapshotWorld(n int) *Graph {
	g := New(nil)
	for i := 0; i < n; i++ {
		if i%3 == 2 {
			g.MustObject(fmt.Sprintf("v%d", i))
		} else {
			g.MustSubject(fmt.Sprintf("v%d", i))
		}
	}
	g.Snapshot()
	return g
}

// TestSnapshotRefreshMatchesFresh: over seeded streams of every kind of
// mutation, the snapshot each read is served — refreshed from the rows
// the mutations dirtied, or rebuilt when they call for it — equals a
// from-scratch build on every vertex, and NumEdges tracks the maps.
func TestSnapshotRefreshMatchesFresh(t *testing.T) {
	var refreshes, builds uint64
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Most worlds are small; some start just short of a page or a
		// directory boundary, so vertex adds cross into a page or a
		// directory the refresh allocates.
		n, steps := 24+rng.Intn(40), 300
		switch {
		case seed%20 == 0:
			n, steps = pageSize*dirSize-4, 40
		case seed%10 == 0:
			n = pageSize - 4
		}
		g := snapshotWorld(n)
		for step := 0; step < steps; step++ {
			// One to three mutations per read, so some reads re-pack a
			// vertex several writes dirtied.
			for k := 1 + rng.Intn(3); k > 0; k-- {
				next := snapshotOp(g, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
				if next != g {
					_, r, b := g.SnapshotStats()
					refreshes, builds = refreshes+r, builds+b
					g = next
				}
			}
			checkSnapshot(t, g, fmt.Sprintf("seed %d step %d", seed, step))
		}
		_, r, b := g.SnapshotStats()
		refreshes, builds = refreshes+r, builds+b
	}
	// Most reads must have taken the refresh path, or the comparison
	// above checked the full builder against itself.
	if refreshes < 2*builds {
		t.Fatalf("%d refreshes against %d full builds: the streams mostly bypassed the refresh", refreshes, builds)
	}
}

// TestSnapshotOldReaderStable: snapshots held by readers keep serving
// their revision while the graph refreshes past them hundreds of times,
// appending rows into the arrays they share, and compacts. Run under
// -race, it also checks that no refresh writes memory an old reader reads.
func TestSnapshotOldReaderStable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := snapshotWorld(200)
	// Explicit adds and removes, half each, among 30 of the vertices: the
	// edge count levels off while superseded rows pile up, so the stream
	// compacts, and every rebuild it makes is a compaction.
	op := func() {
		a, b, c := byte(rng.Intn(30)), byte(rng.Intn(30)), byte(rng.Intn(256))
		if rng.Intn(2) == 0 {
			snapshotOp(g, 4, a, b, c)
		} else {
			snapshotOp(g, 21, a, b, c)
		}
	}
	for i := 0; i < 20; i++ {
		op()
		g.Snapshot()
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	hold := func(s *Snapshot) {
		want := dumpSnapshot(s)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if got := dumpSnapshot(s); got != want {
					t.Errorf("snapshot at revision %d changed under its reader", s.Revision())
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	_, refreshes0, builds0 := g.SnapshotStats()
	for step := 0; step < 600; step++ {
		if step%100 == 0 {
			hold(g.Snapshot())
		}
		op()
		g.Snapshot()
	}
	close(done)
	wg.Wait()
	checkSnapshot(t, g, "after the stream")
	_, refreshes, builds := g.SnapshotStats()
	if refreshes-refreshes0 < 300 || builds == builds0 {
		t.Fatalf("stream made %d refreshes and %d compactions; want hundreds and at least one",
			refreshes-refreshes0, builds-builds0)
	}
}

// FuzzSnapshotRefresh decodes bytes into a mutation stream, four bytes an
// op, and checks the served snapshot against a fresh build after every op
// whose last byte has its top bit clear (so set bits batch several ops
// into one refresh).
func FuzzSnapshotRefresh(f *testing.F) {
	f.Add([]byte{4, 0, 1, 2, 4, 1, 0, 3, 21, 0, 1, 0x82, 0, 0, 0, 0})
	f.Add([]byte{16, 3, 4, 1, 16, 4, 3, 1, 26, 3, 4, 1, 29, 3, 0, 0, 5, 1, 2, 0})
	f.Add([]byte{30, 0, 0, 0, 31, 0, 0, 1, 31, 0, 0, 2, 5, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := snapshotWorld(16)
		for i := 0; i+4 <= len(data) && i < 4*256; i += 4 {
			g = snapshotOp(g, data[i], data[i+1], data[i+2], data[i+3])
			if data[i+3]&0x80 == 0 {
				checkSnapshot(t, g, fmt.Sprintf("op %d", i/4))
			}
		}
		checkSnapshot(t, g, "end of stream")
	})
}
