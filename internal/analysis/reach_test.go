package analysis

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"takegrant/internal/graph"
	"takegrant/internal/rights"
)

// attachReach wires a ReachIndex to g's change stream the way the derived
// registry does in the service: patch or invalidate, synchronously under
// the mutation path.
func attachReach(g *graph.Graph) *ReachIndex {
	ix := NewReachIndex(g)
	g.SetRecorder(func(c graph.Change) {
		if !ix.Patch(c) {
			ix.Invalidate()
		}
	})
	return ix
}

// assertReachMatchesOracle compares every (x, y) verdict of the closure
// index against the from-scratch decision procedures.
func assertReachMatchesOracle(t *testing.T, g *graph.Graph, ix *ReachIndex, ids []graph.ID, step string) {
	t.Helper()
	alphas := []rights.Right{rights.Read, rights.Take}
	for _, x := range ids {
		for _, y := range ids {
			for _, a := range alphas {
				got, _, err := ix.CanShare(a, x, y, nil, nil)
				if err != nil {
					t.Fatalf("%s: reach CanShare(%v,%d,%d): %v", step, a, x, y, err)
				}
				if want := CanShare(g, a, x, y); got != want {
					t.Fatalf("%s: CanShare(%v,%d,%d) = %v via closure, oracle says %v",
						step, a, x, y, got, want)
				}
			}
			got, _, err := ix.CanKnow(x, y, nil, nil)
			if err != nil {
				t.Fatalf("%s: reach CanKnow(%d,%d): %v", step, x, y, err)
			}
			if want := CanKnow(g, x, y); got != want {
				t.Fatalf("%s: CanKnow(%d,%d) = %v via closure, oracle says %v",
					step, x, y, got, want)
			}
			got, _, err = ix.CanKnowF(x, y, nil, nil)
			if err != nil {
				t.Fatalf("%s: reach CanKnowF(%d,%d): %v", step, x, y, err)
			}
			if want := CanKnowF(g, x, y); got != want {
				t.Fatalf("%s: CanKnowF(%d,%d) = %v via closure, oracle says %v",
					step, x, y, got, want)
			}
		}
	}
}

// TestReachIndexMatchesOracleUnderMutation drives randomized mutation
// sequences — explicit and implicit label adds, removals, vertex additions
// and deletions — and after every step compares all three closure-index
// predicates against the from-scratch decision procedures on every vertex
// pair. Warm rows are deliberately populated before each step so monotone
// mutations exercise the extension and drop paths and non-monotone ones
// the invalidate-and-rebuild path, not just cold builds.
func TestReachIndexMatchesOracleUnderMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		g := graph.New(nil)
		ix := attachReach(g)
		var ids []graph.ID
		addVertex := func() {
			name := fmt.Sprintf("v%d", len(ids))
			var v graph.ID
			var err error
			if rng.Intn(3) < 2 {
				v, err = g.AddSubject(name)
			} else {
				v, err = g.AddObject(name)
			}
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, v)
		}
		for i := 0; i < 4+rng.Intn(5); i++ {
			addVertex()
		}
		assertReachMatchesOracle(t, g, ix, ids, fmt.Sprintf("trial %d: initial", trial))

		steps := 6 + rng.Intn(8)
		for s := 0; s < steps; s++ {
			pick := func() graph.ID { return ids[rng.Intn(len(ids))] }
			switch op := rng.Intn(12); {
			case op < 5: // add explicit rights, biased toward the tg/rw alphabets
				a, b := pick(), pick()
				if a == b || !g.Valid(a) || !g.Valid(b) {
					continue
				}
				set := rights.Set(1 + rng.Intn(15))
				_ = g.AddExplicit(a, b, set)
			case op < 7: // implicit rights touch only the de facto closure
				a, b := pick(), pick()
				if a == b || !g.Valid(a) || !g.Valid(b) {
					continue
				}
				_ = g.AddImplicit(a, b, rights.Set(1+rng.Intn(3)))
			case op < 9: // sever rights: the index must invalidate, not patch
				a, b := pick(), pick()
				if a == b || !g.Valid(a) || !g.Valid(b) {
					continue
				}
				_ = g.RemoveExplicit(a, b, rights.Set(1+rng.Intn(15)))
			case op < 10:
				addVertex()
			case op < 11: // destructive: vertex deletion
				v := pick()
				if g.Valid(v) && g.NumVertices() > 2 {
					_ = g.DeleteVertex(v)
				}
			default: // destructive: implicit wipe
				g.ClearImplicit()
			}
			assertReachMatchesOracle(t, g, ix, ids, fmt.Sprintf("trial %d: step %d", trial, s))
		}
	}
}

// TestReachIndexWarmHit pins the fast-path contract: the first query at a
// generation builds rows (a miss), repeats are warm bit-tests, an r/w add
// extends the rows in place and stays warm, a t/g add (which can merge
// islands) re-misses once, and an irrelevant mutation (a right outside
// every chain alphabet) keeps the rows warm.
func TestReachIndexWarmHit(t *testing.T) {
	u := rights.NewUniverse()
	e, err := u.Declare("e")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New(u)
	ix := attachReach(g)
	a := g.MustSubject("a")
	b := g.MustSubject("b")
	o := g.MustObject("o")
	if err := g.AddExplicit(a, b, rights.TG); err != nil {
		t.Fatal(err)
	}
	if err := g.AddExplicit(b, o, rights.Of(rights.Read)); err != nil {
		t.Fatal(err)
	}

	ok, warm, err := ix.CanShare(rights.Read, a, o, nil, nil)
	if err != nil || !ok {
		t.Fatalf("CanShare(r,a,o) = %v, %v; want true (b holds r, a-b one island)", ok, err)
	}
	if warm {
		t.Fatal("first query reported warm; rows could not have existed")
	}
	ok, warm, err = ix.CanShare(rights.Read, a, o, nil, nil)
	if err != nil || !ok || !warm {
		t.Fatalf("second query = (%v, warm=%v, %v); want warm true", ok, warm, err)
	}

	// An uninterpreted right touches no chain alphabet: rows stay warm.
	if err := g.AddExplicit(a, o, rights.Of(e)); err != nil {
		t.Fatal(err)
	}
	if _, warm, _ = ix.CanShare(rights.Read, a, o, nil, nil); !warm {
		t.Fatal("add of uninterpreted right dropped the share rows")
	}
	if err := g.RemoveExplicit(a, o, rights.Of(e)); err != nil {
		t.Fatal(err)
	}
	if _, warm, _ = ix.CanShare(rights.Read, a, o, nil, nil); !warm {
		t.Fatal("removal of uninterpreted right dropped the share rows")
	}

	// An r/w add is extended into the live rows: the verdicts it changes
	// are served warm.
	if ok, _, _ = ix.CanKnow(a, o, nil, nil); !ok {
		t.Fatal("CanKnow(a,o) = false; a-b one island and b reads o")
	}
	ix.CanKnowF(b, o, nil, nil)
	d := g.MustObject("d")
	if _, warm, _ = ix.CanKnow(a, d, nil, nil); !warm {
		t.Fatal("vertex add dropped the know rows")
	}
	if err := g.AddExplicit(b, d, rights.Of(rights.Read)); err != nil {
		t.Fatal(err)
	}
	ok, warm, err = ix.CanKnow(a, d, nil, nil)
	if err != nil || !ok || !warm {
		t.Fatalf("CanKnow(a,d) after b reads d = (%v, warm=%v, %v); want true, warm", ok, warm, err)
	}
	ok, warm, err = ix.CanKnowF(b, d, nil, nil)
	if err != nil || !ok {
		t.Fatalf("CanKnowF(b,d) = (%v, %v); want true", ok, err)
	}
	if err := g.AddExplicit(a, d, rights.Of(rights.Write)); err != nil {
		t.Fatal(err)
	}
	if ok, warm, _ = ix.CanKnowF(b, d, nil, nil); !ok || !warm {
		t.Fatalf("CanKnowF(b,d) after a writes d = (%v, warm=%v); want true, warm", ok, warm)
	}
	if _, warm, _ = ix.CanShare(rights.Read, a, o, nil, nil); !warm {
		t.Fatal("r/w add dropped the share rows")
	}

	// A tg add is in the share alphabet: one miss, then warm again.
	c := g.MustSubject("c")
	if err := g.AddExplicit(b, c, rights.TG); err != nil {
		t.Fatal(err)
	}
	if _, warm, _ = ix.CanShare(rights.Read, a, o, nil, nil); warm {
		t.Fatal("tg add did not drop the share rows")
	}
	if _, warm, _ = ix.CanShare(rights.Read, a, o, nil, nil); !warm {
		t.Fatal("rebuilt share row not warm on repeat")
	}

	// Destructive fallback: severing the tg edge invalidates everything.
	if err := g.RemoveExplicit(a, b, rights.Of(rights.Take)); err != nil {
		t.Fatal(err)
	}
	if _, warm, _ = ix.CanShare(rights.Read, a, o, nil, nil); warm {
		t.Fatal("tg sever did not invalidate the closure rows")
	}
	hits, misses, rebuilds := ix.IndexStats()
	if hits == 0 || misses == 0 || rebuilds == 0 {
		t.Fatalf("stats did not move: hits=%d misses=%d rebuilds=%d", hits, misses, rebuilds)
	}
}

// TestReachIndexDestructiveFallbackConcurrent is the destructive-mutation
// fallback property under -race: a writer interleaves monotone growth
// with severs, deletions and implicit wipes under the write half of an
// RWMutex (the service's lock discipline) while concurrent readers query
// the closure index under read locks and compare every verdict against
// the oracle computed under the same lock. After each destructive change
// the index must invalidate and the next verdicts must still be exact.
func TestReachIndexDestructiveFallbackConcurrent(t *testing.T) {
	g := graph.New(nil)
	ix := attachReach(g)
	var ids []graph.ID
	for i := 0; i < 8; i++ {
		var v graph.ID
		var err error
		if i%3 == 2 {
			v, err = g.AddObject(fmt.Sprintf("o%d", i))
		} else {
			v, err = g.AddSubject(fmt.Sprintf("s%d", i))
		}
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v)
	}

	var mu sync.RWMutex
	done := make(chan struct{})
	var wg sync.WaitGroup
	const readers = 4
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				x, y := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
				mu.RLock()
				if !g.Valid(x) || !g.Valid(y) {
					mu.RUnlock()
					continue
				}
				gotS, _, errS := ix.CanShare(rights.Read, x, y, nil, nil)
				wantS := CanShare(g, rights.Read, x, y)
				gotK, _, errK := ix.CanKnow(x, y, nil, nil)
				wantK := CanKnow(g, x, y)
				gotF, _, errF := ix.CanKnowF(x, y, nil, nil)
				wantF := CanKnowF(g, x, y)
				mu.RUnlock()
				if errS != nil || errK != nil || errF != nil {
					errs <- fmt.Errorf("query error: %v %v %v", errS, errK, errF)
					return
				}
				if gotS != wantS || gotK != wantK || gotF != wantF {
					errs <- fmt.Errorf("verdict mismatch for (%d,%d): share %v/%v know %v/%v knowf %v/%v",
						x, y, gotS, wantS, gotK, wantK, gotF, wantF)
					return
				}
			}
		}(int64(100 + r))
	}

	rng := rand.New(rand.NewSource(7))
	for s := 0; s < 400; s++ {
		select {
		case err := <-errs:
			close(done)
			wg.Wait()
			t.Fatal(err)
		default:
		}
		x, y := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		mu.Lock()
		switch op := rng.Intn(10); {
		case op < 5:
			if x != y && g.Valid(x) && g.Valid(y) {
				_ = g.AddExplicit(x, y, rights.Set(1+rng.Intn(15)))
			}
		case op < 7:
			if x != y && g.Valid(x) && g.Valid(y) {
				_ = g.AddImplicit(x, y, rights.Set(1+rng.Intn(3)))
			}
		case op < 9: // sever: the destructive-fallback path under test
			if x != y && g.Valid(x) && g.Valid(y) {
				_ = g.RemoveExplicit(x, y, rights.Set(1+rng.Intn(15)))
			}
		default:
			g.ClearImplicit()
		}
		mu.Unlock()
	}
	close(done)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}
