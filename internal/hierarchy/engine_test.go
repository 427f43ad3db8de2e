package hierarchy

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"takegrant/internal/budget"
	"takegrant/internal/graph"
	"takegrant/internal/rights"
)

// buildRandomGraph builds a small random protection graph with nv
// vertices and up to ne labelled edges.
func buildRandomGraph(rng *rand.Rand, nv, ne int) *graph.Graph {
	g := graph.New(nil)
	for i := 0; i < nv; i++ {
		name := fmt.Sprintf("v%d", i)
		if rng.Intn(2) == 0 {
			g.MustSubject(name)
		} else {
			g.MustObject(name)
		}
	}
	vs := g.Vertices()
	for i := 0; i < ne; i++ {
		a, b := vs[rng.Intn(len(vs))], vs[rng.Intn(len(vs))]
		if a == b {
			continue
		}
		set := rights.Set(1 + rng.Intn(15))
		if rng.Intn(4) == 0 {
			g.AddImplicit(a, b, set.Intersect(rights.RW))
		} else {
			g.AddExplicit(a, b, set)
		}
	}
	return g
}

// mutate applies one random mutation to g; monotone with probability ~5/6,
// destructive otherwise.
func mutate(g *graph.Graph, rng *rand.Rand, step int) {
	vs := g.Vertices()
	switch rng.Intn(12) {
	case 0: // create
		name := fmt.Sprintf("n%d", step)
		if rng.Intn(2) == 0 {
			g.MustSubject(name)
		} else {
			g.MustObject(name)
		}
	case 1, 2, 3, 4, 5, 6: // monotone explicit add (take/grant/create-like)
		if len(vs) < 2 {
			return
		}
		a, b := vs[rng.Intn(len(vs))], vs[rng.Intn(len(vs))]
		if a != b {
			g.AddExplicit(a, b, rights.Set(1+rng.Intn(15)))
		}
	case 7, 8: // monotone implicit add (post/spy/find/pass-like)
		if len(vs) < 2 {
			return
		}
		a, b := vs[rng.Intn(len(vs))], vs[rng.Intn(len(vs))]
		if a != b {
			if rng.Intn(2) == 0 {
				g.AddImplicit(a, b, rights.R)
			} else {
				g.AddImplicit(a, b, rights.W)
			}
		}
	case 9: // rw-irrelevant revocation (t/g only): must be a fast no-op
		if len(vs) < 2 {
			return
		}
		a, b := vs[rng.Intn(len(vs))], vs[rng.Intn(len(vs))]
		if a != b {
			g.RemoveExplicit(a, b, rights.TG)
		}
	case 10: // destructive: sever an rw right
		if len(vs) < 2 {
			return
		}
		a, b := vs[rng.Intn(len(vs))], vs[rng.Intn(len(vs))]
		if a != b {
			g.RemoveExplicit(a, b, rights.RW)
		}
	case 11: // destructive: delete a vertex
		if len(vs) > 2 {
			g.DeleteVertex(vs[rng.Intn(len(vs))])
		}
	}
}

// TestEngineIncrementalEquivalence is the tentpole property test: after
// every mutation in a random monotone + destructive sequence, the
// engine's incrementally maintained structure must be equivalent (same
// partition, same order, up to level renumbering) to a from-scratch
// derivation by the retained map-based oracle.
func TestEngineIncrementalEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := buildRandomGraph(rng, 4+rng.Intn(8), 8+rng.Intn(16))
		e := NewEngine(g, 0)
		if !e.Structure().EquivalentTo(AnalyzeRWReference(g)) {
			t.Logf("seed %d: initial derivation differs", seed)
			return false
		}
		for step := 0; step < 40; step++ {
			mutate(g, rng, step)
			got := e.Rearm(nil)
			want := AnalyzeRWReference(g)
			if !got.EquivalentTo(want) {
				t.Logf("seed %d step %d: engine structure diverged\n%s", seed, step, g.String())
				return false
			}
			if err := got.CheckPartialOrder(); err != nil {
				t.Logf("seed %d step %d: %v", seed, step, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestEngineSecureMatchesOracle: the engine's cached Secure verdict must
// match the stock Secure across a mutation stream.
func TestEngineSecureMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := buildRandomGraph(rng, 4+rng.Intn(6), 6+rng.Intn(10))
		e := NewEngine(g, 0)
		for step := 0; step < 12; step++ {
			mutate(g, rng, step)
			e.Rearm(nil)
			gotOK, _, err := e.Secure(nil, nil)
			if err != nil {
				t.Logf("seed %d: unexpected error %v", seed, err)
				return false
			}
			wantOK, _ := Secure(g)
			if gotOK != wantOK {
				t.Logf("seed %d step %d: engine secure=%v oracle=%v\n%s", seed, step, gotOK, wantOK, g.String())
				return false
			}
			// Cached path must agree with itself.
			again, _, _ := e.Secure(nil, nil)
			if again != gotOK {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestParallelDerivationDeterministic: the flat-array derivation must
// produce identical structures for any worker count, and match the
// map-based oracle.
func TestParallelDerivationDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := buildRandomGraph(rng, 6+rng.Intn(10), 12+rng.Intn(20))
		ref := AnalyzeRWReference(g)
		for _, workers := range []int{1, 2, 4, 7} {
			s, err := AnalyzeRWObs(g, Options{Workers: workers})
			if err != nil {
				return false
			}
			if !s.EquivalentTo(ref) {
				t.Logf("seed %d workers %d: structure differs from oracle", seed, workers)
				return false
			}
		}
		// rwtg path too
		tg1, err1 := AnalyzeRWTGObs(g, Options{Workers: 1})
		tg4, err4 := AnalyzeRWTGObs(g, Options{Workers: 4})
		if err1 != nil || err4 != nil {
			return false
		}
		if !tg1.EquivalentTo(tg4) {
			t.Logf("seed %d: rwtg differs across worker counts", seed)
			return false
		}
		// secure verdicts across worker counts
		ok1, _, e1 := SecureObs(g, Options{Workers: 1})
		ok4, _, e4 := SecureObs(g, Options{Workers: 4})
		if e1 != nil || e4 != nil || ok1 != ok4 {
			return false
		}
		s1, v1, se1 := StrictSecureObs(g, Options{Workers: 1})
		s4, v4, se4 := StrictSecureObs(g, Options{Workers: 4})
		if se1 != nil || se4 != nil || s1 != s4 {
			return false
		}
		if v1 != nil && v4 != nil && *v1 != *v4 {
			t.Logf("seed %d: strict witnesses differ: %v vs %v", seed, v1, v4)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSecureObsBudget: exhaustion must surface as budget.ErrExhausted,
// never as a verdict, from every threaded entry point.
func TestSecureObsBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := buildRandomGraph(rng, 16, 60)
	tiny := func() *budget.Budget { return budget.New(context.Background(), 3, 0) }
	if _, _, err := SecureObs(g, Options{Budget: tiny()}); !errors.Is(err, budget.ErrExhausted) {
		t.Fatalf("SecureObs: want ErrExhausted, got %v", err)
	}
	if _, _, err := StrictSecureObs(g, Options{Budget: tiny()}); !errors.Is(err, budget.ErrExhausted) {
		t.Fatalf("StrictSecureObs: want ErrExhausted, got %v", err)
	}
	if _, err := AnalyzeRWTGObs(g, Options{Budget: tiny()}); !errors.Is(err, budget.ErrExhausted) {
		t.Fatalf("AnalyzeRWTGObs: want ErrExhausted, got %v", err)
	}
	if _, err := AnalyzeRWObs(g, Options{Budget: tiny()}); !errors.Is(err, budget.ErrExhausted) {
		t.Fatalf("AnalyzeRWObs: want ErrExhausted, got %v", err)
	}
	// Canceled context trips too, including across workers.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := SecureObs(g, Options{Workers: 4, Budget: budget.New(ctx, 0, 0)}); !errors.Is(err, budget.ErrExhausted) {
		t.Fatalf("SecureObs canceled ctx: want ErrExhausted, got %v", err)
	}
}

// TestEngineStatsCounters: monotone adds patch, rw-irrelevant revocations
// are no-ops, destructive mutations rebuild.
func TestEngineStatsCounters(t *testing.T) {
	g := graph.New(nil)
	a := g.MustSubject("a")
	b := g.MustSubject("b")
	c := g.MustObject("c")
	e := NewEngine(g, 2)
	if got := e.Stats().Rebuilds; got != 1 {
		t.Fatalf("initial rebuilds = %d, want 1", got)
	}
	// Monotone add: a reads c.
	g.AddExplicit(a, c, rights.R)
	e.Rearm(nil)
	st := e.Stats()
	if st.Patches != 1 || st.Rebuilds != 1 {
		t.Fatalf("after monotone add: %+v", st)
	}
	// t/g revocation never touches rw structure: no dirty entry at all.
	g.AddExplicit(a, b, rights.TG)
	e.Rearm(nil)
	g.RemoveExplicit(a, b, rights.G)
	if e.Dirty() != 0 {
		t.Fatalf("t/g revocation queued dirty work")
	}
	// Destructive: severing an rw right forces a rebuild.
	g.RemoveExplicit(a, c, rights.R)
	if e.Dirty() != 1 {
		t.Fatalf("rw sever should mark wholesale")
	}
	e.Rearm(nil)
	st = e.Stats()
	if st.Rebuilds != 2 || st.Invalidations != 1 {
		t.Fatalf("after sever: %+v", st)
	}
	if !e.Structure().EquivalentTo(AnalyzeRWReference(g)) {
		t.Fatal("structure diverged")
	}
}

// TestEquivalentToDetectsDifferences guards the checker itself.
func TestEquivalentToDetectsDifferences(t *testing.T) {
	g := graph.New(nil)
	a := g.MustSubject("a")
	b := g.MustSubject("b")
	g.AddExplicit(a, b, rights.R)
	s1 := AnalyzeRW(g)
	g2 := graph.New(nil)
	a2 := g2.MustSubject("a")
	b2 := g2.MustSubject("b")
	g2.AddExplicit(a2, b2, rights.R)
	g2.AddExplicit(b2, a2, rights.R) // merges the two levels
	s2 := AnalyzeRW(g2)
	if s1.EquivalentTo(s2) {
		t.Fatal("structures with different partitions reported equivalent")
	}
	if !s1.EquivalentTo(AnalyzeRWReference(g)) {
		t.Fatal("identical structures reported different")
	}
}

// TestEngineSecureBudget: the engine sweeps against its cached structure,
// so no derivation phase gets a chance to charge the budget first — the
// sweep itself must enforce the cap, including each worker's sub-stride
// tail (flushed as workers join). Regression test: small sweeps used to
// finish under any cap because the tail was never reported.
func TestEngineSecureBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := buildRandomGraph(rng, 16, 60)
	e := NewEngine(g, 2)
	_, _, err := e.Secure(nil, budget.New(context.Background(), 2, 0))
	if !errors.Is(err, budget.ErrExhausted) {
		t.Fatalf("want ErrExhausted, got %v", err)
	}
	// An adequate budget serves (and caches) the verdict.
	if _, _, err := e.Secure(nil, budget.New(context.Background(), 1_000_000, 0)); err != nil {
		t.Fatalf("roomy budget tripped: %v", err)
	}
}

// TestEngineReachTopological pins the premise of the one-pass reach
// computation: Kosaraju numbers the levels in topological order, so every
// level edge of the step digraph (stepTargets, the relation the
// derivation's CSR lists) goes from level i to a level j > i.
func TestEngineReachTopological(t *testing.T) {
	graphs := []*graph.Graph{}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		graphs = append(graphs, buildRandomGraph(rng, 20+rng.Intn(300), 40+rng.Intn(600)))
	}
	c, err := Military(4, []string{"A", "B", "C"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	graphs = append(graphs, c.G)
	for gi, g := range graphs {
		s := AnalyzeRW(g)
		for _, u := range g.Vertices() {
			for _, v := range stepTargets(g, u) {
				if i, j := s.LevelOf(u), s.LevelOf(v); j < i {
					t.Fatalf("graph %d: step %d → %d goes from level %d back to level %d", gi, u, v, i, j)
				}
			}
		}
	}
}

// FuzzEngineRearm decodes bytes into a stream of vertex creations,
// explicit and implicit adds and removals, re-arming the engine after
// each op whose high bit is clear (so changes also arrive in batches), and
// checks every re-armed structure against the map-based oracle and
// Proposition 4.4. Seed corpus: testdata/fuzz/FuzzEngineRearm.
func FuzzEngineRearm(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4*160 {
			data = data[:4*160]
		}
		g := graph.New(nil)
		e := NewEngine(g, 1)
		for op := 0; op+4 <= len(data); op += 4 {
			kind, set := int(data[op]&0x7f)%6, rights.Set(data[op+3]&15)
			vs := g.Vertices()
			if kind > 1 && len(vs) < 2 {
				continue
			}
			switch kind {
			case 0:
				g.MustSubject(fmt.Sprintf("s%d", op))
			case 1:
				g.MustObject(fmt.Sprintf("o%d", op))
			default:
				a, b := vs[int(data[op+1])%len(vs)], vs[int(data[op+2])%len(vs)]
				switch kind {
				case 2:
					g.AddExplicit(a, b, set)
				case 3:
					g.AddImplicit(a, b, set.Intersect(rights.RW))
				case 4:
					g.RemoveExplicit(a, b, set)
				case 5:
					g.RemoveImplicit(a, b, set.Intersect(rights.RW))
				}
			}
			if data[op]&0x80 != 0 {
				continue
			}
			s := e.Rearm(nil)
			if !s.EquivalentTo(AnalyzeRWReference(g)) {
				t.Fatalf("op %d: engine structure diverged\n%s", op/4, g.String())
			}
			if err := s.CheckPartialOrder(); err != nil {
				t.Fatalf("op %d: %v", op/4, err)
			}
		}
	})
}
