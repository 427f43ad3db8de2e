package hierarchy_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"takegrant/internal/graph"
	"takegrant/internal/hierarchy"
	"takegrant/internal/rights"
	"takegrant/internal/simulate"
)

// militaryWorld generates the scenario package's 5-level military world
// and lists its subjects by level (from the off<level>_ name prefix) and
// its documents with the level of the subject that writes them.
type militaryWorld struct {
	g        *graph.Graph
	subjects [5][]graph.ID
	docs     []graph.ID
	docLevel []int
}

func newMilitaryWorld(tb testing.TB, vertices int, seed int64) *militaryWorld {
	tb.Helper()
	g, err := simulate.GenerateScenario(simulate.ScenarioMilitary, vertices, seed)
	if err != nil {
		tb.Fatal(err)
	}
	w := &militaryWorld{g: g}
	level := func(s graph.ID) int { return int(g.Name(s)[3] - '0') }
	for _, v := range g.Vertices() {
		switch {
		case g.IsSubject(v):
			w.subjects[level(v)] = append(w.subjects[level(v)], v)
		case strings.HasPrefix(g.Name(v), "doc"):
			for _, h := range g.In(v) {
				if h.Explicit.Has(rights.Write) {
					w.docs = append(w.docs, v)
					w.docLevel = append(w.docLevel, level(h.Other))
					break
				}
			}
		}
	}
	return w
}

func (w *militaryWorld) subject(rng *rand.Rand) graph.ID {
	l := w.subjects[rng.Intn(len(w.subjects))]
	return l[rng.Intn(len(l))]
}

// create adds an object its creator holds r,w on, as the create rule does.
func (w *militaryWorld) create(rng *rand.Rand, seq int) {
	o := w.g.MustObject(fmt.Sprintf("new%07d", seq))
	w.g.AddExplicit(w.subject(rng), o, rights.RW)
}

// readDown returns a subject one level above a random document's writer,
// with the document: granting it r moves information upward only.
func (w *militaryWorld) readDown(rng *rand.Rand) (graph.ID, graph.ID) {
	for {
		k := rng.Intn(len(w.docs))
		if l := w.docLevel[k]; l+1 < len(w.subjects) {
			up := w.subjects[l+1]
			return up[rng.Intn(len(up))], w.docs[k]
		}
	}
}

// TestEngineIncrementalEquivalenceManyLevels runs the incremental ≡
// from-scratch property on a world with well over 64 levels, so bitset
// rows span several words and merges renumber columns across word
// boundaries: creates, r/w grants (read-down and arbitrary), implicit
// flows and revocations, with a Rearm after each.
func TestEngineIncrementalEquivalenceManyLevels(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		w := newMilitaryWorld(t, 500, seed)
		g := w.g
		e := hierarchy.NewEngine(g, 0)
		if n := e.Structure().NumLevels(); n < 100 {
			t.Fatalf("seed %d: %d levels, want at least 100", seed, n)
		}
		rng := rand.New(rand.NewSource(seed))
		vs := g.Vertices()
		var granted [][2]graph.ID
		for step := 0; step < 150; step++ {
			switch op := rng.Intn(10); {
			case op < 3:
				w.create(rng, step)
			case op < 5:
				s, d := w.readDown(rng)
				g.AddExplicit(s, d, rights.R)
				granted = append(granted, [2]graph.ID{s, d})
			case op < 7:
				set := rights.R
				if rng.Intn(2) == 0 {
					set = rights.W
				}
				g.AddExplicit(w.subject(rng), vs[rng.Intn(len(vs))], set)
			case op < 9:
				a, b := vs[rng.Intn(len(vs))], vs[rng.Intn(len(vs))]
				if a != b {
					g.AddImplicit(a, b, rights.R)
				}
			default:
				if len(granted) > 0 {
					k := rng.Intn(len(granted))
					g.RemoveExplicit(granted[k][0], granted[k][1], rights.R)
					granted = slices.Delete(granted, k, k+1)
				}
			}
			got := e.Rearm(nil)
			if !got.EquivalentTo(hierarchy.AnalyzeRWReference(g)) {
				t.Fatalf("seed %d step %d: engine structure diverged from the oracle", seed, step)
			}
			if err := got.CheckPartialOrder(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
		st := e.Stats()
		t.Logf("seed %d: %d levels at the end; %d patches, %d merges, %d rebuilds",
			seed, e.Structure().NumLevels(), st.Patches, st.Merges, st.Rebuilds)
	}
}

// TestEngineRearmCreateAllocs pins the cost of one create on the 10^4
// military world: the Rearm that absorbs it (a singleton level merged
// into its creator's) must allocate well under an L×L matrix.
func TestEngineRearmCreateAllocs(t *testing.T) {
	w := newMilitaryWorld(t, 10_000, 1)
	e := hierarchy.NewEngine(w.g, 0)
	rng := rand.New(rand.NewSource(1))
	const creates = 10
	var before, after runtime.MemStats
	for i := 0; i < creates; i++ {
		w.create(rng, i)
		runtime.ReadMemStats(&before)
		e.Rearm(nil)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Fatalf("create %d: Rearm allocated %d bytes, want under 1 MiB", i, got)
		}
	}
	if st := e.Stats(); st.Rebuilds != 1 || st.Merges != creates {
		t.Fatalf("creates were not patched as merges: %+v", st)
	}
}

func benchmarkRearm(b *testing.B, op func(w *militaryWorld, rng *rand.Rand, i int)) {
	w := newMilitaryWorld(b, 10_000, 1)
	e := hierarchy.NewEngine(w.g, 0)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(w, rng, i)
		e.Rearm(nil)
	}
}

// BenchmarkEngineRearmCreate: a create and the merge that absorbs it.
func BenchmarkEngineRearmCreate(b *testing.B) {
	benchmarkRearm(b, func(w *militaryWorld, rng *rand.Rand, i int) { w.create(rng, i) })
}

// BenchmarkEngineRearmGrantRead: a read-down grant, an in-place
// transitive insert (or a no-op when already implied).
func BenchmarkEngineRearmGrantRead(b *testing.B) {
	benchmarkRearm(b, func(w *militaryWorld, rng *rand.Rand, _ int) {
		s, d := w.readDown(rng)
		w.g.AddExplicit(s, d, rights.R)
	})
}

// BenchmarkEngineRearmRevoke: severing a world read right, which forces
// a full re-derivation. The right is given back, untimed, before the
// next iteration.
func BenchmarkEngineRearmRevoke(b *testing.B) {
	var last [2]graph.ID
	benchmarkRearm(b, func(w *militaryWorld, rng *rand.Rand, i int) {
		if i > 0 {
			b.StopTimer()
			w.g.AddExplicit(last[0], last[1], rights.R)
			b.StartTimer()
		}
		for {
			d := w.docs[rng.Intn(len(w.docs))]
			for _, h := range w.g.In(d) {
				if w.g.IsSubject(h.Other) && h.Explicit == rights.R {
					last = [2]graph.ID{h.Other, d}
					w.g.RemoveExplicit(h.Other, d, rights.R)
					return
				}
			}
		}
	})
}
