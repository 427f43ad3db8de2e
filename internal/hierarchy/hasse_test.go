package hierarchy

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func TestHasseLinear(t *testing.T) {
	c, err := Linear(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := AnalyzeRW(c.G)
	out := s.Hasse()
	// One maximal level, a chain of two children.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("hasse lines = %d:\n%s", len(lines), out)
	}
	if strings.HasPrefix(lines[0], " ") {
		t.Errorf("top level indented:\n%s", out)
	}
	if !strings.HasPrefix(lines[1], "  ") || !strings.HasPrefix(lines[2], "    ") {
		t.Errorf("chain not indented:\n%s", out)
	}
	if !strings.Contains(out, "L3_s1") {
		t.Errorf("missing member names:\n%s", out)
	}
}

func TestHasseLattice(t *testing.T) {
	c, err := Military(2, []string{"A", "B"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := AnalyzeRW(c.G)
	out := s.Hasse()
	// Two maximal levels (A2, B2), shared bottom U printed once then
	// referenced.
	if !strings.Contains(out, "(see above)") {
		t.Errorf("shared sub-level not referenced:\n%s", out)
	}
	if len(s.Maximal()) != 2 {
		t.Errorf("maximal = %v", s.Maximal())
	}
	if len(s.Minimal()) != 1 {
		t.Errorf("minimal = %v", s.Minimal())
	}
}

func TestLevelNames(t *testing.T) {
	c, _ := Linear(2, 2)
	s := AnalyzeRW(c.G)
	top := s.LevelOf(c.Members["L2"][0])
	names := s.LevelNames(top)
	if len(names) != 3 { // two subjects + bulletin
		t.Errorf("names = %v", names)
	}
	if s.LevelNames(-1) != nil || s.LevelNames(99) != nil {
		t.Error("out-of-range names")
	}
}

func TestVertexLevelName(t *testing.T) {
	c, _ := Linear(2, 1)
	s := AnalyzeRW(c.G)
	got := s.VertexLevelName(c.Members["L1"][0])
	if !strings.Contains(got, "L1_s1@L") {
		t.Errorf("= %q", got)
	}
	if s.VertexLevelName(-5) != "#-5" {
		t.Errorf("invalid id = %q", s.VertexLevelName(-5))
	}
}

// hasseReference is the original O(L³) covering-relation loop over
// HigherLevel, kept as the oracle for the bitset Hasse, Minimal and
// Maximal.
func hasseReference(s *Structure) (covers [][]int, minimal, maximal []int) {
	n := s.NumLevels()
	covers = make([][]int, n)
	isMax := make([]bool, n)
	isMin := make([]bool, n)
	for i := range isMax {
		isMax[i], isMin[i] = true, true
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if !s.HigherLevel(i, j) {
				continue
			}
			isMax[j], isMin[i] = false, false
			direct := true
			for k := 0; k < n; k++ {
				if k != i && k != j && s.HigherLevel(i, k) && s.HigherLevel(k, j) {
					direct = false
					break
				}
			}
			if direct {
				covers[i] = append(covers[i], j)
			}
		}
	}
	for i := 0; i < n; i++ {
		if isMin[i] {
			minimal = append(minimal, i)
		}
		if isMax[i] {
			maximal = append(maximal, i)
		}
	}
	return covers, minimal, maximal
}

// renderHasse prints covers the way Hasse does, from the given roots.
func renderHasse(s *Structure, covers [][]int, roots []int) string {
	var b strings.Builder
	printed := make([]bool, s.NumLevels())
	var emit func(level, depth int)
	emit = func(level, depth int) {
		indent := strings.Repeat("  ", depth)
		if printed[level] {
			fmt.Fprintf(&b, "%s└ %s (see above)\n", indent, s.levelLabel(level))
			return
		}
		printed[level] = true
		fmt.Fprintf(&b, "%s%s\n", indent, s.levelLabel(level))
		for _, c := range covers[level] {
			emit(c, depth+1)
		}
	}
	for _, i := range roots {
		emit(i, 0)
	}
	return b.String()
}

// TestHasseMatchesReference: the bitset covering relation and extremal
// levels render byte for byte what the triple loop renders, on derived
// structures and on structures the engine patched in place.
func TestHasseMatchesReference(t *testing.T) {
	check := func(what string, s *Structure) {
		t.Helper()
		covers, minimal, maximal := hasseReference(s)
		if got, want := s.Hasse(), renderHasse(s, covers, maximal); got != want {
			t.Fatalf("%s: Hasse differs\ngot:\n%s\nwant:\n%s", what, got, want)
		}
		if !slices.Equal(s.Minimal(), minimal) || !slices.Equal(s.Maximal(), maximal) {
			t.Fatalf("%s: extremal levels differ: min %v/%v max %v/%v", what, s.Minimal(), minimal, s.Maximal(), maximal)
		}
	}
	lin, _ := Linear(5, 2)
	check("linear", AnalyzeRW(lin.G))
	mil, _ := Military(3, []string{"A", "B", "C"}, 1)
	check("military", AnalyzeRW(mil.G))
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := buildRandomGraph(rng, 10+rng.Intn(120), 20+rng.Intn(200))
		check(fmt.Sprintf("seed %d", seed), AnalyzeRW(g))
		e := NewEngine(g, 1)
		for step := 0; step < 20; step++ {
			mutate(g, rng, step)
			check(fmt.Sprintf("seed %d step %d", seed, step), e.Rearm(nil))
		}
	}
}
