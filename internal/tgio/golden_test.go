package tgio_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"takegrant/internal/graph"
	"takegrant/internal/rights"
	"takegrant/internal/simulate"
	"takegrant/internal/specimens"
	"takegrant/internal/tgio"
)

// referenceWrite is the straightforward canonical .tg writer — per-edge
// name strings, string-keyed sorts, fmt formatting — kept as the oracle
// Write must match byte for byte.
func referenceWrite(w io.Writer, g *graph.Graph) error {
	u := g.Universe()
	var b strings.Builder
	for _, r := range u.All()[4:] {
		fmt.Fprintf(&b, "right %s\n", u.Name(r))
	}
	names := make([]string, 0, g.NumVertices())
	for _, v := range g.Vertices() {
		names = append(names, g.Name(v))
	}
	sort.Strings(names)
	for _, n := range names {
		v, _ := g.Lookup(n)
		fmt.Fprintf(&b, "%s %s\n", g.KindOf(v), n)
	}
	type edgeLine struct{ src, dst, set string }
	var explicit, implicit []edgeLine
	for _, e := range g.Edges() {
		if !e.Explicit.Empty() {
			explicit = append(explicit, edgeLine{g.Name(e.Src), g.Name(e.Dst), e.Explicit.Format(u)})
		}
		if !e.Implicit.Empty() {
			implicit = append(implicit, edgeLine{g.Name(e.Src), g.Name(e.Dst), e.Implicit.Format(u)})
		}
	}
	sortEdges := func(es []edgeLine) {
		sort.Slice(es, func(i, j int) bool {
			if es[i].src != es[j].src {
				return es[i].src < es[j].src
			}
			return es[i].dst < es[j].dst
		})
	}
	sortEdges(explicit)
	sortEdges(implicit)
	for _, e := range explicit {
		fmt.Fprintf(&b, "edge %s %s %s\n", e.src, e.dst, e.set)
	}
	for _, e := range implicit {
		fmt.Fprintf(&b, "implicit %s %s %s\n", e.src, e.dst, e.set)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// shuffledWorld is a world whose name order differs from its ID order,
// with declared extra rights, implicit edges and deleted-vertex holes.
func shuffledWorld(n int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	u := rights.NewUniverse()
	u.MustDeclare("e")
	u.MustDeclare("audit")
	g := graph.New(u)
	for _, i := range rng.Perm(n) {
		name := fmt.Sprintf("n%x", i*7919%(4*n))
		if rng.Intn(3) == 0 {
			g.MustObject(name)
		} else {
			g.MustSubject(name)
		}
	}
	for i := 0; i < 4*n; i++ {
		a, b := graph.ID(rng.Intn(n)), graph.ID(rng.Intn(n))
		if a == b {
			continue
		}
		if rng.Intn(5) == 0 {
			_ = g.AddImplicit(a, b, rights.Set(1+rng.Intn(3)))
		} else {
			_ = g.AddExplicit(a, b, rights.Set(1+rng.Intn(63)))
		}
	}
	for i := 0; i < n/10; i++ {
		if v := graph.ID(rng.Intn(n)); g.Valid(v) {
			_ = g.DeleteVertex(v)
		}
	}
	return g
}

func assertWriteMatchesReference(t *testing.T, name string, g *graph.Graph) {
	t.Helper()
	var want bytes.Buffer
	if err := referenceWrite(&want, g); err != nil {
		t.Fatal(err)
	}
	if got := tgio.WriteString(g); got != want.String() {
		i := 0
		for i < len(got) && i < want.Len() && got[i] == want.String()[i] {
			i++
		}
		t.Fatalf("%s: Write differs from the reference writer at byte %d of %d/%d:\n got …%.80q\nwant …%.80q",
			name, i, len(got), want.Len(), got[i:], want.String()[i:])
	}
}

// TestWriteGolden pins Write's output byte for byte: against the
// reference writer on every embedded specimen and on generated worlds,
// and against the SHA-256 pinned for the doc-share 1e4 benchmark world.
func TestWriteGolden(t *testing.T) {
	for _, name := range specimens.List() {
		g, err := specimens.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		assertWriteMatchesReference(t, name, g)
	}
	assertWriteMatchesReference(t, "shuffled", shuffledWorld(400, 3))
	assertWriteMatchesReference(t, "empty", graph.New(nil))
	for _, sc := range simulate.Scenarios() {
		g, err := simulate.GenerateScenario(sc, 1500, 2)
		if err != nil {
			t.Fatal(err)
		}
		assertWriteMatchesReference(t, string(sc), g)
	}
	if testing.Short() {
		return
	}
	g, err := simulate.GenerateScenario(simulate.ScenarioDocShare, 10000, 1)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(tgio.WriteString(g)))
	const pinned = "ecf4537239534f614893eda82d1092054b7657e5eb2b39a7c2c0d20d29bc17f2"
	if got := hex.EncodeToString(sum[:]); got != pinned {
		t.Fatalf("doc-share 1e4 seed 1 writes with sha256 %s, want %s", got, pinned)
	}
}

// TestBinaryEncodingDeterministic encodes one graph several times, each
// from a freshly built snapshot (whose label interning order follows map
// iteration), and requires identical bytes.
func TestBinaryEncodingDeterministic(t *testing.T) {
	g := shuffledWorld(2000, 9)
	var first []byte
	for i := 0; i < 5; i++ {
		var buf bytes.Buffer
		if err := tgio.EncodeBinary(&buf, g.Clone()); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = buf.Bytes()
			continue
		}
		if !bytes.Equal(first, buf.Bytes()) {
			t.Fatalf("encoding %d differs from the first (%d vs %d bytes)", i, buf.Len(), len(first))
		}
	}
	back, err := tgio.DecodeBinary(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if tgio.WriteString(back) != tgio.WriteString(g) {
		t.Fatal("decoded graph does not write back to the original text")
	}
}

// TestEncodingAfterRefreshMatchesFresh: a graph whose snapshot was
// refreshed row by row — label indices in refresh order, superseded rows
// in its arrays, a label pair no edge carries any more still in its
// table — writes and encodes the same bytes as a clone, whose snapshot
// is built from scratch.
func TestEncodingAfterRefreshMatchesFresh(t *testing.T) {
	g := shuffledWorld(400, 5)
	tgio.WriteString(g) // the snapshot every later read refreshes
	rng := rand.New(rand.NewSource(5))
	var a, b graph.ID
	for a == b || !g.Valid(a) || !g.Valid(b) {
		a, b = graph.ID(rng.Intn(g.Cap())), graph.ID(rng.Intn(g.Cap()))
	}
	// An edge whose label is a pair no other edge carries (shuffledWorld's
	// implicit labels hold only r and w), interned by one refresh and
	// left dead by the next.
	_ = g.RemoveExplicit(a, b, rights.Set(^uint64(0)))
	_ = g.RemoveImplicit(a, b, rights.Set(^uint64(0)))
	lone := rights.Of(rights.Right(4)).Union(rights.Of(rights.Right(5))).Union(rights.TG)
	if err := g.AddImplicit(a, b, lone); err != nil {
		t.Fatal(err)
	}
	g.Snapshot()
	if err := g.RemoveImplicit(a, b, lone); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 200; step++ {
		x, y := graph.ID(rng.Intn(g.Cap())), graph.ID(rng.Intn(g.Cap()))
		set := rights.Set(1 + rng.Intn(63))
		switch rng.Intn(4) {
		case 0:
			g.MustSubject(fmt.Sprintf("fresh%d", step))
		case 1:
			_ = g.AddExplicit(x, y, set)
		case 2:
			_ = g.AddImplicit(x, y, rights.R)
		default:
			_ = g.RemoveExplicit(x, y, set)
		}
		if step%10 == 0 {
			g.Snapshot()
		}
	}
	fresh := g.Clone()
	if got, want := tgio.WriteString(g), tgio.WriteString(fresh); got != want {
		t.Fatalf("Write after refreshes differs from a fresh build's (%d vs %d bytes)", len(got), len(want))
	}
	if got, want := encodeGraph(t, g), encodeGraph(t, fresh); !bytes.Equal(got, want) {
		t.Fatalf("EncodeBinary after refreshes differs from a fresh build's (%d vs %d bytes)", len(got), len(want))
	}
	_, refreshes, builds := g.SnapshotStats()
	if refreshes < 20 || builds != 1 {
		t.Fatalf("snapshot made %d refreshes and %d full builds; want at least 20 and 1", refreshes, builds)
	}
	if g.Snapshot().NumLabels() <= fresh.Snapshot().NumLabels() {
		t.Fatalf("refreshed table holds %d labels, fresh %d: no dead label was exercised",
			g.Snapshot().NumLabels(), fresh.Snapshot().NumLabels())
	}
}

func encodeGraph(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tgio.EncodeBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func BenchmarkWrite(b *testing.B) {
	g, err := simulate.GenerateScenario(simulate.ScenarioDocShare, 10000, 1)
	if err != nil {
		b.Fatal(err)
	}
	g.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tgio.Write(io.Discard, g); err != nil {
			b.Fatal(err)
		}
	}
}
