package analysis_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"takegrant/internal/analysis"
	"takegrant/internal/explore"
	"takegrant/internal/graph"
	"takegrant/internal/rights"
)

// The differential tests of this file drive a ReachIndex through random
// mutation streams with warm rows in place before every step, so monotone
// r/w adds exercise the in-place extension and everything else the drop
// and invalidate paths. After every step the extended index must agree
// with an index built fresh on the same graph and with the search
// oracles on every vertex pair, and, on graphs of at most six vertices,
// with the exhaustive rule-application explorer.

// extendStream decodes a byte string into mutation steps. Reads past the
// end yield zero, and the stream ends once the bytes run out.
type extendStream struct {
	data []byte
	pos  int
}

func (s *extendStream) next() byte {
	if s.pos >= len(s.data) {
		s.pos++
		return 0
	}
	b := s.data[s.pos]
	s.pos++
	return b
}

func (s *extendStream) more() bool { return s.pos < len(s.data) }

// extendWorld is a graph wired to the index under test, the way the
// derived registry wires it in the service.
type extendWorld struct {
	g   *graph.Graph
	ix  *analysis.ReachIndex
	ids []graph.ID
}

func newExtendWorld() *extendWorld {
	w := &extendWorld{g: graph.New(nil)}
	w.ix = analysis.NewReachIndex(w.g)
	w.g.SetRecorder(func(c graph.Change) {
		if !w.ix.Patch(c) {
			w.ix.Invalidate()
		}
	})
	return w
}

func (w *extendWorld) addVertex(subject bool) graph.ID {
	name := fmt.Sprintf("v%d", len(w.ids))
	var v graph.ID
	if subject {
		v = w.g.MustSubject(name)
	} else {
		v = w.g.MustObject(name)
	}
	w.ids = append(w.ids, v)
	return v
}

func (w *extendWorld) live() []graph.ID {
	var out []graph.ID
	for _, v := range w.ids {
		if w.g.Valid(v) {
			out = append(out, v)
		}
	}
	return out
}

// rwSets are the monotone r/w adds the extension handles; the other
// steps draw from every subset of {r, w, t, g}.
var rwSets = []rights.Set{rights.R, rights.W, rights.RW}

// step applies one decoded mutation and names it.
func (w *extendWorld) step(s *extendStream) string {
	live := w.live()
	pick := func() graph.ID { return live[int(s.next())%len(live)] }
	switch op := s.next() % 10; op {
	case 0, 1, 2: // explicit r/w add: the extension path
		a, b := pick(), pick()
		set := rwSets[int(s.next())%len(rwSets)]
		if a != b {
			_ = w.g.AddExplicit(a, b, set)
		}
		return fmt.Sprintf("add %d→%d %v", a, b, set)
	case 3: // explicit add of any rights, t/g included
		a, b := pick(), pick()
		set := rights.Set(1 + s.next()%15)
		if a != b {
			_ = w.g.AddExplicit(a, b, set)
		}
		return fmt.Sprintf("add %d→%d %v", a, b, set)
	case 4: // implicit add: knowf extension
		a, b := pick(), pick()
		set := rights.Set(1 + s.next()%3)
		if a != b {
			_ = w.g.AddImplicit(a, b, set)
		}
		return fmt.Sprintf("implicit %d→%d %v", a, b, set)
	case 5: // create: a fresh vertex, then an edge from its creator
		if len(w.ids) >= 10 {
			return "create skipped"
		}
		x := pick()
		set := rwSets[int(s.next())%len(rwSets)]
		if s.next()%4 == 0 {
			set = rights.Set(1 + s.next()%15)
		}
		v := w.addVertex(s.next()%3 == 0)
		_ = w.g.AddExplicit(x, v, set)
		return fmt.Sprintf("create %d→%d %v", x, v, set)
	case 6: // remove explicit rights: invalidate
		a, b := pick(), pick()
		set := rights.Set(1 + s.next()%15)
		_ = w.g.RemoveExplicit(a, b, set)
		return fmt.Sprintf("remove %d→%d %v", a, b, set)
	case 7: // remove implicit rights
		a, b := pick(), pick()
		_ = w.g.RemoveImplicit(a, b, rights.Set(1+s.next()%3))
		return fmt.Sprintf("remove implicit %d→%d", a, b)
	case 8: // destructive: vertex deletion
		v := pick()
		if len(live) > 2 {
			_ = w.g.DeleteVertex(v)
		}
		return fmt.Sprintf("delete %d", v)
	default: // an isolated vertex
		if len(w.ids) >= 10 {
			return "vertex skipped"
		}
		v := w.addVertex(s.next()%2 == 0)
		return fmt.Sprintf("vertex %d", v)
	}
}

var extendAlphas = []rights.Right{rights.Read, rights.Write, rights.Take, rights.Grant}

// check compares the extended index with a fresh index and the search
// oracles on every live pair; every query also warms the rows the next
// step extends.
func (w *extendWorld) check(t testing.TB, step string) {
	t.Helper()
	fresh := analysis.NewReachIndex(w.g)
	live := w.live()
	for _, x := range live {
		for _, y := range live {
			for _, a := range extendAlphas {
				got, _, err := w.ix.CanShare(a, x, y, nil, nil)
				f, _, ferr := fresh.CanShare(a, x, y, nil, nil)
				if err != nil || ferr != nil {
					t.Fatalf("%s: CanShare(%v,%d,%d): %v / %v", step, a, x, y, err, ferr)
				}
				if want := analysis.CanShare(w.g, a, x, y); got != want || f != want {
					t.Fatalf("%s: CanShare(%v,%d,%d) extended %v, fresh %v, oracle %v\n%s",
						step, a, x, y, got, f, want, w.g)
				}
			}
			got, _, err := w.ix.CanKnow(x, y, nil, nil)
			f, _, ferr := fresh.CanKnow(x, y, nil, nil)
			if err != nil || ferr != nil {
				t.Fatalf("%s: CanKnow(%d,%d): %v / %v", step, x, y, err, ferr)
			}
			if want := analysis.CanKnow(w.g, x, y); got != want || f != want {
				t.Fatalf("%s: CanKnow(%d,%d) extended %v, fresh %v, oracle %v\n%s",
					step, x, y, got, f, want, w.g)
			}
			got, _, err = w.ix.CanKnowF(x, y, nil, nil)
			f, _, ferr = fresh.CanKnowF(x, y, nil, nil)
			if err != nil || ferr != nil {
				t.Fatalf("%s: CanKnowF(%d,%d): %v / %v", step, x, y, err, ferr)
			}
			if want := analysis.CanKnowF(w.g, x, y); got != want || f != want {
				t.Fatalf("%s: CanKnowF(%d,%d) extended %v, fresh %v, oracle %v\n%s",
					step, x, y, got, f, want, w.g)
			}
		}
	}
}

// hasImplicit reports whether any edge carries an implicit label.
func hasImplicit(g *graph.Graph) bool {
	for _, e := range g.Edges() {
		if !e.Implicit.Empty() {
			return true
		}
	}
	return false
}

// checkExplorer cross-checks one pair against bounded exhaustive rule
// application on graphs of at most six vertices: whatever the explorer
// derives, the extended index must report. The explorer is bounded, so
// this direction is the one it can decide; the other is the oracle
// comparison above. can•know is checked on graphs without implicit
// labels only — its theorem is stated for initial graphs, while the
// explorer's base condition also reads implicit edges directly.
func (w *extendWorld) checkExplorer(t testing.TB, s *extendStream, step string) {
	t.Helper()
	live := w.live()
	if len(live) > 6 || len(live) < 2 {
		return
	}
	x, y := live[int(s.next())%len(live)], live[int(s.next())%len(live)]
	if x == y {
		return
	}
	opts := explore.Options{MaxDepth: 3, MaxStates: 2000}
	a := extendAlphas[int(s.next())%len(extendAlphas)]
	if found, _ := explore.ShareReachable(w.g, a, x, y, opts); found {
		if got, _, _ := w.ix.CanShare(a, x, y, nil, nil); !got {
			t.Fatalf("%s: explorer derives share(%v,%d,%d), extended index says false\n%s", step, a, x, y, w.g)
		}
	}
	// can•know•f: de facto rules alone.
	opts.DeFacto = true
	found := false
	explore.Visit(w.g, opts, func(h *graph.Graph, _ int) bool {
		found = h.Implicit(x, y).Has(rights.Read) || h.Implicit(y, x).Has(rights.Write) ||
			(h.Explicit(x, y).Has(rights.Read) && h.IsSubject(x)) ||
			(h.Explicit(y, x).Has(rights.Write) && h.IsSubject(y))
		return !found
	})
	if found {
		if got, _, _ := w.ix.CanKnowF(x, y, nil, nil); !got {
			t.Fatalf("%s: explorer derives know-f(%d,%d), extended index says false\n%s", step, x, y, w.g)
		}
	}
	if !hasImplicit(w.g) {
		if found, _ := explore.KnowReachable(w.g, x, y, opts); found {
			if got, _, _ := w.ix.CanKnow(x, y, nil, nil); !got {
				t.Fatalf("%s: explorer derives know(%d,%d), extended index says false\n%s", step, x, y, w.g)
			}
		}
	}
}

// runExtendStream builds a small world from the stream's first bytes and
// then applies and checks one step per decoded mutation.
func runExtendStream(t testing.TB, data []byte) {
	s := &extendStream{data: data}
	w := newExtendWorld()
	for n := 3 + int(s.next()%4); n > 0; n-- {
		w.addVertex(s.next()%3 != 0)
	}
	w.check(t, "initial")
	for i := 0; s.more() && i < 64; i++ {
		step := fmt.Sprintf("step %d: %s", i, w.step(s))
		w.check(t, step)
		w.checkExplorer(t, s, step)
	}
}

// TestReachExtendMatchesFreshAndOracles runs random mutation streams
// through runExtendStream.
func TestReachExtendMatchesFreshAndOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 60; trial++ {
		data := make([]byte, 40+rng.Intn(80))
		rng.Read(data)
		t.Run(fmt.Sprint(trial), func(t *testing.T) { runExtendStream(t, data) })
	}
}

// FuzzReachExtend is TestReachExtendMatchesFreshAndOracles over
// fuzzer-chosen streams; the committed corpus under testdata seeds it.
func FuzzReachExtend(f *testing.F) {
	f.Add([]byte{3, 1, 1, 0, 0, 0, 1, 0, 1, 2, 1, 1, 5, 0, 0, 0, 1})
	f.Add([]byte{4, 1, 1, 1, 2, 0, 1, 1, 0, 2, 1, 0, 2, 4, 0, 2, 1, 3, 1, 2, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 400 {
			data = data[:400]
		}
		runExtendStream(t, data)
	})
}

// TestReachExtendKeepsRowsWarm pins the extension contract on a known
// world: r/w adds (explicit and implicit) and fresh vertices keep every
// row warm and exact, a t/g add still re-misses once, and the rows grow
// to exactly what a fresh index reports.
func TestReachExtendKeepsRowsWarm(t *testing.T) {
	w := newExtendWorld()
	a := w.addVertex(true)
	b := w.addVertex(true)
	c := w.addVertex(true)
	o := w.addVertex(false)
	if err := w.g.AddExplicit(a, b, rights.TG); err != nil {
		t.Fatal(err)
	}
	if err := w.g.AddExplicit(b, o, rights.R); err != nil {
		t.Fatal(err)
	}
	w.check(t, "initial")
	_, before, _ := w.ix.IndexStats()

	// Rows exist for the vertices checked so far; each must stay warm
	// against every vertex, later ones included.
	rowsOf := w.live()
	mustWarm := func(step string) {
		t.Helper()
		for _, x := range rowsOf {
			for _, y := range w.live() {
				if _, warm, _ := w.ix.CanKnow(x, y, nil, nil); !warm {
					t.Fatalf("%s: know row of %d not warm", step, x)
				}
				if _, warm, _ := w.ix.CanKnowF(x, y, nil, nil); !warm {
					t.Fatalf("%s: knowf row of %d not warm", step, x)
				}
				if _, warm, _ := w.ix.CanShare(rights.Read, x, y, nil, nil); !warm {
					t.Fatalf("%s: share row of %d not warm", step, x)
				}
			}
		}
	}
	// c reads o: a new connection between islands, new know members.
	if err := w.g.AddExplicit(c, o, rights.RW); err != nil {
		t.Fatal(err)
	}
	mustWarm("explicit rw add")
	// A fresh object written by a and read through an implicit edge.
	d := w.addVertex(false)
	if err := w.g.AddExplicit(a, d, rights.W); err != nil {
		t.Fatal(err)
	}
	if err := w.g.AddImplicit(c, d, rights.R); err != nil {
		t.Fatal(err)
	}
	mustWarm("create and implicit add")
	if _, misses, _ := w.ix.IndexStats(); misses != before {
		t.Fatalf("r/w adds caused %d row builds, want 0", misses-before)
	}
	w.check(t, "after extensions")

	// A tg add can merge islands: the share and know rows re-miss.
	if err := w.g.AddExplicit(b, c, rights.TG); err != nil {
		t.Fatal(err)
	}
	if _, warm, _ := w.ix.CanKnow(a, o, nil, nil); warm {
		t.Fatal("tg add kept the know rows warm")
	}
	if _, warm, _ := w.ix.CanShare(rights.Read, a, o, nil, nil); warm {
		t.Fatal("tg add kept the share rows warm")
	}
	w.check(t, "after tg add")
}

// TestReachExtendConcurrentReaders is the differential property under
// -race: a writer applies decoded mutation streams, creates included,
// under the write half of an RWMutex (the service's lock discipline)
// while readers query the extended index under read locks and compare
// every verdict with the oracle computed under the same lock.
func TestReachExtendConcurrentReaders(t *testing.T) {
	w := newExtendWorld()
	for i := 0; i < 6; i++ {
		w.addVertex(i%3 != 2)
	}
	var mu sync.RWMutex
	done := make(chan struct{})
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
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
				mu.RLock()
				live := w.live()
				x, y := live[rng.Intn(len(live))], live[rng.Intn(len(live))]
				gotS, _, errS := w.ix.CanShare(rights.Read, x, y, nil, nil)
				gotK, _, errK := w.ix.CanKnow(x, y, nil, nil)
				gotF, _, errF := w.ix.CanKnowF(x, y, nil, nil)
				wantS := analysis.CanShare(w.g, rights.Read, x, y)
				wantK := analysis.CanKnow(w.g, x, y)
				wantF := analysis.CanKnowF(w.g, x, y)
				mu.RUnlock()
				if errS != nil || errK != nil || errF != nil {
					errs <- fmt.Errorf("query error: %v %v %v", errS, errK, errF)
					return
				}
				if gotS != wantS || gotK != wantK || gotF != wantF {
					errs <- fmt.Errorf("(%d,%d): share %v/%v know %v/%v knowf %v/%v",
						x, y, gotS, wantS, gotK, wantK, gotF, wantF)
					return
				}
			}
		}(int64(200 + r))
	}
	rng := rand.New(rand.NewSource(17))
	data := make([]byte, 8)
	for i := 0; i < 300; i++ {
		select {
		case err := <-errs:
			close(done)
			wg.Wait()
			t.Fatal(err)
		default:
		}
		rng.Read(data)
		mu.Lock()
		w.step(&extendStream{data: data})
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
