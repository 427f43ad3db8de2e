package experiments

// Million-vertex bulk-load experiments. E24 traces the cold-install
// curve — binary decode plus the derived-index builds (CSR snapshot,
// tg-island union, reach-closure rows) — from 1e4 to 1e6 vertices, with
// allocation-per-vertex alongside wall clock so a superlinear copy or a
// dropped preallocation shows up as a bent curve, not just a slower one.
// E25 then asks whether warm verdicts stay O(1) at the top of that
// curve: the same bit-test flatness E23 established across ~64x must
// still hold when the world is a million vertices.

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"time"

	"takegrant/internal/analysis"
	"takegrant/internal/graph"
	"takegrant/internal/rights"
	"takegrant/internal/simulate"
	"takegrant/internal/tgio"
)

func init() {
	register("E24", e24BulkLoad)
	register("E25", e25WarmAtScale)
	register("E26", e26WriteSnapshotAtScale)
}

// bulkSizes is the E24 curve; the last entry is the design-point world
// E25 re-measures warm verdicts on.
var bulkSizes = []int{10_000, 100_000, 1_000_000}

// Generated worlds are cached as encoded bytes (small) so E24 and E25
// share them; only the largest decoded graph is retained, for E25 —
// keeping every decoded size alive would hold hundreds of MB for
// nothing.
var (
	bulkEncoded = map[int][]byte{}
	bulkTop     *graph.Graph
)

func bulkBytes(n int) []byte {
	if b, ok := bulkEncoded[n]; ok {
		return b
	}
	g, err := simulate.GenerateScenario(simulate.ScenarioOrgChart, n, 17)
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := tgio.EncodeBinary(&buf, g); err != nil {
		panic(err)
	}
	bulkEncoded[n] = buf.Bytes()
	return buf.Bytes()
}

// bulkGraph decodes the n-vertex world, reusing the retained top-size
// decode when it exists.
func bulkGraph(n int) *graph.Graph {
	if n == bulkSizes[len(bulkSizes)-1] && bulkTop != nil {
		return bulkTop
	}
	g, err := tgio.DecodeBinary(bytes.NewReader(bulkBytes(n)))
	if err != nil {
		panic(err)
	}
	if n == bulkSizes[len(bulkSizes)-1] {
		bulkTop = g
	}
	return g
}

// allocDelta runs f once and reports the bytes it allocated (cumulative
// TotalAlloc, so GC during f cannot make the number lie low).
func allocDelta(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// e24BulkLoad measures the cold-install path a binary PUT of a large
// world pays: streaming .tgb decode into a pre-sized graph, then the
// derived indexes — parallel counting-sort CSR snapshot, tg-island
// union over it, and the first reach-closure row family. The claim is
// the paper's linearity (Corollary 5.6's spirit applied to the
// systems layer): wall clock and allocated bytes grow proportionally
// with the world, and the full 1e6 install lands in single-digit
// seconds.
func e24BulkLoad() Table {
	t := Table{
		ID:    "E24",
		Title: "Bulk load at scale: binary decode + derived-index build, 1e4 → 1e6",
		Claim: "cold install cost (decode, CSR snapshot, islands, reach rows) grows linearly in world size; a 1e6-vertex world installs in single-digit seconds",
		Columns: []string{"vertices", "edges", ".tgb bytes", "decode", "snapshot+islands",
			"reach row", "total", "alloc B/vertex"},
		Pass: true,
	}
	perVertex := make([]float64, 0, len(bulkSizes))
	var topTotal time.Duration
	for _, n := range bulkSizes {
		enc := bulkBytes(n)
		var g *graph.Graph
		var allocBytes uint64
		decodeT := func() time.Duration {
			start := time.Now()
			allocBytes = allocDelta(func() {
				dec, err := tgio.DecodeBinary(bytes.NewReader(enc))
				if err != nil {
					panic(err)
				}
				g = dec
			})
			return time.Since(start)
		}()
		if n == bulkSizes[len(bulkSizes)-1] {
			bulkTop = g // E25 reuses the big decode
		}
		start := time.Now()
		g.Snapshot()
		g.TGIslands()
		indexT := time.Since(start)

		// First decision query builds the island's chain + span rows —
		// the reach-closure slice of a cold install.
		ix := analysis.NewReachIndex(g)
		x := g.Subjects()[0]
		y := g.Objects()[len(g.Objects())-1]
		start = time.Now()
		ix.CanShare(rights.Read, x, y, nil, nil)
		rowT := time.Since(start)

		total := decodeT + indexT + rowT
		topTotal = total
		pv := float64(allocBytes) / float64(n)
		perVertex = append(perVertex, pv)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(g.NumVertices()), fmt.Sprint(g.NumEdges()), fmt.Sprint(len(enc)),
			decodeT.Round(time.Microsecond).String(),
			indexT.Round(time.Microsecond).String(),
			rowT.Round(time.Microsecond).String(),
			total.Round(time.Microsecond).String(),
			fmt.Sprintf("%.0f", pv),
		})
	}
	if topTotal > 10*time.Second {
		t.Pass = false
		t.Notes = append(t.Notes, fmt.Sprintf("1e6 install took %v (> 10s)", topTotal))
	}
	if last, first := perVertex[len(perVertex)-1], perVertex[0]; last > 3*first {
		t.Pass = false
		t.Notes = append(t.Notes,
			fmt.Sprintf("alloc/vertex grew %.0fB -> %.0fB (> 3x): the load path is superlinear", first, last))
	}
	t.Notes = append(t.Notes,
		"pass criterion: 1e6 install (decode + snapshot + islands + first reach row) ≤ 10s and alloc/vertex ≤ 3x across 100x growth",
		"decode includes graph construction into a pre-sized vertex table (Graph.Grow)")
	return t
}

// e25WarmAtScale re-runs E23's flatness question at the E24 design
// point: with the reach rows warm, the p99 of a can•share / can•know
// verdict on a 1e6-vertex world must not drift from the 1e4 world's.
// p99 rather than mean, because the capacity model in DESIGN.md budgets
// tail latency, and a flat mean with a growing tail would still sink
// the open-loop soak.
func e25WarmAtScale() Table {
	t := Table{
		ID:      "E25",
		Title:   "Warm verdict p99 flat at 1e6 vertices",
		Claim:   "warm closure verdicts are bit-tests: their p99 does not move between a 1e4- and a 1e6-vertex world",
		Columns: []string{"vertices", "warm can-share p50", "warm can-share p99", "warm can-know p99"},
		Pass:    true,
	}
	sizes := []int{bulkSizes[0], bulkSizes[len(bulkSizes)-1]}
	var shareP99, knowP99 []time.Duration
	for _, n := range sizes {
		g := bulkGraph(n)
		ix := analysis.NewReachIndex(g)
		x := g.Subjects()[0]
		y := g.Objects()[len(g.Objects())-1]
		// Warm the rows, and cross-check against the search oracle on the
		// small world (the big one would take the oracle minutes).
		got, _, _ := ix.CanShare(rights.Read, x, y, nil, nil)
		gotK, _, _ := ix.CanKnow(x, y, nil, nil)
		if n == sizes[0] {
			if want := analysis.CanShare(g, rights.Read, x, y); got != want {
				t.Pass = false
				t.Notes = append(t.Notes, fmt.Sprintf("can-share closure verdict %v, oracle %v", got, want))
			}
			if want := analysis.CanKnow(g, x, y); gotK != want {
				t.Pass = false
				t.Notes = append(t.Notes, fmt.Sprintf("can-know closure verdict %v, oracle %v", gotK, want))
			}
		}
		sp50, sp99 := warmQuantiles(func() { ix.CanShare(rights.Read, x, y, nil, nil) })
		_, kp99 := warmQuantiles(func() { ix.CanKnow(x, y, nil, nil) })
		shareP99 = append(shareP99, sp99)
		knowP99 = append(knowP99, kp99)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(g.NumVertices()), sp50.String(), sp99.String(), kp99.String(),
		})
	}
	// Flatness with a noise floor: at tens-of-ns magnitudes a 3x ratio
	// can be pure scheduler/cache jitter, so the ratio only fails when
	// the big-world p99 also clears 500ns — far above any warm bit-test,
	// far below the µs-scale cold search a real scale regression decays to.
	flat := func(kind string, q []time.Duration) {
		if q[1] > 3*q[0] && q[1] > 500*time.Nanosecond {
			t.Pass = false
			t.Notes = append(t.Notes,
				fmt.Sprintf("warm %s p99 grew %v -> %v (> 3x and > 500ns) across 100x vertices", kind, q[0], q[1]))
		}
	}
	flat("can-share", shareP99)
	flat("can-know", knowP99)
	t.Notes = append(t.Notes,
		"pass criterion: warm p99 stays ≤ max(3x the 1e4 p99, 500ns) while the world grows 100x, verdicts match the search oracle at 1e4",
		"samples are 128-query batches: a single warm verdict is tens of ns, under the timer floor")
	return t
}

// e26WriteSnapshotAtScale asks what a write costs the CSR snapshot
// layer on E24's worlds. Corollary 5.7 makes the §5 guard O(1) per rule
// application, so a write path whose snapshot cost grew with the world
// would dominate it at scale. Each size times a full build, then makes a
// write — one create (a new object and its creator's edge) plus one edge
// add — and times the Snapshot call that folds it in, which refreshes the
// rows the write dirtied.
func e26WriteSnapshotAtScale() Table {
	t := Table{
		ID:    "E26",
		Title: "Write-path snapshot cost at scale: refresh vs full CSR build, 1e4 → 1e6",
		Claim: "a write refreshes the CSR snapshot in time independent of world size, far below the O(V+E) full build",
		Columns: []string{"vertices", "edges", "full build", "refresh (best of 5)",
			"refresh (worst of 5)", "refresh/full"},
		Pass: true,
	}
	const trials = 5
	var refresh []time.Duration
	var topFull time.Duration
	for _, n := range bulkSizes {
		g := bulkGraph(n)
		var full time.Duration
		for i := 0; i < trials; i++ {
			g.RestoreRevision(g.Revision()) // drops the snapshot: the next read builds
			start := time.Now()
			g.Snapshot()
			if d := time.Since(start); i == 0 || d < full {
				full = d
			}
		}
		subs := g.Subjects()
		runtime.GC() // the builds' garbage is not the refresh's cost
		_, refreshes0, _ := g.SnapshotStats()
		var best, worst time.Duration
		for i := 0; i < trials; i++ {
			x, y := subs[i], subs[len(subs)-1-i]
			o := g.MustObject(fmt.Sprintf("e26-%d", i))
			if err := g.AddExplicit(x, o, rights.RW); err != nil {
				panic(err)
			}
			if err := g.AddExplicit(x, y, rights.Of(rights.Take)); err != nil {
				panic(err)
			}
			start := time.Now()
			g.Snapshot()
			d := time.Since(start)
			if i == 0 || d < best {
				best = d
			}
			worst = max(worst, d)
		}
		if _, refreshes, _ := g.SnapshotStats(); refreshes-refreshes0 != trials {
			t.Pass = false
			t.Notes = append(t.Notes, fmt.Sprintf("%d vertices: %d of %d writes refreshed the snapshot",
				n, refreshes-refreshes0, trials))
		}
		refresh = append(refresh, best)
		topFull = full
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(g.NumVertices()), fmt.Sprint(g.NumEdges()),
			full.Round(time.Microsecond).String(),
			best.Round(time.Microsecond).String(),
			worst.Round(time.Microsecond).String(),
			fmt.Sprintf("%.4f", float64(best)/float64(full)),
		})
	}
	// The writes above moved the retained top-size world, and E25
	// measures it unmodified: a later E25 decodes it afresh.
	bulkTop = nil
	first, last := refresh[0], refresh[len(refresh)-1]
	if last > 4*first {
		t.Pass = false
		t.Notes = append(t.Notes, fmt.Sprintf("1e6 refresh %v > 4x the 1e4 refresh %v: the refresh scales with V", last, first))
	}
	if last*100 > topFull {
		t.Pass = false
		t.Notes = append(t.Notes, fmt.Sprintf("1e6 refresh %v > 1%% of the 1e6 full build %v", last, topFull))
	}
	t.Notes = append(t.Notes,
		"pass criterion: best-of-5 refresh at 1e6 ≤ 4x the 1e4 figure and ≤ 1% of the 1e6 full build (best of 5)",
		"the first refresh after a full build grows the edge arrays it appends to, one O(E) copy that the worst-of-5 column shows")
	return t
}

// warmQuantiles samples f's warm latency: 200 batches of 128 calls,
// quantiles over the per-call batch means, best of several trials.
// Batching amortises the timer read; taking the minimum across trials
// discards trials a descheduling or cache eviction polluted — the
// drift-with-scale E25 is after survives both, machine jitter doesn't.
func warmQuantiles(f func()) (p50, p99 time.Duration) {
	const trials = 5
	for t := 0; t < trials; t++ {
		q50, q99 := warmQuantilesOnce(f)
		if t == 0 || q50 < p50 {
			p50 = q50
		}
		if t == 0 || q99 < p99 {
			p99 = q99
		}
	}
	return p50, p99
}

func warmQuantilesOnce(f func()) (p50, p99 time.Duration) {
	const batches, per = 200, 128
	f()
	samples := make([]time.Duration, batches)
	for i := range samples {
		start := time.Now()
		for j := 0; j < per; j++ {
			f()
		}
		samples[i] = time.Since(start) / per
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[batches/2], samples[batches*99/100]
}
