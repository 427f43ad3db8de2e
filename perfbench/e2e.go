package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"takegrant/internal/graph"
	"takegrant/internal/tgio"
)

// endToEnd is the untraced run against a real tgserve process.
func (b *bench) endToEnd(bin string, rep *report) error {
	steal0 := hostSteal()
	flags := append([]string{"-snapshot-every", strconv.Itoa(b.cfg.SnapshotEvery)}, b.cfg.ServerFlags...)
	srv, err := startServer(bin, filepath.Join(b.runDir, "data"), filepath.Join(b.runDir, "tgserve.log"), flags)
	if err != nil {
		return err
	}
	defer srv.stop()
	// An interrupted run still stops its server and waits for it.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigc)
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-sigc:
			srv.stop()
			os.RemoveAll(b.runDir)
			os.Exit(2)
		case <-done:
		}
	}()
	rc, wc := newConn(srv.base), newConn(srv.base)
	defer rc.close()
	defer wc.close()

	// Set-up: install the world and warm every hot row, several times;
	// setup_s is the median.
	var setups []time.Duration
	for i := 0; i < setupRepeats; i++ {
		d, err := b.setup(rc)
		if err != nil {
			return err
		}
		setups = append(setups, d)
	}
	rep.set("setup_s", "s", quantile(setups, 0.5).Seconds(), len(setups))

	gen := newStreamGen(b.wl, b.world, b.hot, b.seed)
	wr := newWriter(b.world, b.hot, b.seed)
	sch := newSchedule(gen, time.Duration(b.cfg.WarmupSeconds*float64(time.Second)), time.Duration(b.seconds)*time.Second)
	var start statsView
	if err := getJSON(rc, "/stats", &start); err != nil {
		return err
	}
	var all []sample
	run := func(ph phase) phaseResult {
		res := runPhase(rc, wc, ph, wr, saturateAfter)
		all = append(append(all, res.reads...), res.writes...)
		return res
	}

	// The end-to-end figure is the server's CPU time per write, not a
	// wall-clock latency: on a shared host the hypervisor's CPU steal
	// moves every latency with the load of other guests, while the CPU
	// time the kernel charges the server leaves the stolen time out. The
	// reads-only window gives the CPU a read costs, which the churn
	// window's reads are charged before the rest goes to the writes.
	// Each window runs in chunks, and a metric is the median over its
	// chunks: a collection cycle or a short burst of work from another
	// guest on the same cores moves one chunk, not the run's figure.
	run(sch.readWarm)
	var perRead []time.Duration
	for _, ch := range sch.readWindow.chunks(readChunks) {
		w, err := window(srv, rc, func() { run(ch) })
		if err != nil {
			return err
		}
		if len(ch.reads) > 0 {
			perRead = append(perRead, w.cpu/time.Duration(len(ch.reads)))
		}
		// The reads-only window is warm: every row it needs was built
		// at set-up, and nothing moves the graph.
		if n := w.counts["analysis.row_builds"]; n != 0 {
			rep.fail("the reads-only window built %v closure rows", n)
		}
		if n := w.counts["graph.snapshot_builds"]; n != 0 {
			rep.fail("the reads-only window built %v CSR snapshots", n)
		}
	}
	if len(perRead) == 0 {
		return fmt.Errorf("the reads-only window holds no reads: --seconds %d is too short", b.seconds)
	}
	readCPU := quantile(perRead, 0.5)

	// A write's CPU is what a churn chunk cost beyond its reads at the
	// reads-only rate, per write: the write itself, and the closure rows,
	// CSR snapshots and hierarchy re-derivations it makes later reads and
	// writes pay for.
	run(sch.churnWarm)
	var churn phaseResult
	var perWrite []time.Duration
	counts := map[string]float64{}
	heap, err := sampleHeap(srv, func() error {
		for _, ch := range sch.churnWindow.chunks(churnChunks) {
			var res phaseResult
			w, err := window(srv, rc, func() { res = run(ch) })
			if err != nil {
				return err
			}
			churn.reads = append(churn.reads, res.reads...)
			churn.writes = append(churn.writes, res.writes...)
			if len(ch.writes) > 0 {
				perWrite = append(perWrite, (w.cpu-readCPU*time.Duration(len(ch.reads)))/time.Duration(len(ch.writes)))
			}
			for k, v := range w.counts {
				counts[k] += v
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(perWrite) == 0 {
		return fmt.Errorf("the churn window holds no writes: --seconds %d is too short", b.seconds)
	}
	rep.set("write_cpu_ms", "ms", ms(quantile(perWrite, 0.5)), len(sch.churnWindow.writes))
	rep.set("server_heap_mb", "MiB", heap.median, heap.n)
	rep.notes = append(rep.notes, fmt.Sprintf("churn window counts: %v", counts))

	rep.Attempted = len(all)
	rep.Failed = failures(all)
	if rep.Failed > 0 {
		rep.notes = append(rep.notes, "failures: "+describeFailures(all))
	}
	rep.notes = append(rep.notes, fmt.Sprintf("not reported: read_cpu_us=%.3f; churn window wall clock read_p99_ms=%.3f write_mean_ms=%.3f gen_late_ms_p99=%.3f; host CPU steal over the run %.1f%%",
		us(readCPU), ms(quantile(latencies(churn.reads, "read"), 0.99)), ms(mean(latencies(churn.writes, "write"))),
		ms(quantile(lateness(all), 0.99)), 100*hostSteal().since(steal0)))

	var end statsView
	if err := getJSON(rc, "/stats", &end); err != nil {
		return err
	}
	b.gateEndToEnd(rep, rc, wr, start, end)
	return nil
}

// The number of chunks each timed window runs in.
const (
	readChunks  = 4
	churnChunks = 8
)

// windowResult is what the server did during one timed window.
type windowResult struct {
	cpu    time.Duration
	counts map[string]float64 // /stats deltas
}

// window runs drive and returns the server CPU time and /stats counter
// deltas across it.
func window(srv *server, c *httpConn, drive func()) (windowResult, error) {
	var before, after statsView
	if err := getJSON(c, "/stats", &before); err != nil {
		return windowResult{}, err
	}
	cpu0, err := srv.cpuTime()
	if err != nil {
		return windowResult{}, err
	}
	drive()
	cpu1, err := srv.cpuTime()
	if err != nil {
		return windowResult{}, err
	}
	if err := getJSON(c, "/stats", &after); err != nil {
		return windowResult{}, err
	}
	return windowResult{cpu: cpu1 - cpu0, counts: statsDelta(before, after)}, nil
}

// heapSamples summarises the heap goals sampled during a window.
type heapSamples struct {
	median float64
	n      int
}

// sampleHeap runs fn while a third connection reads the server's heap
// goal (memstats.NextGC: the heap size at which the collector next runs,
// twice the live heap at the last collection under the default GOGC)
// once every heapEvery. The heap in use swings with each collection
// cycle and one sample moves with whatever garbage was live at that
// collection; the median of the samples follows the memory the server's
// state needs.
func sampleHeap(srv *server, fn func() error) (heapSamples, error) {
	c := newConn(srv.base)
	defer c.close()
	stop := make(chan struct{})
	done := make(chan error, 1)
	var goals []float64
	go func() {
		t := time.NewTicker(heapEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				done <- nil
				return
			case <-t.C:
				g, err := heapGoalMB(c)
				if err != nil {
					done <- err
					return
				}
				goals = append(goals, g)
			}
		}
	}()
	err := fn()
	close(stop)
	if e := <-done; err == nil {
		err = e
	}
	if err == nil && len(goals) == 0 {
		err = fmt.Errorf("no heap samples: the window is shorter than %v", heapEvery)
	}
	if err != nil {
		return heapSamples{}, err
	}
	sort.Float64s(goals)
	return heapSamples{median: goals[len(goals)/2], n: len(goals)}, nil
}

// heapEvery is the heap goal's sampling period.
const heapEvery = 500 * time.Millisecond

// setup installs the world and warms every hot subject's rows; it
// returns the time both took.
func (b *bench) setup(c *httpConn) (time.Duration, error) {
	t0 := time.Now()
	req, err := http.NewRequest("PUT", c.base+"/graph", bytes.NewReader(b.data))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", tgio.BinaryContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, fmt.Errorf("PUT /graph: %w", err)
	}
	resp.Body.Close()
	http.DefaultClient.CloseIdleConnections()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("PUT /graph: status %d", resp.StatusCode)
	}
	for _, q := range warmQueries(b.world, b.hot) {
		status, _, err := c.do("GET", queryPath(b.world, q), nil)
		if err != nil || status != http.StatusOK {
			return 0, fmt.Errorf("warm %s(%s): status %d %v", q.kind, b.world.Name(q.x), status, err)
		}
	}
	return time.Since(t0), nil
}

// warmQueries are the queries that build every hot subject's rows: one
// per predicate, each against a vertex the subject holds no direct edge
// to (a direct edge answers without touching the row).
func warmQueries(g *graph.Graph, hot []graph.ID) []query {
	order := zipfOrder(g)
	var out []query
	for _, x := range hot {
		y := graph.None
		for _, v := range order {
			if v != x && g.Combined(x, v).Empty() {
				y = v
				break
			}
		}
		for _, k := range queryKinds {
			out = append(out, query{kind: k, x: x, y: y})
		}
	}
	return out
}

// lateness lists the generator's lateness on operations it was idle for.
func lateness(ss []sample) []time.Duration {
	var out []time.Duration
	for i := range ss {
		if ss[i].late >= 0 {
			out = append(out, ss[i].late)
		}
	}
	return out
}

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// cpuTicks is the host's cumulative CPU time split from /proc/stat.
type cpuTicks struct{ steal, total float64 }

// hostSteal reads the time the hypervisor ran other guests on this
// machine's CPUs: the figures of a run with much steal are suspect.
func hostSteal() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var t cpuTicks
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		t.total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			t.steal = v
		}
	}
	return t
}

func (t cpuTicks) since(t0 cpuTicks) float64 {
	return ratio(t.steal-t0.steal, t.total-t0.total)
}
