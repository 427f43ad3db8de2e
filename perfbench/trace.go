package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"takegrant/internal/analysis"
	"takegrant/internal/budget"
	"takegrant/internal/graph"
	"takegrant/internal/hierarchy"
	"takegrant/internal/journal"
	"takegrant/internal/restrict"
	"takegrant/internal/rights"
	"takegrant/internal/rules"
	"takegrant/internal/service"
	"takegrant/internal/tgio"
)

// span is one timed call into a layer. Spans of one operation share op;
// parent indexes the span that made the call (-1 for an operation's
// root). Times are offsets from the tracer's origin.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	origin time.Time
	spans  []span
	op     int
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.origin), Parent: parent, Op: t.op})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) time.Duration {
	t.spans[i].End = time.Since(t.origin)
	return t.spans[i].End - t.spans[i].Start
}

// self is a span's duration minus the time its child spans cover.
func (t *tracer) self(i int) time.Duration {
	d := t.spans[i].End - t.spans[i].Start
	for j := i + 1; j < len(t.spans) && t.spans[j].Op == t.spans[i].Op; j++ {
		if t.spans[j].Parent == i {
			d -= t.spans[j].End - t.spans[j].Start
		}
	}
	return d
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// inproc sends requests straight into a service handler.
type inproc struct{ h http.Handler }

func (c inproc) do(method, path string, body []byte) (int, []byte, error) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	c.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes(), nil
}

// replica is the benchmark's own copy of the protection system, built
// from the paper-level layer APIs alone (tgio, graph, analysis.ReachIndex,
// hierarchy.Engine, restrict.Guarded, journal) and wired the way the
// service wires them: the guard applies, every graph change is
// dispatched to the closure index and the hierarchy engine, the engine
// re-arms the guard, the journal appends and snapshots. Timing calls
// into it attributes an operation's cost to layers without reaching
// into the service's internals.
type replica struct {
	g         *graph.Graph
	eng       *hierarchy.Engine
	comb      *restrict.Combined
	guard     *restrict.Guarded
	reach     *analysis.ReachIndex
	jr        *journal.Journal
	walPath   string
	snapEvery int
	tr        *tracer
	applySpan int // the restrict.apply span dispatches nest under
	// wholesale is set when a change invalidated the hierarchy engine:
	// its next Rearm re-derives the structure from the CSR snapshot.
	wholesale bool
	// snapRev is the revision of the last CSR snapshot the replica built.
	snapRev uint64
}

func newReplica(data []byte, dir string, snapEvery int, tr *tracer) (*replica, error) {
	sp := tr.begin("tgio.decode", -1)
	g, err := tgio.DecodeBinary(bufio.NewReader(bytes.NewReader(data)))
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("decode world: %w", err)
	}
	r := &replica{g: g, snapEvery: snapEvery, tr: tr, applySpan: -1, walPath: filepath.Join(dir, "wal.log")}
	r.eng = hierarchy.NewEngine(g, 0)
	r.comb = restrict.NewCombined(r.eng.Structure())
	r.guard = restrict.NewGuarded(g, r.comb)
	r.reach = analysis.NewReachIndex(g)
	g.Snapshot()
	r.snapRev = g.Revision()
	g.SetRecorder(r.dispatch)
	if r.jr, _, _, err = journal.Open(dir); err != nil {
		return nil, err
	}
	return r, nil
}

// dispatch feeds one graph change to every derived index: each patches
// itself or is invalidated.
func (r *replica) dispatch(c graph.Change) {
	sp := r.tr.begin("derived.dispatch", r.applySpan)
	if !r.reach.Patch(c) {
		r.reach.Invalidate()
	}
	if !r.eng.Patch(c) {
		r.eng.Invalidate()
		r.wholesale = true
	}
	r.tr.end(sp)
}

// snapshot builds the CSR snapshot, as a child span of parent, if a
// write has made it stale. The graph builds it lazily, on the first
// call that reads it after a write: a full hierarchy re-derivation, a
// can-share verdict or a closure row build. The replica calls it at
// those points, so its cost is charged where the program pays it.
func (r *replica) snapshot(parent int) {
	if r.snapRev == r.g.Revision() {
		return
	}
	sp := r.tr.begin("graph.snapshot", parent)
	r.g.Snapshot()
	r.tr.end(sp)
	r.snapRev = r.g.Revision()
}

// answer is one replica verdict and what it cost.
type answer struct {
	ok      bool
	warm    bool          // a bit-test answer from a row already built
	visited int64         // product states a row build searched
	took    time.Duration // the analysis.query span, children included
}

// query answers one decision query from the closure index.
func (r *replica) query(q query, parent int) (answer, error) {
	// World IDs are the replica's too: both decode the same bytes, and
	// writes only add vertices after them.
	x, y := q.x, q.y
	b := budget.New(context.Background(), 0, 0)
	sp := r.tr.begin("analysis.query", parent)
	// Every successful write in these workloads drops the know and knowf
	// rows, and can-share reads the snapshot on every call that an
	// explicit edge does not answer: the first query after a write needs
	// the CSR.
	rt, _ := r.g.Universe().Lookup("r")
	if x != y && !(q.kind == kindShare && r.g.Explicit(x, y).Has(rt)) {
		r.snapshot(sp)
	}
	var a answer
	var err error
	switch q.kind {
	case kindShare:
		a.ok, a.warm, err = r.reach.CanShare(rt, x, y, nil, b)
	case kindKnow:
		a.ok, a.warm, err = r.reach.CanKnow(x, y, nil, b)
	default:
		a.ok, a.warm, err = r.reach.CanKnowF(x, y, nil, b)
	}
	a.took = r.tr.end(sp)
	a.visited = b.Visited()
	return a, err
}

// writeOutcome is one replica write's layer costs.
type writeOutcome struct {
	status int
	bytes  int64
}

// apply runs one write through guard, hierarchy and journal.
func (r *replica) apply(req applyRequest, parent int) (writeOutcome, error) {
	app, err := r.build(req)
	if err != nil {
		return writeOutcome{}, err
	}
	r.applySpan = r.tr.begin("restrict.apply", parent)
	err = r.guard.Apply(app)
	r.tr.end(r.applySpan)
	r.applySpan = -1
	if errors.Is(err, restrict.ErrRefused) {
		return writeOutcome{status: http.StatusForbidden}, nil
	}
	if err != nil {
		return writeOutcome{status: http.StatusUnprocessableEntity}, nil
	}
	sp := r.tr.begin("hierarchy.rearm", parent)
	if r.wholesale {
		r.snapshot(sp)
		r.wholesale = false
	}
	r.comb.Rebase(r.eng.Rearm(nil))
	r.tr.end(sp)
	before := fileSize(r.walPath)
	sp = r.tr.begin("journal.append", parent)
	_, err = r.jr.Append("apply", req)
	r.tr.end(sp)
	if err != nil {
		return writeOutcome{}, err
	}
	out := writeOutcome{status: http.StatusOK, bytes: fileSize(r.walPath) - before}
	if r.jr.Stats().WalRecords >= uint64(r.snapEvery) {
		sp = r.tr.begin("journal.snapshot", parent)
		err = r.jr.WriteSnapshot(journal.Meta{Revision: r.g.Revision()}, tgio.WriteString(r.g))
		r.tr.end(sp)
	}
	return out, err
}

func (r *replica) build(req applyRequest) (rules.Application, error) {
	set, err := rights.Parse(r.g.Universe(), req.Rights)
	if err != nil {
		return rules.Application{}, err
	}
	id := func(name string) graph.ID {
		v, _ := r.g.Lookup(name)
		return v
	}
	switch req.Op {
	case "create":
		return rules.Create(id(req.X), req.Name, graph.Object, set), nil
	case "grant":
		return rules.Grant(id(req.X), id(req.Y), id(req.Z), set), nil
	case "remove":
		return rules.Remove(id(req.X), id(req.Y), set), nil
	}
	return rules.Application{}, fmt.Errorf("replica: unknown op %q", req.Op)
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// traced replays the workload's schedule (see newSchedule) in-process
// on one goroutine, paced at the same due times: each operation goes
// through the service's own handler (a service.Server built by its
// constructor with the tgserve flags) and then through the replica.
// Layer times come from the replica's spans; counts come from the
// in-process service's /stats over the timed windows, not from the
// untraced run's tgserve, and repeat exactly for a seed.
func (b *bench) traced(rep *report) error {
	tr := &tracer{origin: time.Now()}
	// One batch worker: batch items then run in request order and the
	// window's counts do not depend on goroutine scheduling.
	srv := service.NewWith(service.Config{SnapshotEvery: b.cfg.SnapshotEvery, BatchWorkers: 1})
	if _, err := srv.AttachJournal(filepath.Join(b.runDir, "service")); err != nil {
		return err
	}
	defer srv.Close()
	svc := inproc{h: srv.Handler()}

	tr.op = -1
	sp := tr.begin("service.install", -1)
	req := httptest.NewRequest("PUT", "/graph", bytes.NewReader(b.data))
	req.Header.Set("Content-Type", tgio.BinaryContentType)
	rec := httptest.NewRecorder()
	svc.h.ServeHTTP(rec, req)
	install := tr.end(sp)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("in-process PUT /graph: %d %s", rec.Code, rec.Body.String())
	}
	rp, err := newReplica(b.data, filepath.Join(b.runDir, "replica"), b.cfg.SnapshotEvery, tr)
	if err != nil {
		return err
	}
	defer rp.jr.Close()
	decode := tr.spans[len(tr.spans)-1].End - tr.spans[len(tr.spans)-1].Start
	for _, q := range warmQueries(b.world, b.hot) {
		if status, _, _ := svc.do("GET", queryPath(b.world, q), nil); status != http.StatusOK {
			return fmt.Errorf("in-process warm %s: %d", q.kind, status)
		}
		if _, err := rp.query(q, -1); err != nil {
			return err
		}
	}

	gen := newStreamGen(b.wl, b.world, b.hot, b.seed)
	wr := newWriter(b.world, b.hot, b.seed)
	sch := newSchedule(gen, time.Duration(b.cfg.WarmupSeconds*float64(time.Second)), time.Duration(b.seconds)*time.Second)
	lay := &layers{}
	counts := map[string]float64{}
	for _, ph := range sch.phases() {
		rep.Attempted += len(ph.reads) + len(ph.writes)
		if !ph.timed {
			if err := b.replay(rep, tr, svc, rp, wr, merge(ph.reads, ph.writes), nil); err != nil {
				return err
			}
			continue
		}
		var before, after statsView
		if err := getJSON(svc, "/stats", &before); err != nil {
			return err
		}
		from := len(tr.spans)
		if err := b.replay(rep, tr, svc, rp, wr, merge(ph.reads, ph.writes), lay); err != nil {
			return err
		}
		if err := getJSON(svc, "/stats", &after); err != nil {
			return err
		}
		lay.collect(tr, from)
		for k, v := range statsDelta(before, after) {
			counts[k] += v
		}
	}
	lay.warmNs = b.warmNs(rp)
	lay.report(rep, counts, install, decode)
	return tr.write(filepath.Join(b.traceDir, fmt.Sprintf("%s-seed%d.jsonl", b.wl.Name, b.seed)))
}

// merge orders reads and writes by due time; a write due at the same
// instant as a read goes first.
func merge(reads, writes []op) []op {
	out := make([]op, 0, len(reads)+len(writes))
	out = append(append(out, writes...), reads...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

// replay runs one phase's operations through the service and the
// replica, checking that they agree. lay, when non-nil, collects the
// per-operation measurements of the timed window.
func (b *bench) replay(rep *report, tr *tracer, svc inproc, rp *replica, wr *writer, ops []op, lay *layers) error {
	origin := time.Now()
	for i := range ops {
		o := &ops[i]
		idle := pace(origin, o.due)
		if lay != nil && idle {
			lay.late = append(lay.late, time.Since(origin)-o.due)
		}
		tr.op++
		root := tr.begin("op."+o.class(), -1)
		if o.write != "" {
			p := wr.next(o.write)
			sp := tr.begin("service.http", root)
			status, _, _ := svc.do("POST", "/apply", p.body)
			tr.end(sp)
			wr.done(p, status)
			out, err := rp.apply(p.req, root)
			if err != nil {
				return err
			}
			if out.status != status {
				rep.fail("%s %s: service answered %d, replica %d", p.kind, p.body, status, out.status)
			}
			if status != http.StatusOK && status != http.StatusForbidden {
				rep.Failed++
			}
			if lay != nil && out.status == http.StatusOK {
				lay.walBytes += out.bytes
				lay.appends++
			}
			tr.end(root)
			continue
		}
		sp := tr.begin("service.http", root)
		status, body, _ := svc.do(o.method, o.path, o.body)
		svcTime := tr.end(sp)
		if status != http.StatusOK {
			rep.Failed++
			tr.end(root)
			continue
		}
		got, err := verdicts(o, body)
		if err != nil {
			return err
		}
		var direct time.Duration
		for j, q := range o.qs {
			a, err := rp.query(q, root)
			if err != nil {
				return err
			}
			direct += a.took
			if a.ok != got[j] {
				rep.fail("%s(%s,%s): service says %v, replica %v", q.kind, rp.g.Name(q.x), rp.g.Name(q.y), got[j], a.ok)
			}
			if lay != nil && !a.warm {
				lay.builds = append(lay.builds, a.took)
				lay.visited += a.visited
			}
		}
		if lay != nil {
			if len(o.qs) == 1 {
				lay.read = append(lay.read, svcTime)
				lay.envelope = append(lay.envelope, svcTime-direct)
			} else {
				lay.item = append(lay.item, svcTime/time.Duration(len(o.qs)))
			}
		}
		tr.end(root)
	}
	return nil
}

// warmNs times warm verdicts on the replica in batches long enough to
// sit far above the clock's resolution, and returns each batch's time
// per verdict.
func (b *bench) warmNs(rp *replica) []time.Duration {
	const calls = 4096
	order := zipfOrder(rp.g)
	var out []time.Duration
	for _, x := range b.hot {
		for _, kind := range queryKinds {
			q := query{kind: kind, x: x}
			q.y = order[0]
			rp.query(q, -1) // rebuild the row if a write dropped it
			bud := (*budget.Budget)(nil)
			t0 := time.Now()
			for i := 0; i < calls; i++ {
				y := order[i%len(order)]
				switch kind {
				case kindShare:
					rp.reach.CanShare(rights.Read, x, y, nil, bud)
				case kindKnow:
					rp.reach.CanKnow(x, y, nil, bud)
				default:
					rp.reach.CanKnowF(x, y, nil, bud)
				}
			}
			out = append(out, time.Since(t0)/calls)
		}
	}
	return out
}

// layers gathers the traced window's per-layer measurements.
type layers struct {
	read, envelope, item, builds, late []time.Duration
	warmNs                             []time.Duration
	visited                            int64
	walBytes                           int64
	appends                            int
	apply, dispatch, snapshot, rearm   []time.Duration
	appendT                            []time.Duration
}

// collect reads the write-path layer times off the window's spans.
func (l *layers) collect(tr *tracer, from int) {
	for i := from; i < len(tr.spans); i++ {
		s := &tr.spans[i]
		d := s.End - s.Start
		switch s.Name {
		case "restrict.apply":
			l.apply = append(l.apply, tr.self(i))
		case "derived.dispatch":
			l.dispatch = append(l.dispatch, d)
		case "graph.snapshot":
			l.snapshot = append(l.snapshot, d)
		case "hierarchy.rearm":
			l.rearm = append(l.rearm, d)
		case "journal.append":
			l.appendT = append(l.appendT, d)
		}
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (l *layers) report(rep *report, c map[string]float64, install, decode time.Duration) {
	rep.set("service.read_us_p50", "us", us(quantile(l.read, 0.50)), len(l.read))
	rep.set("service.read_us_p99", "us", us(quantile(l.read, 0.99)), len(l.read))
	rep.set("service.envelope_us_p50", "us", us(quantile(l.envelope, 0.50)), len(l.envelope))
	rep.set("batch.item_us_p50", "us", us(quantile(l.item, 0.50)), len(l.item))
	rep.set("qcache.hits", "count", c["qcache.hits"], 1)
	rep.set("qcache.misses", "count", c["qcache.misses"], 1)
	rep.set("qcache.hit_ratio", "ratio", ratio(c["qcache.hits"], c["qcache.hits"]+c["qcache.misses"]), 1)
	rep.set("analysis.row_builds", "count", c["analysis.row_builds"], 1)
	rep.set("analysis.row_build_ms_p50", "ms", ms(quantile(l.builds, 0.50)), len(l.builds))
	rep.set("analysis.row_build_ms_p99", "ms", ms(quantile(l.builds, 0.99)), len(l.builds))
	rep.set("analysis.closure_ratio", "ratio", ratio(c["fastpath.closure"], c["fastpath.closure"]+c["fastpath.search"]), 1)
	rep.set("relang.visited_per_build", "count", ratio(float64(l.visited), float64(len(l.builds))), len(l.builds))
	rep.set("analysis.warm_ns_p50", "ns", float64(quantile(l.warmNs, 0.50)), len(l.warmNs))
	rep.set("graph.snapshot_builds", "count", c["graph.snapshot_builds"], 1)
	rep.set("graph.snapshot_build_ms", "ms", ms(quantile(l.snapshot, 0.50)), len(l.snapshot))
	rep.set("derived.dispatch_us_p50", "us", us(quantile(l.dispatch, 0.50)), len(l.dispatch))
	rep.set("derived.invalidates", "count", c["derived.invalidates"], 1)
	rep.set("hierarchy.rearm_ms_p50", "ms", ms(quantile(l.rearm, 0.50)), len(l.rearm))
	rep.set("hierarchy.rearm_ms_p99", "ms", ms(quantile(l.rearm, 0.99)), len(l.rearm))
	rep.set("hierarchy.patches", "count", c["hierarchy.patches"], 1)
	rep.set("hierarchy.rebuilds", "count", c["hierarchy.rebuilds"], 1)
	rep.set("restrict.apply_us_p50", "us", us(quantile(l.apply, 0.50)), len(l.apply))
	rep.set("restrict.refused_ratio", "ratio", ratio(c["guard.refused"], c["guard.refused"]+c["guard.applied"]), 1)
	rep.set("journal.append_ms_p50", "ms", ms(quantile(l.appendT, 0.50)), len(l.appendT))
	rep.set("journal.append_ms_p99", "ms", ms(quantile(l.appendT, 0.99)), len(l.appendT))
	rep.set("journal.bytes_per_write", "B", ratio(float64(l.walBytes), float64(l.appends)), l.appends)
	rep.set("journal.snapshots", "count", c["journal.snapshots"], 1)
	rep.set("tgio.decode_ms", "ms", ms(decode), 1)
	rep.set("service.install_ms", "ms", ms(install), 1)
	rep.set("client.gen_late_ms_p99", "ms", ms(quantile(l.late, 0.99)), len(l.late))
}
