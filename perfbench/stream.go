package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"sort"
	"strings"
	"time"

	"takegrant/internal/graph"
)

// Query kinds, as the batch route names them.
const (
	kindShare = "can-share"
	kindKnow  = "can-know"
	kindKnowF = "can-know-f"
)

var queryKinds = []string{kindShare, kindKnow, kindKnowF}

// query is one decision query by vertex ID.
type query struct {
	kind string
	x, y graph.ID
}

// op is one scheduled request. Reads carry their prebuilt request; a
// write carries only its kind, because which vertices it names depends on
// the writes acknowledged before it (see writer).
type op struct {
	due    time.Duration // offset from the phase origin
	write  string        // write kind; "" for reads
	method string
	path   string
	body   []byte
	qs     []query // the read's queries, in request order
}

func (o *op) class() string {
	switch {
	case o.write != "":
		return "write"
	case len(o.qs) > 1:
		return "batch"
	default:
		return "read"
	}
}

// streamGen draws a workload's operations from its seed.
type streamGen struct {
	wl     *Workload
	g      *graph.Graph
	hot    []graph.ID
	order  []graph.ID
	cdf    []float64
	rng    *rand.Rand
	credit map[string]float64
}

func newStreamGen(wl *Workload, g *graph.Graph, hot []graph.ID, seed int64) *streamGen {
	order := zipfOrder(g)
	cdf := make([]float64, len(order))
	total := 0.0
	for i := range order {
		total += 1 / math.Pow(float64(i+1), zipfS)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &streamGen{wl: wl, g: g, hot: hot, order: order, cdf: cdf, rng: rand.New(rand.NewSource(seed))}
}

func (s *streamGen) query() query {
	x := s.hot[s.rng.Intn(len(s.hot))]
	i := sort.SearchFloat64s(s.cdf, s.rng.Float64())
	if i >= len(s.order) {
		i = len(s.order) - 1
	}
	return query{kind: queryKinds[s.rng.Intn(len(queryKinds))], x: x, y: s.order[i]}
}

// phase is one stretch of a run's schedule; due times are offsets from
// its start.
type phase struct {
	reads, writes []op
	length        time.Duration
	timed         bool // part of the measured --seconds
}

// phase draws the reads, and the writes if withWrites, due in [0, d) at
// the workload's fixed rates. Arrivals are evenly spaced: the offered
// load is exactly the rate, and the latency tail comes from the server,
// not from arrival bursts.
func (s *streamGen) phase(d time.Duration, withWrites, timed bool) phase {
	p := phase{length: d, timed: timed}
	if r := s.wl.ReadRate; r > 0 {
		gap := time.Duration(float64(time.Second) / r)
		for t := time.Duration(0); t < d; t += gap {
			p.reads = append(p.reads, s.read(t))
		}
	}
	if r := s.wl.WriteRate; r > 0 && withWrites {
		gap := time.Duration(float64(time.Second) / r)
		// Writes sit half a gap off the read grid's phase so the first
		// write does not coincide with the first read.
		for t := gap / 2; t < d; t += gap {
			p.writes = append(p.writes, op{due: t, write: s.writeKind()})
		}
	}
	return p
}

// schedule is a run's phases, in the order they run: reads alone
// (warm-up, then the timed read window), then reads and writes (warm-up,
// then the timed churn window). The timed windows take a third and two
// thirds of the measured seconds.
type schedule struct {
	readWarm, readWindow, churnWarm, churnWindow phase
}

func newSchedule(gen *streamGen, warm, measured time.Duration) schedule {
	var s schedule
	s.readWarm = gen.phase(warm, false, false)
	s.readWindow = gen.phase(measured/3, false, true)
	s.churnWarm = gen.phase(warm, true, false)
	s.churnWindow = gen.phase(measured-measured/3, true, true)
	return s
}

// chunks splits p by due time into n consecutive phases of equal
// length, each with due times from its own start.
func (p phase) chunks(n int) []phase {
	out := make([]phase, n)
	size := p.length / time.Duration(n)
	for i := range out {
		out[i] = phase{length: size, timed: p.timed}
	}
	out[n-1].length = p.length - size*time.Duration(n-1)
	put := func(o op, add func(c *phase, o op)) {
		i := int(o.due / size)
		if i >= n {
			i = n - 1
		}
		o.due -= size * time.Duration(i)
		add(&out[i], o)
	}
	for _, o := range p.reads {
		put(o, func(c *phase, o op) { c.reads = append(c.reads, o) })
	}
	for _, o := range p.writes {
		put(o, func(c *phase, o op) { c.writes = append(c.writes, o) })
	}
	return out
}

func (s *schedule) phases() []phase {
	return []phase{s.readWarm, s.readWindow, s.churnWarm, s.churnWindow}
}

func (s *streamGen) read(due time.Duration) op {
	if s.rng.Float64() < batchShare {
		items := make([]batchItem, 0, batchItems)
		qs := make([]query, 0, batchItems)
		seen := make(map[query]bool, batchItems)
		for len(qs) < batchItems {
			// Distinct items only: two identical items in one batch would
			// race for the same cache slot, and the traced run's counts
			// must repeat exactly.
			q := s.query()
			if seen[q] {
				continue
			}
			seen[q] = true
			qs = append(qs, q)
			it := batchItem{Kind: q.kind, X: s.g.Name(q.x), Y: s.g.Name(q.y)}
			if q.kind == kindShare {
				it.Right = "r"
			}
			items = append(items, it)
		}
		body, _ := json.Marshal(items) // plain strings; cannot fail
		return op{due: due, method: "POST", path: "/query/batch", body: body, qs: qs}
	}
	q := s.query()
	return op{due: due, method: "GET", path: queryPath(s.g, q), qs: []query{q}}
}

// writeKind deals write kinds in proportion to write_mix by smooth
// weighted round robin: every stretch of writes carries the mix's shares
// exactly, so the cost mix of a window does not vary with the seed. The
// seed picks each write's vertices (see writer).
func (s *streamGen) writeKind() string {
	if s.credit == nil {
		s.credit = map[string]float64{}
	}
	var kinds []string
	for k := range s.wl.WriteMix {
		kinds = append(kinds, k)
	}
	// Sum in a fixed order: float addition is not associative, and a
	// total that differs in its last bit breaks credit ties differently.
	sort.Strings(kinds)
	total := 0.0
	for _, k := range kinds {
		total += s.wl.WriteMix[k]
	}
	best := ""
	for _, k := range kinds {
		s.credit[k] += s.wl.WriteMix[k]
		if best == "" || s.credit[k] > s.credit[best] {
			best = k
		}
	}
	s.credit[best] -= total
	return best
}

type batchItem struct {
	Kind  string `json:"kind"`
	Right string `json:"right,omitempty"`
	X     string `json:"x"`
	Y     string `json:"y"`
}

func queryPath(g *graph.Graph, q query) string {
	x, y := url.QueryEscape(g.Name(q.x)), url.QueryEscape(g.Name(q.y))
	switch q.kind {
	case kindShare:
		return "/query/can-share?right=r&x=" + x + "&y=" + y
	case kindKnow:
		return "/query/can-know?x=" + x + "&y=" + y
	default:
		return "/query/can-know?defacto=1&x=" + x + "&y=" + y
	}
}

// verdictOf parses a single-query response body.
func verdictOf(kind string, body []byte) (bool, error) {
	var m map[string]bool
	if err := json.Unmarshal(body, &m); err != nil {
		return false, err
	}
	key := map[string]string{kindShare: "can_share", kindKnow: "can_know", kindKnowF: "can_know_f"}[kind]
	v, ok := m[key]
	if !ok {
		return false, fmt.Errorf("no %s in %s", key, strings.TrimSpace(string(body)))
	}
	return v, nil
}

// batchVerdicts parses a batch response body.
func batchVerdicts(body []byte, n int) ([]bool, error) {
	var resp struct {
		Results []struct {
			Status  int   `json:"status"`
			Verdict *bool `json:"verdict"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	if len(resp.Results) != n {
		return nil, fmt.Errorf("batch returned %d results for %d items", len(resp.Results), n)
	}
	out := make([]bool, n)
	for i, r := range resp.Results {
		if r.Status != 200 || r.Verdict == nil {
			return nil, fmt.Errorf("batch item %d: status %d", i, r.Status)
		}
		out[i] = *r.Verdict
	}
	return out, nil
}
