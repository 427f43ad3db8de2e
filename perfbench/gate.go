package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"net/http"

	"takegrant/internal/analysis"
	"takegrant/internal/graph"
	"takegrant/internal/tgio"
)

// oracle answers a query with the search-based decision procedures of
// internal/analysis: no closure rows, no caches.
func oracle(g *graph.Graph, q query) bool {
	switch q.kind {
	case kindShare:
		r, _ := g.Universe().Lookup("r") // a base right: always declared
		return analysis.CanShare(g, r, q.x, q.y)
	case kindKnow:
		return analysis.CanKnow(g, q.x, q.y)
	default:
		return analysis.CanKnowF(g, q.x, q.y)
	}
}

// gateEndToEnd checks the untraced run's answers:
//   - the journal appended exactly one record per acknowledged write and
//     the revision moved by exactly what those writes add;
//   - the final graph holds every acknowledged create;
//   - fresh sampled verdicts on the final graph equal the oracle's.
func (b *bench) gateEndToEnd(rep *report, c *httpConn, wr *writer, start, end statsView) {
	d := statsDelta(start, end)
	if got := d["journal.appended"]; got != float64(wr.acked) {
		rep.fail("journal appended %v records, %d writes were acknowledged", got, wr.acked)
	}
	if got := d["revision"]; got != float64(wr.revDelta) {
		rep.fail("revision moved by %v, acknowledged writes add %d", got, wr.revDelta)
	}

	status, body, err := c.do("GET", "/graph?format=tgb", nil)
	if err != nil || status != http.StatusOK {
		rep.fail("GET /graph?format=tgb: status %d %v", status, err)
		return
	}
	final, err := tgio.DecodeBinary(bufio.NewReader(bytes.NewReader(body)))
	if err != nil {
		rep.fail("decode final graph: %v", err)
		return
	}
	for _, name := range wr.created {
		if v, ok := final.Lookup(name); !ok || !final.IsObject(v) {
			rep.fail("acknowledged create %q is missing from the final graph", name)
		}
	}

	rng := rand.New(rand.NewSource(b.seed ^ 0x0dac1e))
	order := zipfOrder(final)
	n := oracleSamples
	for i := 0; i < n; i++ {
		x, _ := final.Lookup(b.world.Name(b.hot[rng.Intn(len(b.hot))]))
		q := query{kind: queryKinds[rng.Intn(len(queryKinds))], x: x, y: order[rng.Intn(len(order))]}
		status, body, err := c.do("GET", queryPath(final, q), nil)
		if err != nil || status != http.StatusOK {
			rep.fail("final %s: status %d %v", queryPath(final, q), status, err)
			continue
		}
		got, err := verdictOf(q.kind, body)
		if err != nil {
			rep.fail("final %s: %v", queryPath(final, q), err)
			continue
		}
		if want := oracle(final, q); got != want {
			rep.fail("final %s(%s,%s) = %v, oracle says %v", q.kind, final.Name(q.x), final.Name(q.y), got, want)
		}
	}
	rep.notes = append(rep.notes, fmt.Sprintf("gate: %d creates present, %d final verdicts checked, journal +%d, revision +%d",
		len(wr.created), n, wr.acked, wr.revDelta))
}

// verdicts parses a read's answer.
func verdicts(o *op, body []byte) ([]bool, error) {
	if len(o.qs) == 1 && o.method == "GET" {
		v, err := verdictOf(o.qs[0].kind, body)
		return []bool{v}, err
	}
	return batchVerdicts(body, len(o.qs))
}
