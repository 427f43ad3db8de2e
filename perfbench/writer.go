package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"takegrant/internal/graph"
)

// applyRequest is the POST /apply body.
type applyRequest struct {
	Op     string `json:"op"`
	X      string `json:"x"`
	Y      string `json:"y,omitempty"`
	Z      string `json:"z,omitempty"`
	Rights string `json:"rights,omitempty"`
	Name   string `json:"name,omitempty"`
	Kind   string `json:"kind,omitempty"`
}

// Write kinds a workload's write_mix may name.
const (
	writeCreate = "create"  // a hot subject creates an r,w object
	writeGrant  = "grant"   // c grants (r to z) to m
	writeGrantW = "grant-w" // c grants (w to z) to an m that already reads z
	writeRevoke = "revoke"  // m removes the rights a grant gave it
)

// held is an acknowledged grant and the rights it currently gives.
type held struct {
	grantCand
	rights string
}

// pending is one write chosen and in flight.
type pending struct {
	kind string
	req  applyRequest
	body []byte
	h    held
	idx  int
}

// writer chooses each write's vertices from the writes acknowledged so
// far. Writes go out one at a time in schedule order, so the sequence of
// graph states, refusals and counts is a function of the seed. Grants
// draw from world edges the benchmark never removes; revocations only
// take back rights a grant of this run gave, so every write is valid and
// the revision moves by a known amount.
type writer struct {
	g    *graph.Graph
	hot  []graph.ID
	rng  *rand.Rand
	pool []grantCand
	held []held
	seq  int

	acked    int
	refused  int
	revDelta uint64
	created  []string
	byKind   map[string]int
}

func newWriter(g *graph.Graph, hot []graph.ID, seed int64) *writer {
	w := &writer{g: g, hot: hot, rng: rand.New(rand.NewSource(seed ^ 0x5eed)), byKind: map[string]int{}}
	for _, c := range hot {
		w.pool = append(w.pool, candidatesOf(g, c)...)
	}
	return w
}

func (w *writer) next(kind string) pending {
	name := func(id graph.ID) string { return w.g.Name(id) }
	switch {
	case kind == writeGrant && len(w.pool) > 0:
		i := w.rng.Intn(len(w.pool))
		c := w.pool[i]
		w.pool[i] = w.pool[len(w.pool)-1]
		w.pool = w.pool[:len(w.pool)-1]
		return w.encode(pending{kind: kind, h: held{c, "r"},
			req: applyRequest{Op: "grant", X: name(c.c), Y: name(c.m), Z: name(c.z), Rights: "r"}})
	case kind == writeGrantW && len(w.held) > 0:
		i := w.rng.Intn(len(w.held))
		h := w.held[i]
		return w.encode(pending{kind: kind, h: h, idx: i,
			req: applyRequest{Op: "grant", X: name(h.c), Y: name(h.m), Z: name(h.z), Rights: "w"}})
	case kind == writeRevoke && len(w.held) > 0:
		h := w.held[0]
		w.held = w.held[1:]
		return w.encode(pending{kind: kind, h: h,
			req: applyRequest{Op: "remove", X: name(h.m), Y: name(h.z), Rights: h.rights}})
	}
	w.seq++
	x := w.hot[w.rng.Intn(len(w.hot))]
	return w.encode(pending{kind: writeCreate,
		req: applyRequest{Op: "create", X: name(x), Name: fmt.Sprintf("bn%06d", w.seq), Kind: "object", Rights: "r,w"}})
}

func (w *writer) encode(p pending) pending {
	p.body, _ = json.Marshal(p.req) // plain strings; cannot fail
	return p
}

// done books a write's answer. 200 and 403 are verdicts; anything else
// is a failure the caller counts, and the write's grant returns to the
// pool it came from.
func (w *writer) done(p pending, status int) {
	w.byKind[p.kind]++
	switch status {
	case 200:
		w.acked++
		switch p.kind {
		case writeCreate:
			w.revDelta += 2 // the vertex, then its creator's edge
			w.created = append(w.created, p.req.Name)
		case writeGrant:
			w.revDelta++
			w.held = append(w.held, p.h)
		case writeGrantW:
			w.revDelta++
			w.held[p.idx].rights = "r,w"
		case writeRevoke:
			w.revDelta++
			w.pool = append(w.pool, p.h.grantCand)
		}
		return
	case 403:
		w.refused++
	}
	switch p.kind {
	case writeGrant:
		w.pool = append(w.pool, p.h.grantCand)
	case writeRevoke:
		w.held = append([]held{p.h}, w.held...)
	}
}
