package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"

	"takegrant/internal/graph"
	"takegrant/internal/rights"
	"takegrant/internal/simulate"
	"takegrant/internal/tgio"
)

// loadWorld returns the .tgb bytes of a pinned world and the benchmark's
// own decoded copy. The bytes are generated once per (scenario, n, seed)
// into cacheDir and checked against the recorded SHA-256 on every use: a
// generator change that alters the world refuses to run instead of
// silently measuring a different input.
func loadWorld(cacheDir string, w World) ([]byte, *graph.Graph, error) {
	path := filepath.Join(cacheDir, fmt.Sprintf("%s-%d-%d.tgb", w.Scenario, w.Vertices, w.Seed))
	data, err := os.ReadFile(path)
	if err != nil {
		if data, err = generateWorld(w); err != nil {
			return nil, nil, err
		}
		if err := writeFileAtomic(path, data); err != nil {
			return nil, nil, err
		}
	}
	g, err := tgio.DecodeBinary(bufio.NewReader(bytes.NewReader(data)))
	if err != nil {
		return nil, nil, fmt.Errorf("decode world: %w", err)
	}
	// The pin is on the world's .tg text, not its .tgb bytes: the binary
	// label table follows the order in which the parallel snapshot build
	// interned the labels, so two encodings of one graph can differ.
	sum := sha256.Sum256([]byte(tgio.WriteString(g)))
	if got := hex.EncodeToString(sum[:]); got != w.SHA256 {
		return nil, nil, fmt.Errorf("world %s n=%d seed=%d has sha256 %s, workloads.json pins %s",
			w.Scenario, w.Vertices, w.Seed, got, w.SHA256)
	}
	return data, g, nil
}

func generateWorld(w World) ([]byte, error) {
	g, err := simulate.GenerateScenario(simulate.Scenario(w.Scenario), w.Vertices, w.Seed)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := tgio.EncodeBinary(&buf, g); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func writeFileAtomic(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// grantCand is a grant the world supports: actor c holds g over m and an
// explicit r,w over z, and m holds nothing over z yet.
type grantCand struct{ c, m, z graph.ID }

// hotSet picks the workload's fixed hot subjects: n subjects of one
// tg-island, starting with an actor that can make every write kind (it
// holds g over another subject and r,w over an object). Subjects of one
// island share their know closure's span row, so a write that drops the
// know rows costs one span rebuild plus n per-subject rows: the cold work
// per write is fixed by the world, not by the seed. The set depends only
// on the world.
func hotSet(g *graph.Graph, n int) ([]graph.ID, error) {
	var eligible []graph.ID
	for _, s := range g.Subjects() {
		if len(candidatesOf(g, s)) > 0 {
			eligible = append(eligible, s)
		}
	}
	islands := g.TGIslands()
	// Search from the middle of the ID range, away from the generators'
	// first and last blocks.
	for i := range eligible {
		anchor := eligible[(len(eligible)/2+i)%len(eligible)]
		hot := []graph.ID{anchor}
		for _, s := range g.Subjects() {
			if len(hot) < n && s != anchor && islands.Same(s, anchor) {
				hot = append(hot, s)
			}
		}
		if len(hot) == n {
			return hot, nil
		}
	}
	return nil, fmt.Errorf("world has no tg-island of %d subjects around an eligible actor", n)
}

// candidatesOf lists the grants actor c can make in the world as given.
func candidatesOf(g *graph.Graph, c graph.ID) []grantCand {
	var members, docs []graph.ID
	for _, h := range g.Out(c) {
		if h.Explicit.Has(rights.Grant) && g.IsSubject(h.Other) {
			members = append(members, h.Other)
		}
		if h.Explicit.HasAll(rights.RW) && g.IsObject(h.Other) {
			docs = append(docs, h.Other)
		}
	}
	var out []grantCand
	for _, m := range members {
		for _, z := range docs {
			if g.Combined(m, z).Empty() {
				out = append(out, grantCand{c, m, z})
			}
		}
	}
	return out
}

// zipfOrder is the fixed popularity order of query objects: every live
// vertex, in a permutation derived from the world alone so that each
// seed draws from the same popularity ranking.
func zipfOrder(g *graph.Graph) []graph.ID {
	vs := g.Vertices()
	out := make([]graph.ID, len(vs))
	// A multiplicative stride coprime to len spreads the popular ranks
	// over subjects and objects alike.
	stride := 7919
	for gcd(stride, len(vs)) != 1 {
		stride += 2
	}
	for i := range vs {
		out[i] = vs[(i*stride)%len(vs)]
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
