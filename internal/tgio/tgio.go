// Package tgio reads and writes protection graphs.
//
// The ".tg" text format is line-oriented:
//
//	# comment                      (also after '#' anywhere on a line)
//	right e                        declare an extra right
//	subject alice                  declare a subject vertex
//	object report                  declare an object vertex
//	edge alice report r,w          explicit edge with a rights list
//	implicit alice report r        implicit edge
//
// Vertices must be declared before edges mention them. Writing a graph
// produces a canonical file (sorted declarations) that parses back to an
// Equal graph. The package also exports Graphviz DOT (explicit edges
// solid, implicit dashed, subjects as filled circles, objects hollow) and
// a plain-text rendering for terminals.
package tgio

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strings"

	"takegrant/internal/graph"
	"takegrant/internal/rights"
)

// maxLineBytes bounds a single .tg line. Generated worlds can carry wide
// rights lists and long vertex names; the default bufio.Scanner cap
// (64KiB) fails them with a bare "token too long".
const maxLineBytes = 16 << 20

// ParseError reports a .tg parse failure with the 1-based line it
// occurred on. Parse returns it for any malformed directive; scanner-level
// failures (for example a line over maxLineBytes) carry the line the
// scanner stopped at.
type ParseError struct {
	Line int
	Err  error
}

func (e *ParseError) Error() string { return fmt.Sprintf("tgio: line %d: %v", e.Line, e.Err) }

func (e *ParseError) Unwrap() error { return e.Err }

// Parse reads a .tg document into a fresh graph. Malformed input returns
// a *ParseError carrying the offending line number.
func Parse(r io.Reader) (*graph.Graph, error) {
	g := graph.New(nil)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), maxLineBytes)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if err := parseLine(g, fields); err != nil {
			return nil, &ParseError{Line: lineNo, Err: err}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, &ParseError{Line: lineNo + 1, Err: err}
	}
	return g, nil
}

// ParseString is Parse over a string.
func ParseString(s string) (*graph.Graph, error) {
	return Parse(strings.NewReader(s))
}

func parseLine(g *graph.Graph, fields []string) error {
	switch fields[0] {
	case "right":
		if len(fields) != 2 {
			return fmt.Errorf("right takes one name")
		}
		_, err := g.Universe().Declare(fields[1])
		return err
	case "subject":
		if len(fields) != 2 {
			return fmt.Errorf("subject takes one name")
		}
		_, err := g.AddSubject(fields[1])
		return err
	case "object":
		if len(fields) != 2 {
			return fmt.Errorf("object takes one name")
		}
		_, err := g.AddObject(fields[1])
		return err
	case "edge", "implicit":
		if len(fields) != 4 {
			return fmt.Errorf("%s takes src dst rights", fields[0])
		}
		src, ok := g.Lookup(fields[1])
		if !ok {
			return fmt.Errorf("unknown vertex %q", fields[1])
		}
		dst, ok := g.Lookup(fields[2])
		if !ok {
			return fmt.Errorf("unknown vertex %q", fields[2])
		}
		set, err := rights.Parse(g.Universe(), fields[3])
		if err != nil {
			return err
		}
		if set.Empty() {
			return fmt.Errorf("empty rights list")
		}
		if fields[0] == "edge" {
			return g.AddExplicit(src, dst, set)
		}
		return g.AddImplicit(src, dst, set)
	default:
		return fmt.Errorf("unknown directive %q", fields[0])
	}
}

// Write emits the graph in canonical .tg form: extra rights in
// declaration order, then vertices, explicit edges and implicit edges,
// each sorted by vertex name. It runs on every journal snapshot and GET
// /graph, so it ranks the names once and sorts edges by rank instead of
// building and comparing per-edge name strings, formats each distinct
// label once, and appends into one buffer.
func Write(w io.Writer, g *graph.Graph) error {
	u := g.Universe()
	s := g.Snapshot()
	type named struct {
		name string
		id   graph.ID
	}
	order := make([]named, 0, g.NumVertices())
	for v := 0; v < s.Cap(); v++ {
		if s.Live(graph.ID(v)) {
			order = append(order, named{g.Name(graph.ID(v)), graph.ID(v)})
		}
	}
	slices.SortFunc(order, func(a, b named) int { return strings.Compare(a.name, b.name) })
	rank := make([]int32, s.Cap())
	size := 0
	for i, n := range order {
		rank[n.id] = int32(i)
		size += len(n.name) + len("subject \n")
	}

	// Every edge in (source rank, destination rank) order.
	type edgeRef struct {
		dst graph.ID
		lbl uint32
	}
	edges := make([]edgeRef, 0, s.NumEdges())
	for _, n := range order {
		dst, lbl := s.Out(n.id)
		from := len(edges)
		for j, d := range dst {
			edges = append(edges, edgeRef{d, lbl[j]})
		}
		slices.SortFunc(edges[from:], func(a, b edgeRef) int { return int(rank[a.dst]) - int(rank[b.dst]) })
	}
	size += len(edges) * 24

	// Each distinct label formatted once per side.
	formatted := make([][2]string, s.NumLabels())
	format := func(li uint32, implicit bool) string {
		side, set := 0, s.Label(li).Explicit
		if implicit {
			side, set = 1, s.Label(li).Implicit
		}
		if formatted[li][side] == "" {
			formatted[li][side] = set.Format(u)
		}
		return formatted[li][side]
	}

	b := make([]byte, 0, size)
	// Extra rights beyond the builtin four, in declaration order.
	for _, r := range u.All()[4:] {
		b = append(append(append(b, "right "...), u.Name(r)...), '\n')
	}
	for _, n := range order {
		b = append(b, g.KindOf(n.id).String()...)
		b = append(append(append(b, ' '), n.name...), '\n')
	}
	for _, implicit := range []bool{false, true} {
		directive := "edge "
		if implicit {
			directive = "implicit "
		}
		next := 0
		for _, n := range order {
			dst, _ := s.Out(n.id)
			for _, e := range edges[next : next+len(dst)] {
				l := s.Label(e.lbl)
				if (implicit && l.Implicit.Empty()) || (!implicit && l.Explicit.Empty()) {
					continue
				}
				b = append(append(append(b, directive...), n.name...), ' ')
				b = append(append(append(b, g.Name(e.dst)...), ' '), format(e.lbl, implicit)...)
				b = append(b, '\n')
			}
			next += len(dst)
		}
	}
	_, err := w.Write(b)
	return err
}

// WriteString is Write into a string.
func WriteString(g *graph.Graph) string {
	var b strings.Builder
	Write(&b, g) // strings.Builder never errors
	return b.String()
}

// DOT renders the graph in Graphviz syntax.
func DOT(g *graph.Graph, title string) string {
	u := g.Universe()
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", title)
	b.WriteString("  rankdir=LR;\n")
	for _, v := range g.Vertices() {
		shape := "circle"
		style := "filled"
		if g.IsObject(v) {
			style = "solid"
		}
		fmt.Fprintf(&b, "  %q [shape=%s, style=%s];\n", g.Name(v), shape, style)
	}
	for _, e := range g.Edges() {
		if !e.Explicit.Empty() {
			fmt.Fprintf(&b, "  %q -> %q [label=%q];\n",
				g.Name(e.Src), g.Name(e.Dst), e.Explicit.Format(u))
		}
		if !e.Implicit.Empty() {
			fmt.Fprintf(&b, "  %q -> %q [label=%q, style=dashed];\n",
				g.Name(e.Src), g.Name(e.Dst), e.Implicit.Format(u))
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// Render produces a terminal-friendly adjacency listing: one block per
// vertex with its outgoing explicit (→) and implicit (⇢) labels.
func Render(g *graph.Graph) string {
	u := g.Universe()
	var b strings.Builder
	for _, v := range g.Vertices() {
		marker := "●"
		if g.IsObject(v) {
			marker = "○"
		}
		fmt.Fprintf(&b, "%s %s\n", marker, g.Name(v))
		for _, h := range g.Out(v) {
			if !h.Explicit.Empty() {
				fmt.Fprintf(&b, "    → %-12s %s\n", g.Name(h.Other), h.Explicit.Format(u))
			}
			if !h.Implicit.Empty() {
				fmt.Fprintf(&b, "    ⇢ %-12s %s\n", g.Name(h.Other), h.Implicit.Format(u))
			}
		}
	}
	return b.String()
}
