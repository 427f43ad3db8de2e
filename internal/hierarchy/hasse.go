package hierarchy

import (
	"fmt"
	"sort"
	"strings"

	"takegrant/internal/graph"
)

// Hasse renders the level structure's covering relation as indented text:
// one line per level (members listed), children indented beneath their
// covers, maximal levels first. Incomparable branches appear as siblings.
// Levels reachable from several parents are printed once and referenced
// thereafter.
func (s *Structure) Hasse() string {
	var b strings.Builder
	printed := make([]bool, len(s.levels))
	var emit func(level, depth int)
	emit = func(level, depth int) {
		indent := strings.Repeat("  ", depth)
		if printed[level] {
			fmt.Fprintf(&b, "%s└ %s (see above)\n", indent, s.levelLabel(level))
			return
		}
		printed[level] = true
		fmt.Fprintf(&b, "%s%s\n", indent, s.levelLabel(level))
		// reach is a strict partial order, so HigherLevel is reach itself,
		// and a level covers the levels in its row that are in no row it
		// holds; each ascends, so covers print in index order.
		row := s.reach[level]
		var below bitrow
		row.each(func(k int) { below = below.or(s.reach[k]) })
		row.each(func(c int) {
			if !below.has(c) {
				emit(c, depth+1)
			}
		})
	}
	for _, i := range s.Maximal() {
		emit(i, 0)
	}
	return b.String()
}

func (s *Structure) levelLabel(i int) string {
	names := make([]string, 0, len(s.levels[i]))
	for _, v := range s.levels[i] {
		names = append(names, s.g.Name(v))
	}
	// Sorted members: the rendering must not depend on internal vertex
	// order, which differs between a node that built its graph
	// incrementally and one that bootstrapped from a canonical snapshot.
	sort.Strings(names)
	return fmt.Sprintf("level %d {%s}", i, strings.Join(names, ", "))
}

// LevelNames returns the member names of a level, sorted; a convenience
// for reports.
func (s *Structure) LevelNames(i int) []string {
	if i < 0 || i >= len(s.levels) {
		return nil
	}
	names := make([]string, 0, len(s.levels[i]))
	for _, v := range s.levels[i] {
		names = append(names, s.g.Name(v))
	}
	sort.Strings(names)
	return names
}

// Minimal and Maximal return the extremal level indexes of the order —
// the paper notes any structure has at least one of each, but possibly
// several (no unique top or bottom in a partial order).
func (s *Structure) Minimal() []int { return s.extremal(false) }

// Maximal returns the maximal level indexes.
func (s *Structure) Maximal() []int { return s.extremal(true) }

func (s *Structure) extremal(max bool) []int {
	// Minimal levels have empty rows; maximal levels, empty columns.
	var col bitrow
	if max {
		for _, row := range s.reach {
			col = col.or(row)
		}
	}
	var out []int
	for i, row := range s.reach {
		if (max && !col.has(i)) || (!max && row.empty()) {
			out = append(out, i)
		}
	}
	return out
}

// VertexLevelName formats a vertex with its level for diagnostics.
func (s *Structure) VertexLevelName(v graph.ID) string {
	if !s.g.Valid(v) {
		return fmt.Sprintf("#%d", v)
	}
	return fmt.Sprintf("%s@L%d", s.g.Name(v), s.LevelOf(v))
}
