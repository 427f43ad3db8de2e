package relang

import "takegrant/internal/graph"

// Bitset is a growable bitset over non-negative indices. A product search
// keeps its visited set in one (bit v·|Q|+q marks product state (v, q),
// vertex-major, so a vertex created after the search started only
// appends), and closure rows keep their member vertices in one (bit v).
// Reads past the end report absent, so a row built before a vertex
// existed reads it as a non-member until an extension sets its bit.
//
// A Bitset is not safe for concurrent mutation; once its holder stops
// setting bits, any number of readers may call Has concurrently.
type Bitset struct {
	words []uint64
	n     int
}

// Has reports whether bit i is set.
func (b *Bitset) Has(i int) bool {
	w := i >> 6
	return w < len(b.words) && b.words[w]&(1<<(uint(i)&63)) != 0
}

// Set sets bit i, growing the set as needed, and reports whether the bit
// was clear before.
func (b *Bitset) Set(i int) bool {
	w := i >> 6
	if w >= len(b.words) {
		b.Reserve(i + 1)
	}
	m := uint64(1) << (uint(i) & 63)
	if b.words[w]&m != 0 {
		return false
	}
	b.words[w] |= m
	b.n++
	return true
}

// Reserve grows the set to hold indices < n without reallocating on the
// way. It sets no bit.
func (b *Bitset) Reserve(n int) {
	need := (n + 63) >> 6
	if need <= len(b.words) {
		return
	}
	if need <= cap(b.words) {
		b.words = b.words[:need]
		return
	}
	grown := make([]uint64, need, max(need, 2*cap(b.words)))
	copy(grown, b.words)
	b.words = grown
}

// Len returns the number of set bits.
func (b *Bitset) Len() int { return b.n }

// clearIndices clears the listed bits, which must be exactly the set
// ones: a pooled search empties its visited set through its queue in
// O(visited), or by zeroing every word when that is fewer writes.
func (b *Bitset) clearIndices(idx []int32) {
	if len(idx) >= len(b.words) {
		clear(b.words)
	} else {
		for _, i := range idx {
			b.words[i>>6] = 0
		}
	}
	b.n = 0
}

// HasVertex and AddVertex are Has and Set keyed by vertex ID, for
// membership rows.
func (b *Bitset) HasVertex(v graph.ID) bool { return v >= 0 && b.Has(int(v)) }

// AddVertex sets v's bit and reports whether it was new.
func (b *Bitset) AddVertex(v graph.ID) bool { return b.Set(int(v)) }
