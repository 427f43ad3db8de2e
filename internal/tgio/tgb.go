package tgio

// The ".tgb" binary bulk format. A .tgb file carries the same information
// as the canonical .tg text form but in a compact, streaming-friendly
// layout: million-vertex worlds encode in tens of megabytes and decode
// without ever materializing a text rendering.
//
// Layout:
//
//	magic "TGB1"
//	section 'R'  extra rights beyond the builtin r,w,t,g
//	section 'V'  live vertices: kind byte + name, densely renumbered
//	section 'L'  interned label pairs: (explicit, implicit) bitmask uvarints,
//	             sorted, so one graph always encodes to the same bytes
//	section 'E'  edges sorted by (src,dst), varint-delta encoded
//	section 'Z'  terminator
//
// Every section is framed as: tag byte, payload, CRC32-IEEE of the payload
// (little-endian, 4 bytes). Payloads are self-delimiting (counts up front,
// length-prefixed strings), so the decoder reads exactly the payload and
// then verifies the checksum — truncation, bit damage and framing errors
// are all detected. Integers are unsigned varints (encoding/binary).
//
// Edge records exploit the (src,dst)-sorted order: each record is
// (srcGap, dstDelta, labelIndex) where srcGap is the distance from the
// previous record's source and dstDelta encodes dst - prevDst - 1 within a
// source run (absolute dst when the source changes). Typical records are
// 3-5 bytes.
//
// Decoding replays vertices and labels through the ordinary graph
// mutation API, so a decoded graph has the same revision counter as
// parsing the equivalent canonical text — revision-keyed caches and the
// replication digest cannot tell the two apart.

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"takegrant/internal/graph"
	"takegrant/internal/rights"
)

// BinaryContentType is the media type of the .tgb encoding on the wire.
const BinaryContentType = "application/x-takegrant-binary"

// binaryMagic opens every .tgb stream.
const binaryMagic = "TGB1"

// IsBinary reports whether a stream prefix (at least 4 bytes) carries the
// .tgb magic.
func IsBinary(prefix []byte) bool {
	return len(prefix) >= len(binaryMagic) && string(prefix[:len(binaryMagic)]) == binaryMagic
}

// Decoder sanity caps: counts above these are rejected outright instead of
// driving huge speculative allocations from hostile headers. They bound
// worlds well past the 1e6-vertex design point.
const (
	maxBinaryName     = 1 << 16 // single vertex/right name length
	maxBinaryVertices = 1 << 28
	maxBinaryEdges    = 1 << 30
	maxBinaryLabels   = 1 << 24
	preallocCap       = 1 << 21 // largest speculative make() from a header count
)

// ParseAny reads a graph in either format, sniffing the .tgb magic from
// the first bytes and falling back to the text parser otherwise.
func ParseAny(r io.Reader) (*graph.Graph, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	prefix, err := br.Peek(len(binaryMagic))
	if err == nil && IsBinary(prefix) {
		return DecodeBinary(br)
	}
	// Short or non-magic prefixes are text (including the empty file,
	// which parses to the empty graph).
	return Parse(br)
}

// crcWriter frames one section: bytes written accumulate into a CRC32
// until the frame is closed.
type crcWriter struct {
	w       *bufio.Writer
	crc     uint32
	scratch [binary.MaxVarintLen64]byte
}

func (c *crcWriter) begin(tag byte) error {
	c.crc = 0
	return c.w.WriteByte(tag)
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p)
	return c.w.Write(p)
}

func (c *crcWriter) uvarint(v uint64) error {
	n := binary.PutUvarint(c.scratch[:], v)
	_, err := c.Write(c.scratch[:n])
	return err
}

func (c *crcWriter) str(s string) error {
	if err := c.uvarint(uint64(len(s))); err != nil {
		return err
	}
	c.crc = crc32.Update(c.crc, crc32.IEEETable, []byte(s))
	_, err := c.w.WriteString(s)
	return err
}

func (c *crcWriter) end() error {
	var foot [4]byte
	binary.LittleEndian.PutUint32(foot[:], c.crc)
	_, err := c.w.Write(foot[:])
	return err
}

// EncodeBinary writes g in .tgb form. Deleted-vertex holes are compacted:
// live vertices are renumbered densely in ID order, which preserves the
// snapshot's (src,dst) edge sort. The encoding streams from the frozen
// CSR snapshot and never builds a text rendering.
func EncodeBinary(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	c := &crcWriter{w: bw}
	u := g.Universe()
	s := g.Snapshot()

	// 'R': extra rights in declaration order.
	if err := c.begin('R'); err != nil {
		return err
	}
	extra := u.All()[rights.NumBuiltin:]
	if err := c.uvarint(uint64(len(extra))); err != nil {
		return err
	}
	for _, r := range extra {
		if err := c.str(u.Name(r)); err != nil {
			return err
		}
	}
	if err := c.end(); err != nil {
		return err
	}

	// 'V': live vertices, dense renumbering in ID order.
	if err := c.begin('V'); err != nil {
		return err
	}
	fileID := make([]int64, s.Cap())
	live := 0
	for v := 0; v < s.Cap(); v++ {
		if s.Live(graph.ID(v)) {
			fileID[v] = int64(live)
			live++
		} else {
			fileID[v] = -1
		}
	}
	if err := c.uvarint(uint64(live)); err != nil {
		return err
	}
	for v := 0; v < s.Cap(); v++ {
		if fileID[v] < 0 {
			continue
		}
		kind := byte(0)
		if !s.IsSubject(graph.ID(v)) {
			kind = 1
		}
		if _, err := c.Write([]byte{kind}); err != nil {
			return err
		}
		if err := c.str(g.Name(graph.ID(v))); err != nil {
			return err
		}
	}
	if err := c.end(); err != nil {
		return err
	}

	// 'L': the label pairs the edges carry, in canonical order, sorted by
	// (explicit, implicit). Two encodings of one graph must be the same
	// bytes, but the snapshot interns labels in whatever order its
	// (parallel) build or its refreshes met them, and a refreshed table
	// can still hold pairs no edge carries. canon maps a snapshot index to
	// its slot.
	if err := c.begin('L'); err != nil {
		return err
	}
	used := make([]bool, s.NumLabels())
	for v := 0; v < s.Cap(); v++ {
		_, lbl := s.Out(graph.ID(v))
		for _, li := range lbl {
			used[li] = true
		}
	}
	var labels []graph.LabelPair
	for i, lp := range s.Labels() {
		if used[i] {
			labels = append(labels, lp)
		}
	}
	slices.SortFunc(labels, compareLabels)
	canon := make([]uint32, s.NumLabels())
	for i, lp := range s.Labels() {
		j, _ := slices.BinarySearchFunc(labels, lp, compareLabels)
		canon[i] = uint32(j)
	}
	if err := c.uvarint(uint64(len(labels))); err != nil {
		return err
	}
	for _, lp := range labels {
		if err := c.uvarint(uint64(lp.Explicit)); err != nil {
			return err
		}
		if err := c.uvarint(uint64(lp.Implicit)); err != nil {
			return err
		}
	}
	if err := c.end(); err != nil {
		return err
	}

	// 'E': delta-coded edges in (src,dst) order.
	if err := c.begin('E'); err != nil {
		return err
	}
	if err := c.uvarint(uint64(s.NumEdges())); err != nil {
		return err
	}
	prevSrc, prevDst := int64(0), int64(-1)
	for v := 0; v < s.Cap(); v++ {
		dst, lbl := s.Out(graph.ID(v))
		if len(dst) == 0 {
			continue
		}
		src := fileID[v]
		for j, d := range dst {
			gap := src - prevSrc
			if gap != 0 {
				prevDst = -1
			}
			fd := fileID[d]
			if err := c.uvarint(uint64(gap)); err != nil {
				return err
			}
			if err := c.uvarint(uint64(fd - prevDst - 1)); err != nil {
				return err
			}
			if err := c.uvarint(uint64(canon[lbl[j]])); err != nil {
				return err
			}
			prevSrc, prevDst = src, fd
		}
	}
	if err := c.end(); err != nil {
		return err
	}

	// 'Z': terminator (empty payload, CRC 0).
	if err := c.begin('Z'); err != nil {
		return err
	}
	if err := c.end(); err != nil {
		return err
	}
	return bw.Flush()
}

// compareLabels orders label pairs by explicit, then implicit rights.
func compareLabels(a, b graph.LabelPair) int {
	if c := cmp.Compare(a.Explicit, b.Explicit); c != 0 {
		return c
	}
	return cmp.Compare(a.Implicit, b.Implicit)
}

// crcReader un-frames one section: bytes read accumulate into a CRC32
// that end() checks against the 4-byte footer.
type crcReader struct {
	r   *bufio.Reader
	crc uint32
	off int64 // bytes consumed from the stream, for error positions
}

func (c *crcReader) begin(want byte) error {
	tag, err := c.r.ReadByte()
	if err != nil {
		return fmt.Errorf("tgio: binary: truncated at section %q: %w", string(want), noEOF(err))
	}
	c.off++
	if tag != want {
		return fmt.Errorf("tgio: binary: expected section %q at offset %d, found %q", string(want), c.off-1, string(tag))
	}
	c.crc = 0
	return nil
}

func (c *crcReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err != nil {
		return 0, err
	}
	c.off++
	var one [1]byte
	one[0] = b
	c.crc = crc32.Update(c.crc, crc32.IEEETable, one[:])
	return b, nil
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.off += int64(n)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

func (c *crcReader) uvarint() (uint64, error) {
	v, err := binary.ReadUvarint(c)
	if err != nil {
		return 0, fmt.Errorf("tgio: binary: truncated varint at offset %d: %w", c.off, noEOF(err))
	}
	return v, nil
}

func (c *crcReader) str(maxLen uint64) (string, error) {
	n, err := c.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxLen {
		return "", fmt.Errorf("tgio: binary: name length %d exceeds cap %d at offset %d", n, maxLen, c.off)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(c, buf); err != nil {
		return "", fmt.Errorf("tgio: binary: truncated name at offset %d: %w", c.off, noEOF(err))
	}
	return string(buf), nil
}

func (c *crcReader) end(tag byte) error {
	got := c.crc
	var foot [4]byte
	if _, err := io.ReadFull(c.r, foot[:]); err != nil {
		return fmt.Errorf("tgio: binary: truncated CRC footer of section %q: %w", string(tag), noEOF(err))
	}
	c.off += 4
	if want := binary.LittleEndian.Uint32(foot[:]); want != got {
		return fmt.Errorf("tgio: binary: CRC mismatch in section %q: file %08x, computed %08x", string(tag), want, got)
	}
	return nil
}

// noEOF maps io.EOF to io.ErrUnexpectedEOF: inside a framed section, any
// end-of-stream is truncation, never a clean end.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// DecodeBinary reads a .tgb stream into a fresh graph. Every section CRC
// is verified; label bitmasks are checked against the declared rights
// alphabet ("alphabet overflow"); edges must arrive strictly (src,dst)
// sorted. The decoded graph's revision counter matches what parsing the
// equivalent canonical text would produce.
func DecodeBinary(r io.Reader) (*graph.Graph, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	var magic [len(binaryMagic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("tgio: binary: missing magic: %w", noEOF(err))
	}
	if !IsBinary(magic[:]) {
		return nil, fmt.Errorf("tgio: binary: bad magic %q", string(magic[:]))
	}
	c := &crcReader{r: br, off: int64(len(magic))}

	// 'R': declare extra rights.
	u := rights.NewUniverse()
	if err := c.begin('R'); err != nil {
		return nil, err
	}
	nRights, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if nRights > rights.MaxRights {
		return nil, fmt.Errorf("tgio: binary: %d extra rights exceeds universe capacity", nRights)
	}
	for i := uint64(0); i < nRights; i++ {
		name, err := c.str(maxBinaryName)
		if err != nil {
			return nil, err
		}
		if _, err := u.Declare(name); err != nil {
			return nil, fmt.Errorf("tgio: binary: %w", err)
		}
	}
	if err := c.end('R'); err != nil {
		return nil, err
	}
	alphabet := rights.Set(1)<<rights.Set(u.Len()) - 1

	// 'V': vertices in file-ID order.
	g := graph.New(u)
	if err := c.begin('V'); err != nil {
		return nil, err
	}
	nVerts, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if nVerts > maxBinaryVertices {
		return nil, fmt.Errorf("tgio: binary: vertex count %d exceeds cap", nVerts)
	}
	g.Grow(int(min(nVerts, preallocCap)))
	for i := uint64(0); i < nVerts; i++ {
		kind, err := c.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("tgio: binary: truncated vertex record %d: %w", i, noEOF(err))
		}
		name, err := c.str(maxBinaryName)
		if err != nil {
			return nil, err
		}
		switch kind {
		case 0:
			_, err = g.AddSubject(name)
		case 1:
			_, err = g.AddObject(name)
		default:
			return nil, fmt.Errorf("tgio: binary: vertex %d has unknown kind %d", i, kind)
		}
		if err != nil {
			return nil, fmt.Errorf("tgio: binary: %w", err)
		}
	}
	if err := c.end('V'); err != nil {
		return nil, err
	}

	// 'L': interned label table, validated against the alphabet.
	if err := c.begin('L'); err != nil {
		return nil, err
	}
	nLabels, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if nLabels > maxBinaryLabels {
		return nil, fmt.Errorf("tgio: binary: label count %d exceeds cap", nLabels)
	}
	labels := make([]graph.LabelPair, 0, int(min(nLabels, preallocCap)))
	for i := uint64(0); i < nLabels; i++ {
		exp, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		imp, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		lp := graph.LabelPair{Explicit: rights.Set(exp), Implicit: rights.Set(imp)}
		if over := lp.Combined().Minus(alphabet); !over.Empty() {
			return nil, fmt.Errorf("tgio: binary: label %d: alphabet overflow (bits %x beyond %d declared rights)", i, uint64(over), u.Len())
		}
		if lp.Combined().Empty() {
			return nil, fmt.Errorf("tgio: binary: label %d is empty", i)
		}
		labels = append(labels, lp)
	}
	if err := c.end('L'); err != nil {
		return nil, err
	}

	// 'E': delta-coded edges, strictly (src,dst) ascending.
	if err := c.begin('E'); err != nil {
		return nil, err
	}
	nEdges, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if nEdges > maxBinaryEdges {
		return nil, fmt.Errorf("tgio: binary: edge count %d exceeds cap", nEdges)
	}
	src, prevDst := uint64(0), int64(-1)
	for i := uint64(0); i < nEdges; i++ {
		gap, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		if gap != 0 {
			src += gap
			prevDst = -1
		}
		delta, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		dst := uint64(prevDst+1) + delta
		li, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		if src >= nVerts || dst >= nVerts {
			return nil, fmt.Errorf("tgio: binary: edge %d references vertex beyond %d", i, nVerts)
		}
		if li >= uint64(len(labels)) {
			return nil, fmt.Errorf("tgio: binary: edge %d references label %d beyond table of %d", i, li, len(labels))
		}
		lp := labels[li]
		if !lp.Explicit.Empty() {
			if err := g.AddExplicit(graph.ID(src), graph.ID(dst), lp.Explicit); err != nil {
				return nil, fmt.Errorf("tgio: binary: edge %d: %w", i, err)
			}
		}
		if !lp.Implicit.Empty() {
			if err := g.AddImplicit(graph.ID(src), graph.ID(dst), lp.Implicit); err != nil {
				return nil, fmt.Errorf("tgio: binary: edge %d: %w", i, err)
			}
		}
		prevDst = int64(dst)
	}
	if err := c.end('E'); err != nil {
		return nil, err
	}

	// 'Z': terminator.
	if err := c.begin('Z'); err != nil {
		return nil, err
	}
	if err := c.end('Z'); err != nil {
		return nil, err
	}
	return g, nil
}
