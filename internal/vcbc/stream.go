package vcbc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"benu/internal/varint"
)

// Binary stream codec for compressed results. The paper reports output
// separately from enumeration; this is the output path: workers append
// codes to a stream (one per RES execution), downstream consumers decode
// and count or expand them without rehydrating everything in memory.
//
// Layout: a fixed header (magic, version, cover/free vertex lists shared
// by every code of one pattern+plan), then per code the helve values and
// varint-length-prefixed image sets. All integers are unsigned varints
// (vertex ids are non-negative).

const (
	streamMagic   = 0xBE74C0DE
	streamVersion = 1
)

// Writer appends compressed codes to an output stream. Not safe for
// concurrent use; give each worker its own Writer (and concatenate
// streams afterwards, or re-emit the header per shard), or serialize
// with a mutex.
type Writer struct {
	w           *bufio.Writer
	cover, free []int
	codes       int64
}

// NewWriter writes the stream header: the cover and free pattern-vertex
// lists of the compressed plan, plus the symmetry-breaking constraints
// among free vertices (needed to count/expand the codes downstream).
func NewWriter(w io.Writer, cover, free []int, constraints [][2]int) (*Writer, error) {
	if err := checkConstraints(free, constraints); err != nil {
		return nil, err
	}
	sw := &Writer{
		w:     bufio.NewWriter(w),
		cover: append([]int(nil), cover...),
		free:  append([]int(nil), free...),
	}
	if err := sw.uvarint(streamMagic); err != nil {
		return nil, err
	}
	if err := sw.uvarint(streamVersion); err != nil {
		return nil, err
	}
	if err := sw.intList(cover); err != nil {
		return nil, err
	}
	if err := sw.intList(free); err != nil {
		return nil, err
	}
	flat := make([]int, 0, len(constraints)*2)
	for _, c := range constraints {
		flat = append(flat, c[0], c[1])
	}
	if err := sw.intList(flat); err != nil {
		return nil, err
	}
	return sw, nil
}

func (sw *Writer) uvarint(x uint64) error {
	return varint.Write(sw.w, x)
}

func (sw *Writer) intList(xs []int) error {
	if err := sw.uvarint(uint64(len(xs))); err != nil {
		return err
	}
	for _, x := range xs {
		if err := sw.uvarint(uint64(x)); err != nil {
			return err
		}
	}
	return nil
}

// Write appends one code. The code's cover/free vertex lists must match
// the header (plan-emitted codes always do).
func (sw *Writer) Write(c *Code) error {
	if len(c.Helve) != len(sw.cover) || len(c.Images) != len(sw.free) {
		return fmt.Errorf("vcbc: code shape (%d helve, %d images) does not match header (%d, %d)",
			len(c.Helve), len(c.Images), len(sw.cover), len(sw.free))
	}
	for _, v := range c.Helve {
		if err := sw.uvarint(uint64(v)); err != nil {
			return err
		}
	}
	for _, img := range c.Images {
		if err := sw.uvarint(uint64(len(img))); err != nil {
			return err
		}
		for _, v := range img {
			if err := sw.uvarint(uint64(v)); err != nil {
				return err
			}
		}
	}
	sw.codes++
	return nil
}

// Codes returns the number of codes written.
func (sw *Writer) Codes() int64 { return sw.codes }

// Flush flushes buffered output. Call once after the last Write.
func (sw *Writer) Flush() error { return sw.w.Flush() }

// Reader decodes a code stream produced by Writer.
type Reader struct {
	r           *bufio.Reader
	cover, free []int
	constraints [][2]int
}

// NewReader validates the stream header and prepares decoding.
func NewReader(r io.Reader) (*Reader, error) {
	sr := &Reader{r: bufio.NewReader(r)}
	magic, err := binary.ReadUvarint(sr.r)
	if err != nil {
		return nil, fmt.Errorf("vcbc: read header: %w", err)
	}
	if magic != streamMagic {
		return nil, fmt.Errorf("vcbc: bad magic %#x", magic)
	}
	version, err := binary.ReadUvarint(sr.r)
	if err != nil {
		return nil, err
	}
	if version != streamVersion {
		return nil, fmt.Errorf("vcbc: stream version %d, want %d", version, streamVersion)
	}
	if sr.cover, err = sr.intList(); err != nil {
		return nil, err
	}
	if sr.free, err = sr.intList(); err != nil {
		return nil, err
	}
	flat, err := sr.intList()
	if err != nil {
		return nil, err
	}
	if len(flat)%2 != 0 {
		return nil, fmt.Errorf("vcbc: odd constraint list length %d", len(flat))
	}
	for i := 0; i < len(flat); i += 2 {
		sr.constraints = append(sr.constraints, [2]int{flat[i], flat[i+1]})
	}
	// Every pattern vertex is either cover or free, never both and never
	// twice: Count and Expand index per-pattern-vertex state, so a header
	// with duplicated vertices silently aliases slots. Reject it as
	// corrupt rather than decode codes with undefined semantics. An empty
	// header is corrupt too — codes would occupy zero bytes, so Next
	// could never distinguish a code from end of stream.
	if len(sr.cover)+len(sr.free) == 0 {
		return nil, errors.New("vcbc: header has no pattern vertices")
	}
	seen := make(map[int]bool, len(sr.cover)+len(sr.free))
	for _, u := range append(append([]int(nil), sr.cover...), sr.free...) {
		if u > 1<<16 {
			return nil, fmt.Errorf("vcbc: unreasonable pattern vertex %d in header", u)
		}
		if seen[u] {
			return nil, fmt.Errorf("vcbc: pattern vertex %d duplicated in header", u)
		}
		seen[u] = true
	}
	if err := checkConstraints(sr.free, sr.constraints); err != nil {
		return nil, err
	}
	return sr, nil
}

// checkConstraints rejects an order constraint that is not between two
// distinct free vertices. Count and Expand disagree on such a header —
// CountInjective's one-free-vertex shortcut never looks at constraints,
// Expand enforces u ≺ u and yields nothing — so it is corrupt, like a
// duplicated vertex.
func checkConstraints(free []int, constraints [][2]int) error {
	for _, c := range constraints {
		if c[0] == c[1] || !slices.Contains(free, c[0]) || !slices.Contains(free, c[1]) {
			return fmt.Errorf("vcbc: order constraint u%d ≺ u%d is not between two distinct free vertices", c[0], c[1])
		}
	}
	return nil
}

// Constraints returns the free-vertex order constraints from the header.
func (sr *Reader) Constraints() [][2]int { return sr.constraints }

func (sr *Reader) intList() ([]int, error) {
	n, err := binary.ReadUvarint(sr.r)
	if err != nil {
		return nil, err
	}
	if n > 1<<16 {
		return nil, fmt.Errorf("vcbc: unreasonable list length %d", n)
	}
	// Grow by appending rather than trusting the claimed length with one
	// allocation: a truncated or hostile stream then fails after reading
	// at most the bytes it actually contains.
	out := make([]int, 0, min(int(n), 4096))
	for i := uint64(0); i < n; i++ {
		x, err := binary.ReadUvarint(sr.r)
		if err != nil {
			return nil, err
		}
		out = append(out, int(x))
	}
	return out, nil
}

// Cover returns the cover pattern vertices from the header.
func (sr *Reader) Cover() []int { return sr.cover }

// Free returns the free pattern vertices from the header.
func (sr *Reader) Free() []int { return sr.free }

// Next decodes the next code, or returns io.EOF cleanly at end of stream.
// The returned Code is freshly allocated and owned by the caller.
func (sr *Reader) Next() (*Code, error) {
	c := &Code{
		CoverVertices: sr.cover,
		FreeVertices:  sr.free,
		Helve:         make([]int64, len(sr.cover)),
	}
	for i := range c.Helve {
		v, err := binary.ReadUvarint(sr.r)
		if err != nil {
			if i == 0 && errors.Is(err, io.EOF) {
				return nil, io.EOF
			}
			return nil, fmt.Errorf("vcbc: truncated code: %w", err)
		}
		c.Helve[i] = int64(v)
	}
	c.Images = make([][]int64, len(sr.free))
	for i := range c.Images {
		n, err := binary.ReadUvarint(sr.r)
		if err != nil {
			return nil, fmt.Errorf("vcbc: truncated image set: %w", err)
		}
		if n > 1<<28 {
			return nil, fmt.Errorf("vcbc: unreasonable image size %d", n)
		}
		// Append-grow so a hostile length claim cannot force a huge
		// allocation; decoding fails at the stream's actual end instead.
		img := make([]int64, 0, min(int(n), 4096))
		for j := uint64(0); j < n; j++ {
			v, err := binary.ReadUvarint(sr.r)
			if err != nil {
				return nil, fmt.Errorf("vcbc: truncated image set: %w", err)
			}
			img = append(img, int64(v))
		}
		c.Images[i] = img
	}
	return c, nil
}
