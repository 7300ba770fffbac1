// Package csr defines the on-disk adjacency format of the kv disk
// backend: an immutable CSR (compressed sparse row) image of one hash
// partition of the data graph, memory-mapped at open and served
// zero-copy as compact graph.AdjList payloads.
//
// # File layout (all integers little-endian)
//
//	header   64 bytes:
//	  [0:4)    magic "BCSR"
//	  [4:8)    format version, u32 (currently 1)
//	  [8:16)   numVertices, u64 — global vertex count of the graph
//	  [16:24)  numListed, u64 — vertices stored in this file
//	  [24:28)  parts, u32 — hash-partition count (1 = whole graph)
//	  [28:32)  part, u32 — which partition this file holds
//	  [32:40)  payloadLen, u64
//	  [40:44)  crc32 (IEEE) of offsets + payload, u32
//	  [44:48)  flags, u32: FlagDegreeOrdered, or 0
//	  [48:64)  zero padding
//	offsets  (numListed+1) × u64, relative to the payload start:
//	         list i occupies payload[off[i]:off[i+1]]; off[0] = 0,
//	         nondecreasing, off[numListed] = payloadLen
//	payload  concatenated varint-delta adjacency encodings
//	         (graph.EncodeAdjList), one per stored vertex
//
// FlagDegreeOrdered marks a file whose graph's ids follow ≺ = (degree,
// id), as every graph benu-store builds does (it relabels on load); the
// benu CLI serves only such files, because its ids are the relabelled
// ones. Files written before the flag existed carry 0 there, as padding.
//
// Vertex v is stored in the file with part == v mod parts, at slot
// v div parts. This matches kv.Shard's hash partitioning, so a set of
// per-part files drops into kv.NewPartitioned unchanged.
//
// Decode validates everything up front — header sanity, offset
// monotonicity, checksum, and every adjacency encoding — so reads off a
// validated File never fail on corrupt bytes. Like every decoder of
// externally supplied bytes in this repository, the package returns
// errors and never panics (enforced by benulint decodesafe and fuzzed
// by FuzzCSRDecode).
package csr

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"benu/internal/graph"
)

// Format constants.
const (
	// Magic identifies a BENU CSR file.
	Magic = "BCSR"
	// Version is the current format version.
	Version = 1
	// HeaderSize is the fixed header length in bytes.
	HeaderSize = 64
	// FlagDegreeOrdered is the header flag of a graph whose degrees never
	// decrease with the id (graph.Graph.DegreeOrdered).
	FlagDegreeOrdered = 1
)

// ErrNotDegreeOrdered reports a CSR file whose ids do not follow ≺: one
// built from a graph that was not relabelled, such as by a benu-store
// that predates relabelling.
var ErrNotDegreeOrdered = errors.New("csr: file ids are not in degree order (rebuild it with benu-store build)")

// NumListed returns how many of n vertices the file for partition part
// of parts holds: the count of v in [0, n) with v mod parts == part.
func NumListed(n, parts, part int) int {
	if part >= n {
		return 0
	}
	return (n-part-1)/parts + 1
}

// Write serializes partition part of parts of g to w in the CSR format,
// with the header flags given (0 or FlagDegreeOrdered). adj(v) must
// return v's sorted adjacency set; it is called once per stored vertex,
// in slot order.
func Write(w io.Writer, numVertices, parts, part int, flags uint32, adj func(v int64) []int64) error {
	if flags&^FlagDegreeOrdered != 0 {
		return fmt.Errorf("csr: unknown header flags %#x", flags)
	}
	if parts < 1 {
		return fmt.Errorf("csr: parts %d < 1", parts)
	}
	if part < 0 || part >= parts {
		return fmt.Errorf("csr: part %d out of range [0,%d)", part, parts)
	}
	if numVertices < 0 {
		return fmt.Errorf("csr: negative vertex count %d", numVertices)
	}
	listed := NumListed(numVertices, parts, part)

	// Encode the payload and offsets first: the header carries their
	// length and checksum.
	offs := make([]byte, 0, (listed+1)*8)
	var payload []byte
	offs = binary.LittleEndian.AppendUint64(offs, 0)
	for slot := 0; slot < listed; slot++ {
		v := int64(slot)*int64(parts) + int64(part)
		payload = append(payload, graph.EncodeAdjList(adj(v)).Bytes()...)
		offs = binary.LittleEndian.AppendUint64(offs, uint64(len(payload)))
	}

	crc := crc32.NewIEEE()
	crc.Write(offs)
	crc.Write(payload)

	hdr := make([]byte, HeaderSize)
	copy(hdr[0:4], Magic)
	binary.LittleEndian.PutUint32(hdr[4:8], Version)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(numVertices))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(listed))
	binary.LittleEndian.PutUint32(hdr[24:28], uint32(parts))
	binary.LittleEndian.PutUint32(hdr[28:32], uint32(part))
	binary.LittleEndian.PutUint64(hdr[32:40], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[40:44], crc.Sum32())
	binary.LittleEndian.PutUint32(hdr[44:48], flags)

	bw := bufio.NewWriter(w)
	for _, chunk := range [][]byte{hdr, offs, payload} {
		if _, err := bw.Write(chunk); err != nil {
			return fmt.Errorf("csr: write: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("csr: write: %w", err)
	}
	return nil
}

// WriteGraphFile builds the CSR file for partition part of parts of g at
// path, flagged FlagDegreeOrdered when g's ids follow ≺.
func WriteGraphFile(path string, g *graph.Graph, parts, part int) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("csr: %w", err)
	}
	var flags uint32
	if g.DegreeOrdered() {
		flags = FlagDegreeOrdered
	}
	if err := Write(f, g.NumVertices(), parts, part, flags, g.Adj); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("csr: close %s: %w", path, err)
	}
	return nil
}

// File is a decoded (and fully validated) CSR image. Reads are
// zero-copy slices of the underlying data — for an Open'd file, of the
// memory mapping — and never fail on content errors after Decode
// succeeded. Safe for concurrent use; Close invalidates every
// outstanding AdjList.
type File struct {
	data    []byte // full image (header + offsets + payload)
	offs    []byte // offset table region of data
	payload []byte // payload region of data
	n       int    // global vertex count
	listed  int
	parts   int
	part    int
	flags   uint32
	unmap   func() error // nil when the data is heap-backed
}

// Decode validates data as a CSR image and wraps it as a File. The data
// is retained, not copied.
func Decode(data []byte) (*File, error) {
	if len(data) < HeaderSize {
		return nil, fmt.Errorf("csr: file too short for header: %d bytes", len(data))
	}
	if string(data[0:4]) != Magic {
		return nil, fmt.Errorf("csr: bad magic %q", data[0:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != Version {
		return nil, fmt.Errorf("csr: unsupported format version %d (want %d)", v, Version)
	}
	n := binary.LittleEndian.Uint64(data[8:16])
	listed := binary.LittleEndian.Uint64(data[16:24])
	parts := binary.LittleEndian.Uint32(data[24:28])
	part := binary.LittleEndian.Uint32(data[28:32])
	payloadLen := binary.LittleEndian.Uint64(data[32:40])
	wantCRC := binary.LittleEndian.Uint32(data[40:44])
	flags := binary.LittleEndian.Uint32(data[44:48])
	if flags&^FlagDegreeOrdered != 0 {
		return nil, fmt.Errorf("csr: unknown header flags %#x", flags)
	}
	for _, b := range data[48:HeaderSize] {
		if b != 0 {
			return nil, fmt.Errorf("csr: nonzero header padding")
		}
	}
	if parts < 1 {
		return nil, fmt.Errorf("csr: parts %d < 1", parts)
	}
	if part >= parts {
		return nil, fmt.Errorf("csr: part %d out of range [0,%d)", part, parts)
	}
	const maxInt = int(^uint(0) >> 1)
	if n > uint64(maxInt) || listed > uint64(maxInt)/8-1 {
		return nil, fmt.Errorf("csr: unreasonable counts (n=%d listed=%d)", n, listed)
	}
	if want := NumListed(int(n), int(parts), int(part)); int(listed) != want {
		return nil, fmt.Errorf("csr: header claims %d stored vertices, partition %d/%d of %d vertices has %d",
			listed, part, parts, n, want)
	}
	offsLen := (listed + 1) * 8
	if uint64(len(data)-HeaderSize) != offsLen+payloadLen {
		return nil, fmt.Errorf("csr: file is %d bytes, header implies %d",
			len(data), uint64(HeaderSize)+offsLen+payloadLen)
	}
	offs := data[HeaderSize : HeaderSize+offsLen]
	payload := data[HeaderSize+offsLen:]

	crc := crc32.NewIEEE()
	crc.Write(offs)
	crc.Write(payload)
	if got := crc.Sum32(); got != wantCRC {
		return nil, fmt.Errorf("csr: checksum mismatch: file says %08x, content is %08x", wantCRC, got)
	}

	f := &File{
		data:    data,
		offs:    offs,
		payload: payload,
		n:       int(n),
		listed:  int(listed),
		parts:   int(parts),
		part:    int(part),
		flags:   flags,
	}
	// Validate the offset table and every encoding now, so List never
	// hands out bytes a downstream lazy decode could choke on.
	prev := uint64(0)
	for i := 0; i <= f.listed; i++ {
		off := binary.LittleEndian.Uint64(offs[i*8:])
		if off < prev || off > payloadLen {
			return nil, fmt.Errorf("csr: offset %d out of order (%d after %d, payload %d)", i, off, prev, payloadLen)
		}
		if i > 0 {
			l := graph.AdjListFromBytes(payload[prev:off])
			if err := l.ValidateIn(f.n); err != nil {
				return nil, fmt.Errorf("csr: slot %d: %w", i-1, err)
			}
		}
		prev = off
	}
	if prev != payloadLen {
		return nil, fmt.Errorf("csr: last offset %d != payload length %d", prev, payloadLen)
	}
	return f, nil
}

// Open memory-maps the CSR file at path (read-only; falls back to a
// heap read on platforms without mmap) and validates it with Decode.
func Open(path string) (*File, error) {
	osf, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("csr: %w", err)
	}
	defer osf.Close()
	st, err := osf.Stat()
	if err != nil {
		return nil, fmt.Errorf("csr: stat %s: %w", path, err)
	}
	data, unmap, err := mapFile(osf, st.Size())
	if err != nil {
		return nil, fmt.Errorf("csr: map %s: %w", path, err)
	}
	f, err := Decode(data)
	if err != nil {
		if unmap != nil {
			unmap()
		}
		return nil, fmt.Errorf("csr: %s: %w", path, err)
	}
	f.unmap = unmap
	return f, nil
}

// Close releases the memory mapping, if any. Outstanding AdjLists from
// List become invalid.
func (f *File) Close() error {
	if f.unmap == nil {
		return nil
	}
	u := f.unmap
	f.unmap = nil
	f.data, f.offs, f.payload = nil, nil, nil
	return u()
}

// NumVertices returns the global vertex count of the stored graph.
func (f *File) NumVertices() int { return f.n }

// NumListed returns how many vertices this file stores.
func (f *File) NumListed() int { return f.listed }

// Partition returns the (part, parts) hash-partition coordinates.
func (f *File) Partition() (part, parts int) { return f.part, f.parts }

// DegreeOrdered reports whether the header carries FlagDegreeOrdered.
func (f *File) DegreeOrdered() bool { return f.flags&FlagDegreeOrdered != 0 }

// SizeBytes returns the total image size.
func (f *File) SizeBytes() int64 { return int64(len(f.data)) }

// Owns reports whether v is stored in this file.
func (f *File) Owns(v int64) bool {
	return v >= 0 && v < int64(f.n) && int(v%int64(f.parts)) == f.part
}

// List returns the compact adjacency list of v, zero-copy. The only
// errors are ownership errors (out of range, or v lives in another
// partition): the content was validated at Decode.
func (f *File) List(v int64) (graph.AdjList, error) {
	if v < 0 || v >= int64(f.n) {
		return graph.AdjList{}, fmt.Errorf("csr: vertex %d out of range [0,%d)", v, f.n)
	}
	if int(v%int64(f.parts)) != f.part {
		return graph.AdjList{}, fmt.Errorf("csr: vertex %d not stored in partition %d/%d", v, f.part, f.parts)
	}
	slot := int(v / int64(f.parts))
	lo := binary.LittleEndian.Uint64(f.offs[slot*8:])
	hi := binary.LittleEndian.Uint64(f.offs[(slot+1)*8:])
	return graph.AdjListFromBytes(f.payload[lo:hi]), nil
}
