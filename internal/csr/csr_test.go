package csr

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"benu/internal/gen"
	"benu/internal/graph"
)

// image builds the in-memory CSR bytes for partition part of parts of g.
func image(t testing.TB, g *graph.Graph, parts, part int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, g.NumVertices(), parts, part, 0, g.Adj); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestNumListed(t *testing.T) {
	cases := []struct{ n, parts, part, want int }{
		{10, 1, 0, 10},
		{10, 3, 0, 4}, // 0 3 6 9
		{10, 3, 1, 3}, // 1 4 7
		{10, 3, 2, 3}, // 2 5 8
		{0, 3, 0, 0},
		{2, 4, 3, 0}, // part index beyond every vertex
		{1, 1, 0, 1},
	}
	for _, c := range cases {
		if got := NumListed(c.n, c.parts, c.part); got != c.want {
			t.Errorf("NumListed(%d,%d,%d) = %d, want %d", c.n, c.parts, c.part, got, c.want)
		}
	}
	// Partitions tile the vertex set exactly.
	for _, parts := range []int{1, 2, 3, 7} {
		total := 0
		for p := 0; p < parts; p++ {
			total += NumListed(100, parts, p)
		}
		if total != 100 {
			t.Errorf("parts=%d cover %d vertices, want 100", parts, total)
		}
	}
}

func TestRoundTripSinglePartition(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 300, EdgesPer: 4, Seed: 5})
	f, err := Decode(image(t, g, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if f.NumVertices() != g.NumVertices() || f.NumListed() != g.NumVertices() {
		t.Fatalf("counts: n=%d listed=%d", f.NumVertices(), f.NumListed())
	}
	for v := int64(0); v < int64(g.NumVertices()); v++ {
		l, err := f.List(v)
		if err != nil {
			t.Fatalf("List(%d): %v", v, err)
		}
		adj, err := l.Decode()
		if err != nil {
			t.Fatalf("decode %d: %v", v, err)
		}
		want := g.Adj(v)
		if len(adj) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(adj, want) {
			t.Fatalf("adj(%d) = %v, want %v", v, adj, want)
		}
	}
}

func TestRoundTripShardedCoversGraph(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 101, EdgesPer: 3, Seed: 6})
	const parts = 3
	for part := 0; part < parts; part++ {
		f, err := Decode(image(t, g, parts, part))
		if err != nil {
			t.Fatalf("part %d: %v", part, err)
		}
		gotPart, gotParts := f.Partition()
		if gotPart != part || gotParts != parts {
			t.Fatalf("Partition() = (%d,%d)", gotPart, gotParts)
		}
		for v := int64(0); v < int64(g.NumVertices()); v++ {
			if f.Owns(v) != (int(v)%parts == part) {
				t.Fatalf("Owns(%d) wrong for part %d", v, part)
			}
			l, err := f.List(v)
			if !f.Owns(v) {
				if err == nil {
					t.Fatalf("List(%d) on non-owning part %d accepted", v, part)
				}
				continue
			}
			if err != nil {
				t.Fatalf("List(%d): %v", v, err)
			}
			if l.Len() != g.Degree(v) {
				t.Fatalf("list(%d).Len = %d, want %d", v, l.Len(), g.Degree(v))
			}
		}
		if _, err := f.List(-1); err == nil {
			t.Error("negative vertex accepted")
		}
		if _, err := f.List(int64(g.NumVertices())); err == nil {
			t.Error("out-of-range vertex accepted")
		}
	}
}

func TestOpenMmapRoundTrip(t *testing.T) {
	g := gen.DemoDataGraph()
	path := filepath.Join(t.TempDir(), "g.csr")
	if err := WriteGraphFile(path, g, 1, 0); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := os.Stat(path)
	if f.SizeBytes() != st.Size() {
		t.Errorf("SizeBytes = %d, file is %d", f.SizeBytes(), st.Size())
	}
	for v := int64(0); v < int64(g.NumVertices()); v++ {
		l, err := f.List(v)
		if err != nil {
			t.Fatal(err)
		}
		if l.Len() != g.Degree(v) {
			t.Fatalf("list(%d).Len = %d, want %d", v, l.Len(), g.Degree(v))
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestWriteRejectsBadPartition(t *testing.T) {
	g := gen.DemoDataGraph()
	var buf bytes.Buffer
	if err := Write(&buf, g.NumVertices(), 0, 0, 0, g.Adj); err == nil {
		t.Error("parts=0 accepted")
	}
	if err := Write(&buf, g.NumVertices(), 2, 2, 0, g.Adj); err == nil {
		t.Error("part out of range accepted")
	}
	if err := Write(&buf, -1, 1, 0, 0, g.Adj); err == nil {
		t.Error("negative vertex count accepted")
	}
}

// TestDecodeRejectsCorruption walks a table of corrupted images; every
// one must fail with an error — never a panic, never a silent success.
func TestDecodeRejectsCorruption(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 60, EdgesPer: 3, Seed: 7})
	good := image(t, g, 2, 1)
	if _, err := Decode(good); err != nil {
		t.Fatalf("pristine image rejected: %v", err)
	}

	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		f(b)
		return b
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short header", good[:HeaderSize-1]},
		{"bad magic", mutate(func(b []byte) { b[0] = 'X' })},
		{"bad version", mutate(func(b []byte) { binary.LittleEndian.PutUint32(b[4:8], 99) })},
		{"nonzero padding", mutate(func(b []byte) { b[50] = 1 })},
		{"zero parts", mutate(func(b []byte) { binary.LittleEndian.PutUint32(b[24:28], 0) })},
		{"part >= parts", mutate(func(b []byte) { binary.LittleEndian.PutUint32(b[28:32], 7) })},
		{"listed mismatch", mutate(func(b []byte) {
			binary.LittleEndian.PutUint64(b[16:24], binary.LittleEndian.Uint64(b[16:24])+1)
		})},
		{"absurd counts", mutate(func(b []byte) { binary.LittleEndian.PutUint64(b[8:16], ^uint64(0)) })},
		{"truncated payload", good[:len(good)-1]},
		{"trailing garbage", append(append([]byte(nil), good...), 0)},
		{"payload length lies", mutate(func(b []byte) {
			binary.LittleEndian.PutUint64(b[32:40], binary.LittleEndian.Uint64(b[32:40])+8)
		})},
		{"flipped payload byte", mutate(func(b []byte) { b[len(b)-1] ^= 0xff })},
		{"flipped offset byte", mutate(func(b []byte) { b[HeaderSize+9] ^= 0xff })},
		{"crc mismatch", mutate(func(b []byte) { binary.LittleEndian.PutUint32(b[40:44], 0) })},
	}
	for _, c := range cases {
		if f, err := Decode(c.data); err == nil {
			t.Errorf("%s: corrupt image decoded (n=%d)", c.name, f.NumVertices())
		}
	}
}

// TestDecodeRejectsOutOfRangeNeighbour: an image that is well-formed to
// the last checksum bit but lists a neighbour id past the header's vertex
// count must not open — the executor indexes per-vertex arrays with what
// a store hands it. The error names the slot.
func TestDecodeRejectsOutOfRangeNeighbour(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 60, EdgesPer: 3, Seed: 7})
	for _, bad := range []int64{60, 1000} {
		var buf bytes.Buffer
		err := Write(&buf, g.NumVertices(), 2, 1, 0, func(v int64) []int64 {
			if v == 5 { // slot 2 of partition 1 of 2
				return append(g.AdjCopy(v), bad)
			}
			return g.Adj(v)
		})
		if err != nil {
			t.Fatal(err)
		}
		_, err = Decode(buf.Bytes())
		if err == nil || !strings.Contains(err.Error(), "slot 2") {
			t.Errorf("neighbour %d of 60 vertices: err = %v, want a failure naming slot 2", bad, err)
		}
	}
}

func TestOpenMissingFile(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope.csr")); err == nil {
		t.Error("missing file opened")
	}
}

func TestOpenCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.csr")
	if err := os.WriteFile(path, []byte("BCSR not a real file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Error("corrupt file opened")
	}
}

func TestEmptyGraph(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, 0, 1, 0, 0, func(int64) []int64 { return nil }); err != nil {
		t.Fatal(err)
	}
	f, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if f.NumVertices() != 0 || f.NumListed() != 0 {
		t.Errorf("empty graph: n=%d listed=%d", f.NumVertices(), f.NumListed())
	}
}
