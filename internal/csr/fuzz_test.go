package csr

import (
	"bytes"
	"testing"

	"benu/internal/gen"
)

// FuzzCSRDecode feeds arbitrary bytes to Decode and, when they pass
// validation, reads every stored list. Decode is the trust boundary for
// disk images, so the invariant is the repository-wide decoder contract:
// errors, never panics, and a validated File serves every slot without
// failing.
func FuzzCSRDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(Magic))
	g := gen.DemoDataGraph()
	for _, pp := range [][2]int{{1, 0}, {3, 1}} {
		var buf bytes.Buffer
		if err := Write(&buf, g.NumVertices(), pp[0], pp[1], 0, g.Adj); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		// A near-valid seed: correct header, corrupt tail.
		b := append([]byte(nil), buf.Bytes()...)
		if len(b) > HeaderSize {
			b[len(b)-1] ^= 0xff
		}
		f.Add(b)
	}
	// A well-formed image (checksum included) whose vertex 0 lists a
	// neighbour id past the header's vertex count.
	var lying bytes.Buffer
	if err := Write(&lying, g.NumVertices(), 1, 0, 0, func(v int64) []int64 {
		if v == 0 {
			return append(g.AdjCopy(0), 1000)
		}
		return g.Adj(v)
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(lying.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := Decode(data)
		if err != nil {
			return
		}
		// Validation passed: every owned vertex must be readable and its
		// payload decodable (Decode promised it pre-validated them).
		for v := int64(0); v < int64(file.NumVertices()); v++ {
			if !file.Owns(v) {
				continue
			}
			l, err := file.List(v)
			if err != nil {
				t.Fatalf("List(%d) on validated file: %v", v, err)
			}
			adj, err := l.Decode()
			if err != nil {
				t.Fatalf("slot for %d failed decode after validation: %v", v, err)
			}
			if n := len(adj); n > 0 && adj[n-1] >= int64(file.NumVertices()) {
				t.Fatalf("slot for %d lists neighbour %d of %d vertices", v, adj[n-1], file.NumVertices())
			}
		}
	})
}
