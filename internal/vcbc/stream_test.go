package vcbc

import (
	"bufio"
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"benu/internal/graph"
)

func TestStreamRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cover := []int{0, 2}
	free := []int{1, 3}
	var codes []*Code
	for i := 0; i < 50; i++ {
		c := &Code{
			CoverVertices: cover,
			FreeVertices:  free,
			Helve:         []int64{rng.Int63n(1000), rng.Int63n(1000)},
			Images:        randImages(rng, 2, 500),
		}
		codes = append(codes, c)
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, cover, free, [][2]int{{1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range codes {
		if err := w.Write(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Codes() != 50 {
		t.Errorf("writer counted %d codes", w.Codes())
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Cover(), cover) || !reflect.DeepEqual(r.Free(), free) {
		t.Fatalf("header mismatch: %v %v", r.Cover(), r.Free())
	}
	if !reflect.DeepEqual(r.Constraints(), [][2]int{{1, 3}}) {
		t.Fatalf("constraints lost: %v", r.Constraints())
	}
	ord := graph.IdentityOrder(1000)
	for i := 0; ; i++ {
		got, err := r.Next()
		if err == io.EOF {
			if i != len(codes) {
				t.Fatalf("decoded %d codes, want %d", i, len(codes))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		want := codes[i]
		if !reflect.DeepEqual(got.Helve, want.Helve) {
			t.Fatalf("code %d helve mismatch", i)
		}
		if !reflect.DeepEqual(got.Images, want.Images) {
			t.Fatalf("code %d images mismatch", i)
		}
		if got.Count(nil, ord) != want.Count(nil, ord) {
			t.Fatalf("code %d count changed after round trip", i)
		}
	}
}

func TestStreamEmpty(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, []int{0}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("empty stream Next = %v, want EOF", err)
	}
}

func TestStreamRejectsShapeMismatch(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, []int{0, 1}, []int{2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := &Code{Helve: []int64{1}, Images: [][]int64{{2}}}
	if err := w.Write(bad); err == nil {
		t.Error("shape mismatch accepted")
	}
}

// TestStreamRejectsBadConstraints: an order constraint must relate two
// distinct free vertices. Count and Expand disagree on anything else (the
// fuzz crasher was a self-constraint on a lone free vertex: Count 4,
// Expand 0), so the Writer refuses to write such a header and the Reader
// to read one.
func TestStreamRejectsBadConstraints(t *testing.T) {
	// header is a stream header as NewWriter lays it out, without its checks.
	header := func(cover, free []int, constraints [][2]int) []byte {
		var buf bytes.Buffer
		sw := &Writer{w: bufio.NewWriter(&buf)}
		flat := []int{}
		for _, c := range constraints {
			flat = append(flat, c[0], c[1])
		}
		_ = sw.uvarint(streamMagic)
		_ = sw.uvarint(streamVersion)
		_ = sw.intList(cover)
		_ = sw.intList(free)
		_ = sw.intList(flat)
		_ = sw.Flush()
		return buf.Bytes()
	}
	for _, tc := range []struct {
		name        string
		cover, free []int
		constraints [][2]int
		ok          bool
	}{
		{"none", []int{0, 2}, []int{1, 3}, nil, true},
		{"two free vertices", []int{0, 2}, []int{1, 3}, [][2]int{{1, 3}}, true},
		{"self", nil, []int{5}, [][2]int{{5, 5}}, false},
		{"self among several", []int{0}, []int{1, 3}, [][2]int{{1, 3}, {3, 3}}, false},
		{"cover vertex", []int{0, 2}, []int{1, 3}, [][2]int{{0, 3}}, false},
		{"unknown vertex", []int{0, 2}, []int{1, 3}, [][2]int{{1, 7}}, false},
	} {
		_, werr := NewWriter(io.Discard, tc.cover, tc.free, tc.constraints)
		_, rerr := NewReader(bytes.NewReader(header(tc.cover, tc.free, tc.constraints)))
		if (werr == nil) != tc.ok || (rerr == nil) != tc.ok {
			t.Errorf("%s: NewWriter err = %v, NewReader err = %v; want accepted = %v", tc.name, werr, rerr, tc.ok)
		}
	}
}

func TestStreamRejectsGarbage(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte{0x01, 0x02})); err == nil {
		t.Error("garbage header accepted")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

func TestStreamTruncation(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, []int{0}, []int{1}, nil)
	_ = w.Write(&Code{Helve: []int64{42}, Images: [][]int64{{1, 2, 3}}})
	_ = w.Flush()
	full := buf.Bytes()
	// Chop mid-code: every truncation point after the header must error
	// (not EOF) or cleanly EOF at a code boundary.
	r, err := NewReader(bytes.NewReader(full[:len(full)-2]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Errorf("truncated code: err = %v, want a decode error", err)
	}
}
