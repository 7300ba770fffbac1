package kv

import (
	"bufio"
	"bytes"
	"math"
	"testing"

	"benu/internal/graph"
)

// The fuzz targets feed arbitrary socket bytes to each end's decoder the
// way the connection loops do: readFrame with that end's cap, then the
// frame decoder. Neither may panic or exceed its cap, and whatever they
// accept must satisfy the invariants the layers above rely on.

// FuzzKVRequestFrame: bytes → the storage node's request decoder.
func FuzzKVRequestFrame(f *testing.F) {
	f.Add(appendRequest(nil, []int64{0}))
	f.Add(appendRequest(nil, []int64{12345}))
	f.Add(appendRequest(nil, []int64{3, 0, 9, 6, 1 << 40, math.MaxInt64}))
	f.Add(appendRequest(nil, nil))
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n"))
	f.Add([]byte{0, 0, 0, 3, 5, 1, 2})       // count above the bytes present
	f.Add([]byte{0, 0, 0, 3, 1, 3, 3})       // trailing byte
	f.Add([]byte{0, 0, 0, 2, 1, 0x80})       // unterminated varint
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1}) // frame above the cap
	f.Fuzz(func(t *testing.T, data []byte) {
		frame, err := readFrame(bufio.NewReader(bytes.NewReader(data)), nil, maxRequestFrame)
		if err != nil {
			return
		}
		if len(frame) > maxRequestFrame {
			t.Fatalf("read a %d-byte request frame past the %d-byte cap", len(frame), maxRequestFrame)
		}
		keys, err := decodeRequest(frame, nil)
		if err != nil {
			return
		}
		if len(keys) > maxBatchKeys || len(keys) > len(frame) {
			t.Fatalf("%d keys decoded from a %d-byte frame (cap %d)", len(keys), len(frame), maxBatchKeys)
		}
		for i, v := range keys {
			if v < 0 {
				t.Fatalf("key %d decoded negative: %d", i, v)
			}
		}
		// What was accepted survives the client's encoder unchanged.
		again, err := decodeRequest(appendRequest(nil, keys)[frameHeaderLen:], nil)
		if err != nil || len(again) != len(keys) {
			t.Fatalf("re-encoded request rejected: %v (%d keys, want %d)", err, len(again), len(keys))
		}
		for i := range keys {
			if again[i] != keys[i] {
				t.Fatalf("key %d changed across a re-encode: %d → %d", i, keys[i], again[i])
			}
		}
	})
}

// FuzzKVReplyFrame: bytes → the client's reply decoder, per-list
// ValidateIn included, for a request of nkeys keys against a store of
// fuzzReplyVertices vertices.
func FuzzKVReplyFrame(f *testing.F) {
	const fuzzReplyVertices = 1 << 20
	reply := func(adjs ...[]int64) []byte {
		lists := make([]graph.AdjList, len(adjs))
		for i, adj := range adjs {
			lists[i] = graph.EncodeAdjList(adj)
		}
		return appendReply(nil, lists)
	}
	f.Add(reply([]int64{1, 2, 3}), uint8(1))
	f.Add(reply([]int64{}, []int64{7}, []int64{0, 5, 1 << 33}), uint8(3))
	f.Add(reply([]int64{1}), uint8(2)) // count mismatch
	f.Add(reply([]int64{1, 2, fuzzReplyVertices - 1}), uint8(1))
	f.Add(reply([]int64{1, 2, fuzzReplyVertices}), uint8(1)) // last id outside the store's vertex range
	f.Add(appendErrorReply(nil, "kv: vertex 5 not stored in this partition"), uint8(1))
	f.Add(appendReply(nil, []graph.AdjList{graph.AdjListFromBytes([]byte{3, 1, 0x80})}), uint8(1)) // corrupt payload
	f.Add(appendReply(nil, []graph.AdjList{graph.AdjListFromBytes([]byte{2, 5, 0})}), uint8(1))    // duplicate neighbour
	f.Add([]byte{0, 0, 0, 4, statusOK, 1, 200, 1}, uint8(1))                                       // list length past the frame
	f.Add([]byte{0, 0, 0, 1, 9}, uint8(1))                                                         // unknown status
	f.Add([]byte{0, 0, 0, 0}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, nkeys uint8) {
		frame, err := readFrame(bufio.NewReader(bytes.NewReader(data)), nil, maxReplyFrame)
		if err != nil {
			return
		}
		if len(frame) > maxReplyFrame {
			t.Fatalf("read a %d-byte reply frame past the %d-byte cap", len(frame), maxReplyFrame)
		}
		idxs := make([]int, nkeys)
		for i := range idxs {
			idxs[i] = int(nkeys) - 1 - i
		}
		out := make([]graph.AdjList, nkeys)
		n, err := decodeReply(frame, idxs, out, fuzzReplyVertices)
		if err != nil {
			return
		}
		var total int64
		for i, l := range out {
			if err := l.ValidateIn(fuzzReplyVertices); err != nil {
				t.Fatalf("accepted list %d does not validate: %v", i, err)
			}
			if _, err := l.Decode(); err != nil {
				t.Fatalf("accepted list %d does not decode: %v", i, err)
			}
			total += l.SizeBytes()
		}
		if n != total || n > int64(len(frame)) {
			t.Fatalf("reported %d payload bytes; lists hold %d, frame %d", n, total, len(frame))
		}
	})
}
