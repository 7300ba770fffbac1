package kv

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"benu/internal/gen"
	"benu/internal/graph"
	"benu/internal/resilience"
	"benu/internal/varint"
)

// fakeNode is a storage node that frames correctly but answers whatever
// reply(keys) builds — the peer the client's reply checks exist for.
// reply may be swapped between calls.
type fakeNode struct {
	ln    net.Listener
	reply atomic.Pointer[func(keys []int64) []byte]
	wg    sync.WaitGroup
}

func startFakeNode(t *testing.T, reply func(keys []int64) []byte) *fakeNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n := &fakeNode{ln: ln}
	n.reply.Store(&reply)
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			n.wg.Add(1)
			go func() {
				defer n.wg.Done()
				defer conn.Close()
				br := bufio.NewReader(conn)
				for {
					req, err := readFrame(br, nil, maxRequestFrame)
					if err != nil {
						return
					}
					keys, err := decodeRequest(req, nil)
					if err != nil {
						return
					}
					if _, err := conn.Write((*n.reply.Load())(keys)); err != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() { ln.Close(); n.wg.Wait() })
	return n
}

// honestReply answers every key with the adjacency list {key+1}.
func honestReply(keys []int64) []byte {
	lists := make([]graph.AdjList, len(keys))
	for i, v := range keys {
		lists[i] = graph.EncodeAdjList([]int64{v + 1})
	}
	return appendReply(nil, lists)
}

func poolIdle(c *Client, p int) int {
	c.pools[p].mu.Lock()
	defer c.pools[p].mu.Unlock()
	return len(c.pools[p].idle)
}

// TestClientRejectsMalformedReplies: a node that frames correctly but
// lies inside the frame must fail the whole batch with (nil, err) — no
// partially filled slice a cache could install — cost the client the
// connection it can no longer trust, and leave the pool working.
func TestClientRejectsMalformedReplies(t *testing.T) {
	cases := map[string]func(keys []int64) []byte{
		"one list short": func(keys []int64) []byte {
			return honestReply(keys[1:])
		},
		"one list extra": func(keys []int64) []byte {
			return honestReply(append(keys, 7))
		},
		"corrupt varints in a payload": func(keys []int64) []byte {
			// Claims three neighbours, then a varint that never ends.
			bad := graph.AdjListFromBytes([]byte{3, 1, 0x80})
			lists := []graph.AdjList{graph.EncodeAdjList([]int64{1}), bad}
			return appendReply(nil, lists[:len(keys)])
		},
		"unsorted payload": func(keys []int64) []byte {
			lists := make([]graph.AdjList, len(keys))
			for i := range lists {
				lists[i] = graph.AdjListFromBytes([]byte{2, 5, 0}) // {5, 5}
			}
			return appendReply(nil, lists)
		},
		"list length past the frame": func(keys []int64) []byte {
			buf := append([]byte{0, 0, 0, 0, statusOK}, byte(len(keys)), 200, 1)
			return finishFrame(buf)
		},
		"trailing bytes": func(keys []int64) []byte {
			return finishFrame(append(honestReply(keys), 0))
		},
		"unknown status": func(keys []int64) []byte {
			return finishFrame([]byte{0, 0, 0, 0, 9})
		},
		"empty frame": func(keys []int64) []byte {
			return []byte{0, 0, 0, 0}
		},
		"frame above the cap": func(keys []int64) []byte {
			return []byte{0xff, 0xff, 0xff, 0xff}
		},
	}
	for name, bad := range cases {
		t.Run(name, func(t *testing.T) {
			node := startFakeNode(t, honestReply)
			client, err := Dial([]string{node.ln.Addr().String()}, 100)
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			if _, err := client.GetAdjBatch([]int64{1, 2}); err != nil {
				t.Fatalf("honest node: %v", err)
			}

			node.reply.Store(&bad)
			lists, err := client.GetAdjBatch([]int64{1, 2})
			if err == nil || lists != nil {
				t.Fatalf("malformed reply accepted: lists=%v err=%v", lists, err)
			}
			if isServerError(err) {
				t.Fatalf("format violation reported as an application error: %v", err)
			}
			if n := poolIdle(client, 0); n != 0 {
				t.Fatalf("%d connections pooled after a malformed reply, want 0", n)
			}

			honest := honestReply
			node.reply.Store(&honest)
			lists, err = client.GetAdjBatch([]int64{1, 2})
			if err != nil {
				t.Fatalf("pool unusable after a malformed reply: %v", err)
			}
			if adj, _ := lists[1].Decode(); len(adj) != 1 || adj[0] != 3 {
				t.Fatalf("adj(2) = %v, want [3]", adj)
			}
		})
	}
}

// TestServerErrorClassification pins the application-error split:
// kv.ServerError survives wrapping (errors.As), keeps the connection,
// and is never worth a retry or a replica failover.
func TestServerErrorClassification(t *testing.T) {
	node := startFakeNode(t, func([]int64) []byte {
		return appendErrorReply(nil, "kv: vertex 5 not stored in this partition")
	})
	client, err := Dial([]string{node.ln.Addr().String()}, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	_, err = client.GetAdjBatch([]int64{5})
	var se ServerError
	if !errors.As(err, &se) || !strings.Contains(string(se), "not stored") {
		t.Fatalf("err = %v, want a wrapped ServerError carrying the node's message", err)
	}
	if !isServerError(fmt.Errorf("outer: %w", err)) {
		t.Error("isServerError lost the error under a second wrap")
	}
	if isServerError(io.ErrUnexpectedEOF) || isServerError(badFrame("empty reply")) {
		t.Error("transport and format errors classified as application errors")
	}
	if replicaRetryable(err) {
		t.Error("a ServerError would be retried on the next replica")
	}
	if !replicaRetryable(io.ErrUnexpectedEOF) {
		t.Error("a transport error would not fail over")
	}
	if n := poolIdle(client, 0); n != 1 {
		t.Errorf("application error cost a socket: %d idle, want 1", n)
	}
}

// gateStore blocks GetAdjBatch calls while its gate is shut: the first
// `wedge` calls wait for open, later ones pass straight through.
type gateStore struct {
	Store
	wedge   atomic.Int32
	entered chan struct{}
	open    chan struct{}
}

func (s *gateStore) GetAdjBatch(vs []int64) ([]graph.AdjList, error) {
	if s.wedge.Add(-1) >= 0 {
		s.entered <- struct{}{}
		<-s.open
	}
	return s.Store.GetAdjBatch(vs)
}

func newGateStore(inner Store, wedge int32) *gateStore {
	s := &gateStore{Store: inner, entered: make(chan struct{}, 1), open: make(chan struct{})}
	s.wedge.Store(wedge)
	return s
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func (s *Server) openConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// TestResilientAbandonedAttemptKeepsItsConnection: an attempt abandoned
// by Resilient's per-attempt deadline is mid-read on its connection. The
// retry must run on another one, and the wedged connection may return to
// the pool only once its own round trip has completed — never half-read.
func TestResilientAbandonedAttemptKeepsItsConnection(t *testing.T) {
	g := gen.DemoDataGraph()
	store := newGateStore(NewLocal(g), 1)
	srv, err := Serve("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial([]string{srv.Addr()}, g.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	res := NewResilient(client, ResilientOptions{
		Policy: resilience.Policy{
			MaxAttempts: 2,
			BaseBackoff: 10 * time.Microsecond,
			MaxBackoff:  50 * time.Microsecond,
			Timeout:     200 * time.Millisecond,
		},
		DisableBreaker: true,
	})

	want, _ := GetAdj(NewLocal(g), 3)
	got, err := GetAdj(res, 3)
	if err != nil {
		t.Fatalf("retry after an abandoned attempt: %v", err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("adj(3) = %v, want %v", got, want)
	}
	<-store.entered // the first attempt is still wedged inside the node
	if n := poolIdle(client, 0); n != 1 {
		t.Fatalf("%d idle connections while an attempt is wedged, want 1 (the retry's)", n)
	}
	if n := srv.openConns(); n != 2 {
		t.Fatalf("%d connections at the node, want 2", n)
	}

	close(store.open) // the abandoned round trip completes and parks its connection
	waitFor(t, "the abandoned attempt to return its connection", func() bool { return poolIdle(client, 0) == 2 })
	for i := 0; i < 2; i++ { // both pooled connections are in sync
		conn, pooled, err := client.pools[0].get()
		if err != nil || !pooled {
			t.Fatalf("get %d: pooled=%v err=%v", i, pooled, err)
		}
		out := make([]graph.AdjList, 1)
		if _, err := conn.roundTrip([]int64{3}, oneIdx, out); err != nil {
			t.Fatalf("pooled connection %d out of sync: %v", i, err)
		}
		if adj, _ := out[0].Decode(); fmt.Sprint(adj) != fmt.Sprint(want) {
			t.Fatalf("pooled connection %d answered %v, want %v", i, adj, want)
		}
		defer client.pools[0].put(conn)
	}
}

// TestCloseDuringCallLeavesNoSocket: a connection that is out on a call
// when Client.Close runs is closed when the call returns it, instead of
// being parked in a pool nobody will flush again.
func TestCloseDuringCallLeavesNoSocket(t *testing.T) {
	g := gen.DemoDataGraph()
	store := newGateStore(NewLocal(g), 1)
	srv, err := Serve("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial([]string{srv.Addr()}, g.NumVertices())
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := GetAdj(client, 0)
		done <- err
	}()
	<-store.entered
	client.Close()
	close(store.open)
	if err := <-done; err != nil {
		t.Fatalf("in-flight call: %v", err)
	}
	if n := poolIdle(client, 0); n != 0 {
		t.Fatalf("%d connections parked in a closed client's pool", n)
	}
	waitFor(t, "the node to see the connection close", func() bool { return srv.openConns() == 0 })
}

// TestServerClosesNonProtocolPeers: whatever a peer sends, the node
// answers with a closed connection or a well-formed frame — and keeps
// serving everyone else.
func TestServerClosesNonProtocolPeers(t *testing.T) {
	g := gen.DemoDataGraph()
	srv, err := Serve("127.0.0.1:0", NewLocal(g))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	tooManyKeys := finishFrame(varint.Append([]byte{0, 0, 0, 0}, maxBatchKeys+1))
	hostile := map[string][]byte{
		"http":                 []byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"),
		"gob rpc preamble":     {0x2a, 0xff, 0x81, 0x03, 0x01, 0x01, 0x07, 'R', 'e', 'q', 'u', 'e', 's', 't'},
		"frame above the cap":  {0x00, 0xa0, 0x00, 0x0b},
		"count above the cap":  tooManyKeys,
		"count above the body": finishFrame([]byte{0, 0, 0, 0, 5, 1, 2}),
		"trailing bytes":       finishFrame([]byte{0, 0, 0, 0, 1, 3, 3}),
		"unterminated varint":  finishFrame([]byte{0, 0, 0, 0, 1, 0x80}),
		"id above int64":       finishFrame(varint.Append([]byte{0, 0, 0, 0, 1}, 1<<63)),
		"empty body":           {0, 0, 0, 0},
	}
	for name, bytes := range hostile {
		t.Run(name, func(t *testing.T) {
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(bytes); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			n, err := conn.Read(make([]byte, 1))
			var ne net.Error
			if n != 0 || err == nil || (errors.As(err, &ne) && ne.Timeout()) {
				t.Fatalf("node answered a non-protocol peer: n=%d err=%v, want a closed connection", n, err)
			}
		})
	}
	t.Run("truncated frame then hang-up", func(t *testing.T) {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.Write([]byte{0, 0, 0, 9, 1})
		conn.Close()
	})
	waitFor(t, "hostile connections to be dropped", func() bool { return srv.openConns() == 0 })

	client, err := Dial([]string{srv.Addr()}, g.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := GetAdj(client, 0); err != nil {
		t.Fatalf("node stopped serving after hostile peers: %v", err)
	}
	// An out-of-range id is the store's to reject: an error frame, and
	// the connection lives on.
	conn, _, err := client.pools[0].get()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.conn.Close()
	out := make([]graph.AdjList, 1)
	if _, err := conn.roundTrip([]int64{1 << 40}, oneIdx, out); !isServerError(err) {
		t.Fatalf("out-of-range id: err = %v, want a ServerError", err)
	}
	if _, err := conn.roundTrip([]int64{0}, oneIdx, out); err != nil {
		t.Fatalf("connection unusable after an error frame: %v", err)
	}
}

// TestBatchLargerThanOneFrame: the key cap is the wire's, not the
// caller's — a group above maxBatchKeys is split over several frames.
func TestBatchLargerThanOneFrame(t *testing.T) {
	g := gen.DemoDataGraph()
	srv, err := Serve("127.0.0.1:0", NewLocal(g))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial([]string{srv.Addr()}, g.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	vs := make([]int64, maxBatchKeys+maxBatchKeys/2)
	for i := range vs {
		vs[i] = int64(i % g.NumVertices())
	}
	lists, err := client.GetAdjBatch(vs)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, maxBatchKeys - 1, maxBatchKeys, len(vs) - 1} {
		if lists[i].Len() != g.Degree(vs[i]) {
			t.Fatalf("position %d (vertex %d): %d neighbours, want %d", i, vs[i], lists[i].Len(), g.Degree(vs[i]))
		}
	}
	if m := client.Metrics(); m.Trips() != 2 || m.Queries() != int64(len(vs)) {
		t.Errorf("trips=%d queries=%d, want 2 trips for %d keys", m.Trips(), m.Queries(), len(vs))
	}
}

// TestReplyAboveCapBecomesErrorFrame: a reply the client would refuse to
// read is never sent; the node reports it as an application error.
func TestReplyAboveCapBecomesErrorFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 64 MiB frame")
	}
	hub := graph.AdjListFromBytes(make([]byte, 1<<20))
	lists := make([]graph.AdjList, maxReplyFrame>>20+1)
	for i := range lists {
		lists[i] = hub
	}
	frame := appendReply(nil, lists)
	if len(frame) > 1024 {
		t.Fatalf("over-cap reply encoded as a %d-byte frame", len(frame))
	}
	_, err := decodeReply(frame[frameHeaderLen:], make([]int, len(lists)), make([]graph.AdjList, 1), 1)
	if !isServerError(err) || !strings.Contains(err.Error(), "frame cap") {
		t.Fatalf("err = %v, want a ServerError naming the frame cap", err)
	}
	// At the cap's edge the reply still goes out.
	if frame = appendReply(frame, lists[:len(lists)-2]); frame[frameHeaderLen] != statusOK {
		t.Fatal("a reply below the cap was refused")
	}
}

// allocFreeStore answers every batch from one preallocated slice, so the
// only allocations left on the node are the codec's own.
type allocFreeStore struct {
	lists []graph.AdjList
}

func (s *allocFreeStore) GetAdjBatch(vs []int64) ([]graph.AdjList, error) {
	return s.lists[:len(vs)], nil
}
func (s *allocFreeStore) NumVertices() int { return 1 << 20 }

// TestTCPTripAllocs pins the round trip's allocation budget over a live
// loopback pair. A single-key trip costs the client exactly two
// allocations — GetAdjBatch's result slice and the one payload copy that
// lets a cached list outlive the connection's frame buffer — and the
// node, whose buffers are warm, none: AllocsPerRun counts the whole
// process, so the serving goroutine's codec is inside the measurement.
// A 64-key batch costs 1 + 64 by the same arithmetic, and exactly as much
// when it spans two nodes: the grouping and the connections the gather
// holds between its two phases live in pooled scratch.
func TestTCPTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; AllocsPerRun counts are not meaningful")
	}
	store := &allocFreeStore{lists: make([]graph.AdjList, 64)}
	for i := range store.lists {
		store.lists[i] = graph.EncodeAdjList([]int64{int64(i), int64(i) + 3, int64(i) + 400})
	}
	var addrs []string
	for i := 0; i < 2; i++ {
		srv, err := Serve("127.0.0.1:0", store)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs = append(addrs, srv.Addr())
	}
	dial := func(addrs []string) *Client {
		client, err := Dial(addrs, store.NumVertices())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(client.Close)
		return client
	}
	oneNode, twoNodes := dial(addrs[:1]), dial(addrs)

	one := []int64{12345}
	batch := make([]int64, 64)
	for i := range batch {
		batch[i] = int64(i * 37)
	}
	for _, tc := range []struct {
		name   string
		client *Client
		keys   []int64
		budget float64
	}{
		{"single key", oneNode, one, 2},
		{"64 keys", oneNode, batch, 1 + 64},
		{"64 keys over two nodes", twoNodes, batch, 1 + 64},
	} {
		get := func() {
			if _, err := tc.client.GetAdjBatch(tc.keys); err != nil {
				t.Fatal(err)
			}
		}
		get() // warm: dial, size both ends' buffers
		if allocs := testing.AllocsPerRun(200, get); allocs != tc.budget {
			t.Errorf("%s: %.1f allocations per round trip, want exactly %.0f "+
				"(result slice + one copy per payload; the codec and the node add none)",
				tc.name, allocs, tc.budget)
		}
	}
}
