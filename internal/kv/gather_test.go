package kv

import (
	"strings"
	"testing"
	"time"

	"benu/internal/graph"
)

// Tests for the scatter-then-gather path of Client.GetAdjBatch: a batch
// that is not a single key writes every partition's request before it
// reads any reply. Each test spans two nodes and checks, beyond the
// outcome, which connections are pooled afterwards and that a pooled
// connection is in sync — an unread reply left on it would answer the
// next request with the previous request's lists.

// twoFakeNodes starts two fake storage nodes and a client over them:
// even vertices live on node 0, odd ones on node 1.
func twoFakeNodes(t *testing.T) (nodes [2]*fakeNode, client *Client) {
	t.Helper()
	for i := range nodes {
		nodes[i] = startFakeNode(t, honestReply)
	}
	client, err := Dial([]string{nodes[0].ln.Addr().String(), nodes[1].ln.Addr().String()}, 100)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	return nodes, client
}

// wantHonest checks that lists answer vs the way honestReply does.
func wantHonest(t *testing.T, vs []int64, lists []graph.AdjList) {
	t.Helper()
	if len(lists) != len(vs) {
		t.Fatalf("%d lists for %d keys", len(lists), len(vs))
	}
	for i, v := range vs {
		if adj, _ := lists[i].Decode(); len(adj) != 1 || adj[0] != v+1 {
			t.Fatalf("adj(%d) = %v, want [%d]: a reply was matched to the wrong request", v, adj, v+1)
		}
	}
}

func wantIdle(t *testing.T, c *Client, want0, want1 int) {
	t.Helper()
	if n0, n1 := poolIdle(c, 0), poolIdle(c, 1); n0 != want0 || n1 != want1 {
		t.Fatalf("idle connections per partition = %d, %d, want %d, %d", n0, n1, want0, want1)
	}
}

func TestGatherSpansPartitions(t *testing.T) {
	_, client := twoFakeNodes(t)
	for _, vs := range [][]int64{{1, 2}, {4, 6, 9, 3, 8}, {5, 7}, {2, 4}} {
		lists, err := client.GetAdjBatch(vs)
		if err != nil {
			t.Fatal(err)
		}
		wantHonest(t, vs, lists)
	}
	wantIdle(t, client, 1, 1)
	if m := client.Metrics(); m.Trips() != 6 || m.Queries() != 11 {
		t.Errorf("trips=%d queries=%d, want 6 trips (one per partition a batch touches) for 11 keys", m.Trips(), m.Queries())
	}
}

// twoRealNodes serves the same v → {v+1} lists from two kv.Serve nodes,
// whose Close severs established connections the way a crash does.
func twoRealNodes(t *testing.T) (srvs [2]*Server, stores [2]Store, client *Client) {
	t.Helper()
	var addrs []string
	for part := range srvs {
		m := map[int64][]int64{}
		for v := int64(part); v < 100; v += 2 {
			m[v] = []int64{v + 1}
		}
		stores[part] = NewMapStore(m, 100)
		srv, addr := restartableServer(t, stores[part])
		t.Cleanup(func() { srv.Close() })
		srvs[part], addrs = srv, append(addrs, addr)
	}
	client, err := Dial(addrs, 100)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	return srvs, stores, client
}

// TestGatherRedialsAfterNodeRestart: one of the two nodes restarts
// between batches, so the client's pooled connection to it is dead. The
// gather fails on that leg and the batch re-runs through call, which
// flushes and redials once.
func TestGatherRedialsAfterNodeRestart(t *testing.T) {
	srvs, stores, client := twoRealNodes(t)
	vs := []int64{0, 1, 2, 3}
	lists, err := client.GetAdjBatch(vs)
	if err != nil {
		t.Fatal(err)
	}
	wantHonest(t, vs, lists)

	addr := srvs[1].Addr()
	srvs[1].Close()
	var again *Server
	for i := 0; i < 50; i++ { // the old listener may take a moment to release the port
		if again, err = Serve(addr, stores[1]); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer again.Close()

	vs = []int64{4, 5, 6, 7}
	if lists, err = client.GetAdjBatch(vs); err != nil {
		t.Fatalf("batch over a restarted node did not redial: %v", err)
	}
	wantHonest(t, vs, lists)
	wantIdle(t, client, 1, 1)
	vs = []int64{8, 9}
	if lists, err = client.GetAdjBatch(vs); err != nil {
		t.Fatal(err)
	}
	wantHonest(t, vs, lists)
}

// TestGatherWithANodeDown: no partial results, a transport-class error
// (retryable, worth a failover), and the live partition's connection
// parked in sync.
func TestGatherWithANodeDown(t *testing.T) {
	srvs, _, client := twoRealNodes(t)
	if _, err := client.GetAdjBatch([]int64{0, 1}); err != nil {
		t.Fatal(err)
	}
	srvs[1].Close()

	lists, err := client.GetAdjBatch([]int64{2, 3, 4})
	if err == nil || lists != nil {
		t.Fatalf("batch over a dead node: lists=%v err=%v, want (nil, err)", lists, err)
	}
	if isServerError(err) || !replicaRetryable(err) {
		t.Fatalf("a dead node reported as %v: want a retryable transport error", err)
	}
	if !strings.Contains(err.Error(), srvs[1].Addr()) {
		t.Errorf("error does not name the dead node: %v", err)
	}
	wantIdle(t, client, 1, 0)
	vs := []int64{6, 8}
	if lists, err = client.GetAdjBatch(vs); err != nil {
		t.Fatalf("the live partition is unusable after its neighbour died: %v", err)
	}
	wantHonest(t, vs, lists)
}

// TestGatherServerErrorParksBothConnections: the second leg answers with
// an error frame. The batch fails as an application error naming that
// node — no retry, no failover — and both connections, each with its
// reply read, go back to their pools.
func TestGatherServerErrorParksBothConnections(t *testing.T) {
	nodes, client := twoFakeNodes(t)
	refuse := func([]int64) []byte { return appendErrorReply(nil, "kv: vertex not stored in this partition") }
	nodes[1].reply.Store(&refuse)

	lists, err := client.GetAdjBatch([]int64{0, 1, 2})
	if lists != nil || !isServerError(err) || replicaRetryable(err) {
		t.Fatalf("lists=%v err=%v, want a nil result and a ServerError", lists, err)
	}
	if !strings.Contains(err.Error(), nodes[1].ln.Addr().String()) {
		t.Errorf("error does not name the refusing node: %v", err)
	}
	wantIdle(t, client, 1, 1)

	honest := honestReply
	nodes[1].reply.Store(&honest)
	vs := []int64{4, 5, 6, 7}
	if lists, err = client.GetAdjBatch(vs); err != nil {
		t.Fatal(err)
	}
	wantHonest(t, vs, lists)
	wantIdle(t, client, 1, 1) // the same two connections: nothing was dialed
}

// TestGatherMalformedLegClosesThatConnectionOnly: a reply that breaks the
// format costs the connection it arrived on; the other leg's connection
// stays pooled and in sync.
func TestGatherMalformedLegClosesThatConnectionOnly(t *testing.T) {
	nodes, client := twoFakeNodes(t)
	short := func(keys []int64) []byte { return honestReply(keys[1:]) }
	nodes[1].reply.Store(&short)

	lists, err := client.GetAdjBatch([]int64{0, 1, 2, 3})
	if err == nil || lists != nil || isServerError(err) {
		t.Fatalf("lists=%v err=%v, want a nil result and a format error", lists, err)
	}
	wantIdle(t, client, 1, 0)

	honest := honestReply
	nodes[1].reply.Store(&honest)
	vs := []int64{4, 5, 6, 7}
	if lists, err = client.GetAdjBatch(vs); err != nil {
		t.Fatal(err)
	}
	wantHonest(t, vs, lists)
}

// TestOutOfRangeNeighbourIsAMalformedReply: a node whose list for vertex 0
// ends in an id past the store's vertex count is answered like any other
// format violation — an error that is not a ServerError, its connection
// closed rather than pooled — on the single-key route and in a gather.
// The honest partition's connection stays pooled and in sync.
func TestOutOfRangeNeighbourIsAMalformedReply(t *testing.T) {
	var addrs []string
	for part := 0; part < 2; part++ {
		m := map[int64][]int64{}
		for v := int64(part); v < 50; v += 2 {
			m[v] = []int64{v + 1}
		}
		if part == 0 {
			m[0] = []int64{1, 1000}
		}
		srv, err := Serve("127.0.0.1:0", NewMapStore(m, 50))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs = append(addrs, srv.Addr())
	}
	client, err := Dial(addrs, 50)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)

	for _, vs := range [][]int64{{0}, {0, 1}, {3, 0, 2}} {
		_, err := client.GetAdjBatch(vs)
		if err == nil || isServerError(err) || !strings.Contains(err.Error(), "malformed frame") {
			t.Fatalf("GetAdjBatch(%v) = %v, want a malformed-frame error", vs, err)
		}
		if n := poolIdle(client, 0); n != 0 {
			t.Fatalf("GetAdjBatch(%v): the lying node's connection was pooled (%d idle)", vs, n)
		}
		honest := []int64{1, 2, 3}
		lists, err := client.GetAdjBatch(honest)
		if err != nil {
			t.Fatalf("honest keys after GetAdjBatch(%v): %v", vs, err)
		}
		wantHonest(t, honest, lists)
	}
}
