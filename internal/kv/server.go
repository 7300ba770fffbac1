package kv

import (
	"bufio"
	"fmt"
	"net"
	"sync"

	"benu/internal/graph"
)

// This file provides the networked backend: an adjacency-set store served
// over TCP in the binary frame format of wire.go. A distributed
// deployment runs one Server per storage node, each holding a hash
// partition of the data graph, and every worker machine connects a Client
// to all of them. The distributed example and the integration tests
// exercise this path end to end; the simulated cluster defaults to the
// in-process backends for speed.

// Server is one storage node: a TCP listener serving a Store, one
// goroutine per connection.
type Server struct {
	listener net.Listener
	store    Store
	wg       sync.WaitGroup

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

// Serve starts a storage node on addr (e.g. "127.0.0.1:0") serving store.
// It returns once the listener is bound; connections are handled in the
// background until Close.
func Serve(addr string, store Store) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("kv: listen %s: %w", addr, err)
	}
	srv := &Server{listener: ln, store: store}
	srv.wg.Add(1)
	go srv.acceptLoop()
	return srv, nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		if s.conns == nil {
			s.conns = make(map[net.Conn]struct{})
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			conn.Close()
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// serveConn answers requests on conn, one at a time and inline — read a
// frame, ask the store, encode into the connection's reply buffer, one
// Write — until the peer hangs up, the connection fails, or the peer
// sends something that is not a request (the caller then closes conn).
// A store error is the peer's answer, not the connection's end.
//
//benulint:hotpath the storage node's per-request loop; all three buffers are connection-owned and reused
func (s *Server) serveConn(conn net.Conn) {
	br := bufio.NewReader(conn)
	var (
		req, rep []byte
		keys     []int64
		err      error
	)
	for {
		if req, err = readFrame(br, req, maxRequestFrame); err != nil {
			return
		}
		if keys, err = decodeRequest(req, keys); err != nil {
			return
		}
		if lists, err := s.store.GetAdjBatch(keys); err != nil {
			rep = appendErrorReply(rep, err.Error())
		} else {
			rep = appendReply(rep, lists)
		}
		if _, err = conn.Write(rep); err != nil {
			return
		}
		rep = retained(rep) // req never outgrows maxRequestFrame, which is below the bound
	}
}

// Addr returns the server's bound address.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// Close stops the node like a crash would: the listener and every
// established connection are severed at once, so clients holding pooled
// connections observe transport errors on their next call (the failure
// mode connPool's flush-and-redial exists for).
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.listener.Close()
	for c := range s.conns {
		c.Close()
	}
	s.conns = nil
	return err
}

// Client is a Store backed by a set of remote storage nodes, one per hash
// partition. Each remote node gets a small connection pool so concurrent
// worker threads do not serialize on one socket.
type Client struct {
	addrs []string
	n     int
	pools []*connPool
	// metrics counts remote traffic observed by this client.
	metrics Metrics
	// scratch pools the *clientScratch of multi-key batches: they run on
	// every executor thread's hot path, and rebuilding the
	// partition→positions grouping per call was the dominant per-batch
	// allocation.
	scratch sync.Pool
}

// connPool is a tiny round-robin-free pool: take a connection, return
// it. Connections that hit a transport error must never be returned —
// call discards them and flushes the pool instead, since every idle
// connection was likely severed by the same event (a storage-node
// restart kills all of them at once).
type connPool struct {
	addr   string
	n      int // global vertex count: the id domain a reply's lists must stay inside
	mu     sync.Mutex
	idle   []*wireConn
	closed bool // Client.Close ran: connections still out are closed on put
}

// wireConn is one pooled connection. Between get and put it belongs to
// one caller, which encodes into, writes from, and reads back into buf
// itself — no reader goroutine, no request ids.
type wireConn struct {
	conn net.Conn
	br   *bufio.Reader
	buf  []byte // the request frame, then the reply frame; reused across round trips
	n    int    // the pool's vertex count, handed to decodeReply
}

// roundTrip asks the node for keys (at most maxBatchKeys), installs list
// j at out[idxs[j]], and returns the payload bytes received. A
// ServerError leaves the connection in sync and reusable; after any
// other error it must be closed.
//
//benulint:hotpath every DB cache demand miss of every executor thread passes through here
func (w *wireConn) roundTrip(keys []int64, idxs []int, out []graph.AdjList) (int64, error) {
	if err := w.send(keys); err != nil {
		return 0, err
	}
	return w.receive(idxs, out)
}

// send is the first half of a round trip: encode the request and write it.
//
//benulint:hotpath once per round trip
func (w *wireConn) send(keys []int64) error {
	w.buf = appendRequest(w.buf, keys)
	_, err := w.conn.Write(w.buf)
	return err
}

// receive is the second half: read the reply to the request send wrote
// and decode it (results and errors as roundTrip).
//
//benulint:hotpath once per round trip
func (w *wireConn) receive(idxs []int, out []graph.AdjList) (int64, error) {
	var err error
	if w.buf, err = readFrame(w.br, w.buf, maxReplyFrame); err != nil {
		return 0, err
	}
	n, err := decodeReply(w.buf, idxs, out, w.n)
	w.buf = retained(w.buf)
	return n, err
}

// get returns a connection and whether it came from the pool (a pooled
// connection may be stale; a fresh dial proves the server reachable
// right now).
func (p *connPool) get() (c *wireConn, pooled bool, err error) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		c := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return c, true, nil
	}
	p.mu.Unlock()
	c, err = p.dial()
	return c, false, err
}

func (p *connPool) dial() (*wireConn, error) {
	conn, err := net.Dial("tcp", p.addr)
	if err != nil {
		return nil, fmt.Errorf("kv: dial %s: %w", p.addr, err)
	}
	return &wireConn{conn: conn, br: bufio.NewReader(conn), n: p.n}, nil
}

// put parks c for the next caller — unless the client was closed while c
// was out, when nobody will flush the pool again and c is closed here.
func (p *connPool) put(c *wireConn) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		c.conn.Close()
		return
	}
	p.idle = append(p.idle, c)
	p.mu.Unlock()
}

// flush closes and drops every idle connection.
func (p *connPool) flush() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.idle {
		c.conn.Close()
	}
	p.idle = nil
}

// Dial connects to the storage nodes at addrs. numVertices is the global
// vertex count of the stored graph; vertex v lives on addrs[v % len(addrs)].
func Dial(addrs []string, numVertices int) (*Client, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("kv: no storage node addresses")
	}
	c := &Client{addrs: addrs, n: numVertices}
	for _, a := range addrs {
		c.pools = append(c.pools, &connPool{addr: a, n: numVertices})
	}
	return c, nil
}

// call runs one round trip against partition p through its connection
// pool (arguments as wireConn.roundTrip): every single-key read, and each
// partition of a batch whose gather failed.
//
// Outcomes, in order of health:
//
//   - success, or an application-level error the server returned
//     (ServerError): the connection is fine and goes back to the pool — a
//     "vertex not stored" reply must not cost a socket.
//   - any other error on a pooled connection: the connection is stale
//     (the server restarted, the socket was severed) or out of sync. It
//     and every idle sibling are discarded, and the call is retried once
//     on a fresh dial — reads are idempotent, and a live server must not
//     look dead just because the pool remembers its previous life.
//   - any other error on a freshly dialed connection: the server really
//     is unreachable or not speaking the protocol; the error propagates
//     (kv.Resilient adds backoff and circuit breaking on top).
func (c *Client) call(p int, keys []int64, idxs []int, out []graph.AdjList) (int64, error) {
	pool := c.pools[p]
	wc, pooled, err := pool.get()
	if err != nil {
		return 0, err
	}
	n, err := wc.roundTrip(keys, idxs, out)
	if err == nil || isServerError(err) {
		pool.put(wc)
		return n, err
	}
	wc.conn.Close()
	pool.flush()
	if !pooled {
		return 0, err
	}
	wc, derr := pool.dial()
	if derr != nil {
		return 0, err // report the original failure; the redial added nothing
	}
	n, err = wc.roundTrip(keys, idxs, out)
	if err != nil && !isServerError(err) {
		wc.conn.Close()
		return 0, err
	}
	pool.put(wc)
	return n, err
}

// NumVertices implements Store.
func (c *Client) NumVertices() int { return c.n }

// Metrics exposes the client-observed traffic counters.
func (c *Client) Metrics() *Metrics { return &c.metrics }

// Close drops all pooled connections; one still out on a call is closed
// when that call returns it.
func (c *Client) Close() {
	for _, p := range c.pools {
		p.mu.Lock()
		p.closed = true
		p.mu.Unlock()
		p.flush()
	}
}

// ServeGraph is a convenience that shards g over p storage nodes on
// loopback addresses and returns the running servers plus their
// addresses. Used by the distributed example and integration tests.
func ServeGraph(g *graph.Graph, p int) (servers []*Server, addrs []string, err error) {
	for i := 0; i < p; i++ {
		store := NewMapStore(Shard(g, i, p), g.NumVertices())
		srv, err := Serve("127.0.0.1:0", store)
		if err != nil {
			for _, s := range servers {
				s.Close()
			}
			return nil, nil, err
		}
		servers = append(servers, srv)
		addrs = append(addrs, srv.Addr())
	}
	return servers, addrs, nil
}
