package kv

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"benu/internal/graph"
	"benu/internal/varint"
)

// The store wire format: a length-prefixed binary request/response
// protocol spoken directly on a TCP connection that one caller owns for
// the whole round trip (connPool hands a connection to one executor
// thread at a time, so nothing is multiplexed and nothing needs an id;
// a batch spanning partitions holds one connection per partition, writes
// every request, then reads every reply — see Client.gather).
//
//	request  [u32 len][uvarint count][uvarint vertex id]...
//	reply    [u32 len][statusOK][uvarint count]([uvarint n][n AdjList bytes])...
//	         [u32 len][statusErr][message bytes]
//
// len is big-endian and counts the bytes after it. The AdjList bytes are
// the store's own varint-delta encoding, shipped as stored and installed
// into the DB cache as received. Bytes from the socket are untrusted on
// both ends: every length is checked against a cap and against the bytes
// actually present before anything is allocated or sliced, and a peer
// that violates the format loses the connection.

const (
	// frameHeaderLen is the u32 body length that prefixes every frame.
	frameHeaderLen = 4

	// maxBatchKeys caps the keys of one request frame. It is three orders
	// of magnitude above the prefetch batch and task window (64 keys) and
	// bounds the server's per-connection key buffer at 512 KiB; the
	// client cuts a longer batch into slices of this many keys before it
	// groups them by partition, so the cap is invisible to callers.
	maxBatchKeys = 1 << 16

	// maxRequestFrame is the largest request body a server reads: the
	// count plus maxBatchKeys vertex ids at the widest varint. Anything
	// longer is not a request (the first four bytes of an HTTP or gob
	// preamble read as a length far above it).
	maxRequestFrame = (1 + maxBatchKeys) * varint.MaxLen64

	// maxReplyFrame is the largest reply body a client reads, and so the
	// largest allocation a hostile server can cause: room for a 64-key
	// prefetch batch of 1 MiB lists (half-million-neighbour hubs at two
	// bytes a neighbour). A server whose reply would exceed it answers
	// with an error frame instead.
	maxReplyFrame = 64 << 20

	// maxRetainedBuf is the largest frame buffer a connection keeps
	// between round trips; one hub-heavy batch must not pin megabytes on
	// every pooled connection for the rest of the run.
	maxRetainedBuf = 1 << 20

	statusOK  = 0
	statusErr = 1
)

// ServerError is an application-level failure reported by the remote
// store (a vertex the partition does not hold, say): the round trip
// itself worked, so the connection stays pooled and no retry or replica
// failover can change the answer.
type ServerError string

func (e ServerError) Error() string { return string(e) }

// isServerError reports whether err is an application-level error
// returned by the remote store (the round trip itself succeeded).
func isServerError(err error) bool {
	var se ServerError
	return errors.As(err, &se)
}

// badFrame reports a format violation: which rule the peer broke.
func badFrame(format string, args ...any) error {
	return fmt.Errorf("kv: malformed frame: "+format, args...)
}

// readFrame reads one frame body into buf (the connection's own, grown
// on demand, never past limit) and returns it. io.EOF is the peer
// hanging up between frames; inside one it is io.ErrUnexpectedEOF.
func readFrame(br *bufio.Reader, buf []byte, limit uint32) ([]byte, error) {
	hdr, err := br.Peek(frameHeaderLen)
	if err != nil {
		if len(hdr) > 0 && err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return buf, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > limit {
		return buf, badFrame("length %d exceeds the %d-byte cap", n, limit)
	}
	br.Discard(frameHeaderLen) // cannot fail: the four bytes were just peeked
	buf = slices.Grow(buf[:0], int(n))[:n]
	if _, err := io.ReadFull(br, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return buf, err
	}
	return buf, nil
}

// retained is what a connection keeps of a frame buffer between round
// trips: the buffer itself, unless it outgrew maxRetainedBuf.
func retained(buf []byte) []byte {
	if cap(buf) > maxRetainedBuf {
		return nil
	}
	return buf
}

// finishFrame stamps the body length into the header appendRequest /
// appendReply reserved.
func finishFrame(buf []byte) []byte {
	binary.BigEndian.PutUint32(buf, uint32(len(buf)-frameHeaderLen))
	return buf
}

// appendRequest encodes a request frame for keys (at most maxBatchKeys)
// into buf[:0].
//
//benulint:hotpath runs on the calling executor thread, once per store round trip
func appendRequest(buf []byte, keys []int64) []byte {
	buf = append(buf[:0], 0, 0, 0, 0)
	buf = varint.Append(buf, uint64(len(keys)))
	for _, v := range keys {
		buf = varint.Append(buf, uint64(v))
	}
	return finishFrame(buf)
}

// decodeRequest parses a request frame body into keys[:0] (the
// connection-owned key buffer: steady-state it does not allocate).
func decodeRequest(frame []byte, keys []int64) ([]int64, error) {
	n, k, err := varint.Uvarint(frame)
	if err != nil {
		return keys, badFrame("count: %v", err)
	}
	frame = frame[k:]
	// Every id takes at least one byte, so a count the frame cannot hold
	// is rejected before the key buffer grows toward it.
	if n > maxBatchKeys || n > uint64(len(frame)) {
		return keys, badFrame("count %d exceeds the %d-key cap or the %d bytes present", n, maxBatchKeys, len(frame))
	}
	keys = keys[:0]
	for i := uint64(0); i < n; i++ {
		x, k, err := varint.Uvarint(frame)
		if err != nil {
			return keys, badFrame("key %d: %v", i, err)
		}
		if x > math.MaxInt64 {
			return keys, badFrame("key %d is not a vertex id", i)
		}
		frame = frame[k:]
		keys = append(keys, int64(x))
	}
	if len(frame) != 0 {
		return keys, badFrame("%d trailing bytes", len(frame))
	}
	return keys, nil
}

// appendReply encodes the reply frame for lists into buf[:0]; a reply
// that would exceed maxReplyFrame becomes an error frame.
//
//benulint:hotpath the server's per-request encode; buf is connection-owned
func appendReply(buf []byte, lists []graph.AdjList) []byte {
	buf = append(buf[:0], 0, 0, 0, 0, statusOK)
	buf = varint.Append(buf, uint64(len(lists)))
	for _, l := range lists {
		b := l.Bytes()
		if len(buf)+varint.MaxLen64+len(b) > frameHeaderLen+maxReplyFrame {
			return appendErrorReply(buf, replyTooLarge(len(lists)))
		}
		buf = varint.Append(buf, uint64(len(b)))
		buf = append(buf, b...)
	}
	return finishFrame(buf)
}

func replyTooLarge(keys int) string {
	return fmt.Sprintf("kv: reply to %d keys exceeds the %d-byte frame cap; ask for fewer keys per batch", keys, maxReplyFrame)
}

// appendErrorReply encodes an application-level failure into buf[:0].
func appendErrorReply(buf []byte, msg string) []byte {
	buf = append(buf[:0], 0, 0, 0, 0, statusErr)
	buf = append(buf, msg...)
	return finishFrame(buf)
}

// decodeReply parses a reply frame body that must answer len(idxs) keys,
// installing list j at out[idxs[j]], and returns the payload bytes
// received (the comm_mb currency: AdjList sizes, no framing). Each list
// is validated in place — shape, order, and every id below numVertices,
// so a lying node cannot make an executor index past its rank array —
// and then copied into its own allocation: a list that outlives the call
// in a cache must not pin the whole frame, and the frame buffer is reused
// by the next round trip. On error out may be partially written;
// GetAdjBatch discards it.
func decodeReply(frame []byte, idxs []int, out []graph.AdjList, numVertices int) (int64, error) {
	if len(frame) == 0 {
		return 0, badFrame("empty reply")
	}
	switch status, body := frame[0], frame[1:]; status {
	case statusOK:
		frame = body
	case statusErr:
		return 0, ServerError(body)
	default:
		return 0, badFrame("reply status %d", status)
	}
	n, k, err := varint.Uvarint(frame)
	if err != nil {
		return 0, badFrame("count: %v", err)
	}
	if n != uint64(len(idxs)) {
		return 0, badFrame("%d lists for %d keys", n, len(idxs))
	}
	frame = frame[k:]
	var bytes int64
	for j, i := range idxs {
		size, k, err := varint.Uvarint(frame)
		if err != nil || size > uint64(len(frame)-k) {
			return 0, badFrame("list %d: length runs past the frame", j)
		}
		payload := frame[k : k+int(size)]
		frame = frame[k+int(size):]
		if err := graph.AdjListFromBytes(payload).ValidateIn(numVertices); err != nil {
			return 0, badFrame("list %d: %v", j, err)
		}
		out[i] = graph.AdjListFromBytes(append([]byte(nil), payload...))
		bytes += int64(size)
	}
	if len(frame) != 0 {
		return 0, badFrame("%d trailing bytes", len(frame))
	}
	return bytes, nil
}
