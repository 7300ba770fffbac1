// Package journal is the crash-consistent write-ahead log of a
// control-plane job (internal/cluster/sched). The master keeps the
// whole run — pending queue, lease table, committed emissions — in
// memory; without a journal a master crash loses the job. With one,
// every commit point is appended synchronously before it is
// acknowledged, so a re-launched master replays the file and resumes
// with completed tasks skipped and exactly-once accounting intact.
//
// Three record types cover the job lifecycle:
//
//   - JobSpec, written once when the journal is created: the plan's
//     wire form plus the task-generation inputs. A restarted master
//     regenerates its task queue deterministically from the same
//     flags and refuses a journal whose spec does not match — resuming
//     someone else's job would silently corrupt both.
//   - Epoch, written once per master incarnation: the fencing token.
//     Every wire RPC carries the epoch it was issued under, and the
//     master rejects calls from earlier incarnations idempotently.
//   - Completion, written at each commit point *before* the worker's
//     report is acknowledged: task ID, duration, executor stats, and
//     the emission payloads (matches / VCBC codes) that traveled in
//     the report. Replay re-emits them, so a resumed run's output is
//     bit-identical to an uninterrupted one. A report carries a batch
//     of attempts; its completions are appended as consecutive records
//     with one write and one fsync (AppendCompletions).
//
// The file format is an append-only sequence of checksummed,
// length-prefixed records behind an 8-byte magic header:
//
//	header  := "BENUJNL2"
//	record  := len u32le | crc32(payload) u32le | payload
//	payload := type byte | body (varint-encoded fields)
//
// Recovery follows the classic WAL rule: replay stops at the first
// record that is truncated or fails its checksum (a torn tail from a
// crash mid-append), and Open truncates the file back to the last
// valid record before appending anything new. Decode never panics on
// corrupt input — the decodesafe analyzer enforces that, and
// FuzzJournalReplay hunts for violations.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	"benu/internal/exec"
	"benu/internal/varint"
	"benu/internal/vcbc"
)

// magic identifies (and versions) the file format. Version 2 journals
// name tasks by start vertices in the id space the binaries relabel
// graphs into (graph.Relabel); version 1 predates it.
const (
	magic       = "BENUJNL2"
	magicFamily = "BENUJNL"
)

// Record types.
const (
	recSpec       = 1
	recEpoch      = 2
	recCompletion = 3
)

// maxRecord caps a single record's payload so a corrupt length prefix
// cannot drive a giant allocation during replay.
const maxRecord = 1 << 28

// recHeader is the per-record framing: u32 length + u32 CRC.
const recHeader = 8

// JobSpec pins the journal to one job: the plan every worker executes
// plus the inputs task generation is derived from. Two runs with equal
// specs generate identical task queues, which is what makes replay by
// task ID sound.
type JobSpec struct {
	// Plan is the plan's canonical wire form (plan.MarshalJSON).
	Plan []byte
	// NumVertices is |V(G)| of the data graph.
	NumVertices int
	// Tau is the §V-B task-splitting threshold.
	Tau int
	// Tasks is the generated task count, cross-checked on resume.
	Tasks int
	// OrderHash fingerprints the symmetry-breaking total order
	// (graph.TotalOrder.Fingerprint): its ranks, or for a relabelled
	// graph's identity order the relabel map, which says which graph the
	// task IDs' start vertices belong to.
	OrderHash uint64
}

// Equal reports whether two specs describe the same job.
func (s *JobSpec) Equal(o *JobSpec) bool {
	return s.NumVertices == o.NumVertices && s.Tau == o.Tau &&
		s.Tasks == o.Tasks && s.OrderHash == o.OrderHash &&
		string(s.Plan) == string(o.Plan)
}

// Completion is one committed task: the exactly-once unit of the
// control plane. Everything the master needs to account for the task —
// stats and emission payloads — rides in the record, so replay commits
// it again without re-executing anything.
type Completion struct {
	TaskID     int64
	DurationNs int64
	Stats      exec.Stats
	Matches    [][]int64
	Codes      []*vcbc.Code
}

// Replay is the decoded state of a journal: what a restarted master
// resumes from.
type Replay struct {
	// Spec is the job identity record, nil when the journal holds none
	// yet (a crash before the first record).
	Spec *JobSpec
	// Epoch is the highest master epoch recorded; the resuming master
	// runs at Epoch+1.
	Epoch uint64
	// Completions are the committed tasks, in commit order. Task IDs
	// may repeat only if the file was produced by a buggy writer;
	// consumers must dedupe by ID.
	Completions []Completion
	// Records counts the valid records read.
	Records int
	// Torn reports that replay stopped at a truncated or corrupt
	// record (a torn tail) rather than the end of the file.
	Torn bool
}

// ErrBadHeader reports a file that is not a journal (foreign magic).
// Open refuses to touch such a file.
var ErrBadHeader = errors.New("journal: bad file header")

// ErrFormatVersion reports a journal of another format version, such as
// one written before graphs were relabelled, whose task IDs name start
// vertices in a different id space. Open refuses to resume from it.
var ErrFormatVersion = errors.New("journal: written by another format version (task IDs in another id space); refusing to resume")

// Decode replays journal bytes. It returns the replayed state and the
// byte length of the valid prefix (header plus every intact record) —
// the offset a writer must truncate to before appending. The only
// errors are ErrBadHeader for a file that is not a journal at all and
// ErrFormatVersion for a journal of another version; record-level
// corruption is not an error, it just sets Replay.Torn. Decode never
// panics, whatever the input.
func Decode(data []byte) (*Replay, int, error) {
	if len(data) >= len(magic) && string(data[:len(magic)]) != magic {
		if string(data[:len(magicFamily)]) == magicFamily {
			return nil, 0, ErrFormatVersion
		}
		return nil, 0, ErrBadHeader
	}
	rep := &Replay{}
	if len(data) < len(magic) {
		// Empty or torn-header file: nothing valid, including the header.
		rep.Torn = len(data) > 0
		return rep, 0, nil
	}
	off := len(magic)
	for {
		if off == len(data) {
			return rep, off, nil // clean end
		}
		if len(data)-off < recHeader {
			break // torn framing
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if n < 1 || n > maxRecord || n > len(data)-off-recHeader {
			break // torn or corrupt length
		}
		payload := data[off+recHeader : off+recHeader+n]
		if crc32.ChecksumIEEE(payload) != sum {
			break // corrupt payload
		}
		if !applyRecord(rep, payload) {
			break // structurally invalid body: stop, like a torn tail
		}
		rep.Records++
		off += recHeader + n
	}
	rep.Torn = true
	return rep, off, nil
}

// applyRecord decodes one checksummed payload into rep, reporting
// whether it parsed cleanly.
func applyRecord(rep *Replay, payload []byte) bool {
	body := payload[1:]
	switch payload[0] {
	case recSpec:
		spec, ok := decodeSpec(body)
		if !ok {
			return false
		}
		if rep.Spec == nil {
			rep.Spec = spec
		} else if !rep.Spec.Equal(spec) {
			return false // two conflicting specs: the file is not trustworthy
		}
		return true
	case recEpoch:
		val, n, err := varint.Uvarint(body)
		if err != nil || n != len(body) {
			return false
		}
		if val > rep.Epoch {
			rep.Epoch = val
		}
		return true
	case recCompletion:
		c, ok := decodeCompletion(body)
		if !ok {
			return false
		}
		rep.Completions = append(rep.Completions, *c)
		return true
	default:
		return false // unknown record type: format drift, stop here
	}
}

// Options parameterizes Open. The zero value is the production
// configuration: every append is fsync'd before it is acknowledged.
type Options struct {
	// NoSync skips the per-append fsync. Only for tests and
	// differential-matrix speed, where the "crash" never outlives the
	// OS page cache.
	NoSync bool
}

// Log is an open journal positioned for appending. Appends are not
// concurrency-safe; the master serializes them under its own lock.
type Log struct {
	f      *os.File
	nosync bool
	buf    []byte
}

// Open opens (creating if absent) the journal at path, replays it, and
// truncates a torn tail so the log is positioned at its last valid
// record. The returned Replay is what the caller resumes from.
func Open(path string, opts Options) (*Log, *Replay, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	data, err := readAll(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: read %s: %w", path, err)
	}
	rep, valid, err := Decode(data)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: %s: %w", path, err)
	}
	l := &Log{f: f, nosync: opts.NoSync}
	if valid == 0 {
		// Fresh file (or a header torn mid-write): start over.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, nil, err
		}
		if _, err := f.WriteAt([]byte(magic), 0); err != nil {
			f.Close()
			return nil, nil, err
		}
		valid = len(magic)
	} else if valid < len(data) {
		// Torn tail: drop it before appending anything after it.
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(int64(valid), 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := l.sync(); err != nil {
		f.Close()
		return nil, nil, err
	}
	return l, rep, nil
}

// readAll reads the whole file from the start.
func readAll(f *os.File) ([]byte, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data := make([]byte, st.Size())
	if _, err := f.ReadAt(data, 0); err != nil && st.Size() > 0 {
		return nil, err
	}
	return data, nil
}

// Close closes the underlying file. Committed records are already
// durable — every append synced before returning.
func (l *Log) Close() error { return l.f.Close() }

// AppendSpec appends the job identity record. Returns the bytes
// appended (framing included).
func (l *Log) AppendSpec(s *JobSpec) (int, error) {
	l.buf = l.buf[:0]
	at := l.beginRecord(recSpec)
	l.buf = varint.Append(l.buf, uint64(len(s.Plan)))
	l.buf = append(l.buf, s.Plan...)
	l.buf = appendInt(l.buf, int64(s.NumVertices))
	l.buf = appendInt(l.buf, int64(s.Tau))
	l.buf = appendInt(l.buf, int64(s.Tasks))
	l.buf = varint.Append(l.buf, s.OrderHash)
	if err := l.sealRecord(at); err != nil {
		return 0, err
	}
	return l.flush()
}

// AppendEpoch appends a master-incarnation record.
func (l *Log) AppendEpoch(epoch uint64) (int, error) {
	l.buf = l.buf[:0]
	at := l.beginRecord(recEpoch)
	l.buf = varint.Append(l.buf, epoch)
	if err := l.sealRecord(at); err != nil {
		return 0, err
	}
	return l.flush()
}

// AppendCompletion appends one committed task: AppendCompletions with a
// batch of one.
func (l *Log) AppendCompletion(c *Completion) (int, error) {
	return l.AppendCompletions([]*Completion{c})
}

// AppendCompletions appends a batch of committed tasks — one record
// each, in slice order — with a single write and a single fsync. The
// caller must not acknowledge any of the commits to a worker until this
// returns nil: that ordering is the whole crash-consistency argument. A
// crash mid-write leaves a prefix of the batch's records plus at most
// one torn record, which replay drops like any torn tail. Returns the
// bytes appended (framing included).
func (l *Log) AppendCompletions(cs []*Completion) (int, error) {
	l.buf = l.buf[:0]
	for _, c := range cs {
		at := l.beginRecord(recCompletion)
		l.buf = appendInt(l.buf, c.TaskID)
		l.buf = appendInt(l.buf, c.DurationNs)
		l.buf = appendInt(l.buf, c.Stats.Matches)
		l.buf = appendInt(l.buf, c.Stats.Codes)
		l.buf = appendInt(l.buf, c.Stats.DBQueries)
		l.buf = appendInt(l.buf, c.Stats.IntOps)
		l.buf = appendInt(l.buf, c.Stats.EnuSteps)
		l.buf = appendInt(l.buf, c.Stats.ResultSize)
		l.buf = appendInt(l.buf, c.Stats.TriHits)
		l.buf = appendInt(l.buf, c.Stats.TriMisses)
		l.buf = appendRows(l.buf, c.Matches)
		l.buf = varint.Append(l.buf, uint64(len(c.Codes)))
		for _, code := range c.Codes {
			l.buf = appendInts(l.buf, code.CoverVertices)
			l.buf = appendInt64s(l.buf, code.Helve)
			l.buf = appendInts(l.buf, code.FreeVertices)
			l.buf = appendRows(l.buf, code.Images)
		}
		if err := l.sealRecord(at); err != nil {
			return 0, err
		}
	}
	return l.flush()
}

// beginRecord reserves a record's framing in l.buf and writes its type
// byte; the caller appends the body and then seals the record. Returns
// the framing's offset.
func (l *Log) beginRecord(typ byte) int {
	at := len(l.buf)
	l.buf = append(l.buf, 0, 0, 0, 0, 0, 0, 0, 0, typ)
	return at
}

// sealRecord fills in the length and CRC of the record begun at at,
// whose payload is everything appended since.
func (l *Log) sealRecord(at int) error {
	payload := l.buf[at+recHeader:]
	if len(payload) > maxRecord {
		return fmt.Errorf("journal: record of %d bytes exceeds the %d-byte cap", len(payload), maxRecord)
	}
	binary.LittleEndian.PutUint32(l.buf[at:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(l.buf[at+4:], crc32.ChecksumIEEE(payload))
	return nil
}

// flush writes the sealed records in l.buf with one write and syncs
// once.
func (l *Log) flush() (int, error) {
	if _, err := l.f.Write(l.buf); err != nil {
		return 0, err
	}
	if err := l.sync(); err != nil {
		return 0, err
	}
	return len(l.buf), nil
}

func (l *Log) sync() error {
	if l.nosync {
		return nil
	}
	return l.f.Sync()
}

// ---- varint field encoding ----
//
// Every integer field is zigzag varint encoded, so negative values
// (defensive — vertex ids and counters are non-negative in practice)
// round-trip exactly.

func appendInt(dst []byte, v int64) []byte {
	return varint.Append(dst, uint64(v)<<1^uint64(v>>63))
}

func appendInt64s(dst []byte, vs []int64) []byte {
	dst = varint.Append(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = appendInt(dst, v)
	}
	return dst
}

func appendInts(dst []byte, vs []int) []byte {
	dst = varint.Append(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = appendInt(dst, int64(v))
	}
	return dst
}

func appendRows(dst []byte, rows [][]int64) []byte {
	dst = varint.Append(dst, uint64(len(rows)))
	for _, row := range rows {
		dst = appendInt64s(dst, row)
	}
	return dst
}

// ---- decoding (never panics; every length is bounds-checked) ----

type decoder struct {
	b  []byte
	ok bool
}

func (d *decoder) uvarint() uint64 {
	if !d.ok {
		return 0
	}
	v, n, err := varint.Uvarint(d.b)
	if err != nil {
		d.ok = false
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) int64() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// count reads a collection length and validates it against the bytes
// remaining (each element encodes to at least one byte), so a corrupt
// count cannot drive a giant allocation.
func (d *decoder) count() int {
	v := d.uvarint()
	if !d.ok || v > uint64(len(d.b)) {
		d.ok = false
		return 0
	}
	return int(v)
}

func (d *decoder) bytes(n int) []byte {
	if !d.ok || n < 0 || n > len(d.b) {
		d.ok = false
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *decoder) int64s() []int64 {
	n := d.count()
	if !d.ok {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = d.int64()
	}
	return out
}

func (d *decoder) ints() []int {
	n := d.count()
	if !d.ok {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(d.int64())
	}
	return out
}

func (d *decoder) rows() [][]int64 {
	n := d.count()
	if !d.ok {
		return nil
	}
	out := make([][]int64, n)
	for i := range out {
		out[i] = d.int64s()
	}
	return out
}

func decodeSpec(body []byte) (*JobSpec, bool) {
	d := &decoder{b: body, ok: true}
	s := &JobSpec{}
	n := d.count()
	s.Plan = append([]byte(nil), d.bytes(n)...)
	s.NumVertices = int(d.int64())
	s.Tau = int(d.int64())
	s.Tasks = int(d.int64())
	s.OrderHash = d.uvarint()
	if !d.ok || len(d.b) != 0 {
		return nil, false
	}
	return s, true
}

func decodeCompletion(body []byte) (*Completion, bool) {
	d := &decoder{b: body, ok: true}
	c := &Completion{}
	c.TaskID = d.int64()
	c.DurationNs = d.int64()
	c.Stats.Matches = d.int64()
	c.Stats.Codes = d.int64()
	c.Stats.DBQueries = d.int64()
	c.Stats.IntOps = d.int64()
	c.Stats.EnuSteps = d.int64()
	c.Stats.ResultSize = d.int64()
	c.Stats.TriHits = d.int64()
	c.Stats.TriMisses = d.int64()
	c.Matches = d.rows()
	nCodes := d.count()
	for i := 0; i < nCodes && d.ok; i++ {
		code := &vcbc.Code{}
		code.CoverVertices = d.ints()
		code.Helve = d.int64s()
		code.FreeVertices = d.ints()
		code.Images = d.rows()
		c.Codes = append(c.Codes, code)
	}
	if !d.ok || len(d.b) != 0 {
		return nil, false
	}
	return c, true
}
