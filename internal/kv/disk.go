package kv

import (
	"fmt"

	"benu/internal/csr"
	"benu/internal/graph"
	"benu/internal/obs"
)

// Disk is a Store over an immutable mmap'd CSR file (internal/csr),
// built offline by `benu-store build`. Reads are zero-copy slices of
// the mapping — the kernel pages adjacency data in on demand, so graphs
// larger than RAM serve at page-cache speed without any loading phase.
// One Disk holds one hash partition (possibly the whole graph when the
// file was built with parts=1); a sharded deployment composes per-part
// Disks with NewPartitioned or NewReplicated.
type Disk struct {
	f       *csr.File
	metrics Metrics

	reads     *obs.Counter
	readBytes *obs.Counter
}

// OpenDisk memory-maps and validates the CSR file at path. The
// store.disk.* counters report into reg (nil means obs.Default()).
func OpenDisk(path string, reg *obs.Registry) (*Disk, error) {
	if reg == nil {
		reg = obs.Default()
	}
	f, err := csr.Open(path)
	if err != nil {
		return nil, fmt.Errorf("kv: open disk store: %w", err)
	}
	reg.Counter("store.disk.opens").Inc()
	reg.Counter("store.disk.mapped_bytes").Add(f.SizeBytes())
	return &Disk{
		f:         f,
		reads:     reg.Counter("store.disk.reads"),
		readBytes: reg.Counter("store.disk.read_bytes"),
	}, nil
}

// NumVertices implements Store (the global vertex count, not just this
// partition's).
func (d *Disk) NumVertices() int { return d.f.NumVertices() }

// Partition returns the (part, parts) hash-partition coordinates of the
// underlying file.
func (d *Disk) Partition() (part, parts int) { return d.f.Partition() }

// DegreeOrdered reports whether the file's ids follow ≺ (its header's
// csr.FlagDegreeOrdered).
func (d *Disk) DegreeOrdered() bool { return d.f.DegreeOrdered() }

// Metrics exposes the store's traffic counters.
func (d *Disk) Metrics() *Metrics { return &d.metrics }

// Close releases the file mapping. Outstanding adjacency lists become
// invalid; close only after the run is drained.
func (d *Disk) Close() error { return d.f.Close() }

// GetAdjBatch implements Store: every list is a zero-copy view of the
// mapping, validated once at open. Fail-fast, no partial results.
func (d *Disk) GetAdjBatch(vs []int64) ([]graph.AdjList, error) {
	out := make([]graph.AdjList, len(vs))
	var bytes int64
	for i, v := range vs {
		l, err := d.f.List(v)
		if err != nil {
			return nil, fmt.Errorf("kv: %w", err)
		}
		out[i] = l
		bytes += l.SizeBytes()
	}
	d.metrics.RecordBatch(len(vs), bytes)
	d.reads.Add(int64(len(vs)))
	d.readBytes.Add(bytes)
	return out, nil
}
