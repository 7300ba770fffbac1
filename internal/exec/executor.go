package exec

import (
	"fmt"

	"benu/internal/graph"
	"benu/internal/obs"
	"benu/internal/plan"
	"benu/internal/vcbc"
)

// AdjSource provides adjacency sets to DBQ instructions. *CachedSource
// satisfies it, as do the adapters GraphSource (in-memory graph) and
// StoreSource (uncached kv.Store). A *CachedSource also decides the
// executor's data plane: its SourceOptions say whether DBQs read compact
// lists and whether ENU loops prefetch.
type AdjSource interface {
	GetAdj(v int64) ([]int64, error)
}

// GraphSource adapts an in-memory graph as an AdjSource with zero
// overhead; the single-machine (QFrag-style broadcast) configuration.
type GraphSource struct{ G *graph.Graph }

// GetAdj implements AdjSource.
func (s GraphSource) GetAdj(v int64) ([]int64, error) {
	if v < 0 || int(v) >= s.G.NumVertices() {
		return nil, fmt.Errorf("exec: vertex %d out of range", v)
	}
	return s.G.Adj(v), nil
}

// Task is one local search task: enumerate all matches whose first
// matching-order vertex maps to Start. SplitCount > 1 marks a subtask
// produced by task splitting (§V-B): the candidate set of the second
// matching-order vertex is partitioned into SplitCount slices and this
// subtask processes slice SplitIndex.
type Task struct {
	Start int64
	// Start2 pins the second matching-order vertex for anchored (delta)
	// plans; ignored otherwise.
	Start2     int64
	SplitIndex int
	SplitCount int
}

// Stats accumulates per-task (and, summed, per-run) counters.
type Stats struct {
	Matches    int64 // complete matches (expanded count for compressed plans)
	Codes      int64 // compressed codes emitted (0 for uncompressed plans)
	DBQueries  int64 // DBQ instruction executions (GetAdj calls issued)
	IntOps     int64 // INT/TRC instruction executions
	EnuSteps   int64 // ENU candidate vertices tried (backtracking branches)
	ResultSize int64 // bytes of emitted results (8 per reported vertex id)
	TriHits    int64 // triangle-cache hits
	TriMisses  int64 // triangle-cache misses
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Matches += o.Matches
	s.Codes += o.Codes
	s.DBQueries += o.DBQueries
	s.IntOps += o.IntOps
	s.EnuSteps += o.EnuSteps
	s.ResultSize += o.ResultSize
	s.TriHits += o.TriHits
	s.TriMisses += o.TriMisses
}

// Sub returns s - o field by field (the delta of two snapshots).
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Matches:    s.Matches - o.Matches,
		Codes:      s.Codes - o.Codes,
		DBQueries:  s.DBQueries - o.DBQueries,
		IntOps:     s.IntOps - o.IntOps,
		EnuSteps:   s.EnuSteps - o.EnuSteps,
		ResultSize: s.ResultSize - o.ResultSize,
		TriHits:    s.TriHits - o.TriHits,
		TriMisses:  s.TriMisses - o.TriMisses,
	}
}

// Options configures an Executor.
type Options struct {
	// Emit, if set, receives every complete match of an uncompressed
	// plan. The slice is indexed by pattern vertex and reused; copy to
	// retain. Return false to stop the current task early.
	Emit func(f []int64) bool
	// EmitCode, if set, receives every compressed code of a VCBC plan.
	// The code's slices are reused; copy to retain. Return false to stop
	// the current task early.
	EmitCode func(c *vcbc.Code) bool
	// TriangleCacheEntries bounds the per-executor triangle cache
	// (0 disables the cache; TRC instructions then compute directly).
	TriangleCacheEntries int
	// DegreeOf supplies data-vertex degrees for plans generated with the
	// degree filter (plan.Options.DegreeFilter). When nil, degree
	// conditions pass vacuously — results are identical either way, only
	// the pruning is lost.
	DegreeOf func(v int64) int
	// LabelOf supplies data-vertex labels. Required for plans of labeled
	// patterns (the property-graph extension); Run fails without it.
	LabelOf func(v int64) int64
	// Obs selects the metrics registry the executor reports into (see
	// docs/METRICS.md, exec.* names). nil means obs.Default(). The
	// executor accumulates thread-locally and flushes once per task, so
	// reporting never touches the per-candidate inner loops.
	Obs *obs.Registry
}

// Executor runs local search tasks for one compiled program. It is
// single-threaded: create one Executor per working thread and share the
// Program, the adjacency source, and the total order across them.
type Executor struct {
	prog *Program
	src  AdjSource
	// lsrc is src when it is a compact CachedSource: DBQs read its lists
	// and decode into per-instruction scratch (or stream them, when lazy).
	// pf is src when it is a CachedSource with prefetch on: prefetchable
	// ENU instructions — those whose target vertex is DB-queried before
	// the next level — hand it their candidate set before iterating.
	lsrc *CachedSource
	pf   *CachedSource
	ord  *graph.TotalOrder
	numV int
	// ident is ord.Identity(): ≺ is <, so INT/TRC instructions trim a
	// sorted list to their gt/lt bounds and test only their rest filters
	// per element (the bound path). Otherwise every filter is tested per
	// element, ≻ through rank, ord's rank array (the rank path).
	ident bool
	rank  []int64

	opts Options

	f     []int64   // current partial match, indexed by pattern vertex
	regs  [][]int64 // set registers
	bufs  [][]int64 // scratch buffers, one per set-producing instruction
	vgAll []int64   // materialized 0..N-1 range for V(G) ENU sources
	ktmpA []int64   // ping-pong scratch for k-way intersections
	ktmpB []int64
	tri   *TriangleCache
	stats Stats

	// encRegs parks the encoded payload of lazy DBQ registers on the
	// compact read path (regs[r] stays nil); the single consuming INT
	// streams the deltas directly instead of materializing. encBuf maps
	// such a register to its DBQ's scratch buffer for the rare shapes
	// that still materialize. intsets is reused operand-collection
	// scratch so INT/TRC execution allocates nothing in steady state.
	encRegs []graph.AdjList
	encBuf  []int
	intsets [][]int64

	// marks[s] mirrors the register whose defining instruction carries
	// markSlot s: outside that instruction's execution, the set bits are
	// exactly the register's ids. Each bitset is allocated on first mark.
	marks []graph.Bitset

	// probed counts the per-candidate list entries probe tested (its n),
	// read by BenchmarkFloorRelabelled: what the bound path saves.
	probed int64

	sink     *obsSink // pre-resolved registry handles, flushed per task
	depth    int      // current ENU recursion level
	maxDepth int      // deepest level reached in the current task

	start      int64
	start2     int64
	splitIdx   int
	splitCnt   int
	stopped    bool
	code       vcbc.Code // reused compressed-code header
	freeImages [][]int64 // reused image-set slice headers
}

// NewExecutor creates an executor for prog reading adjacency data from
// src. numVertices is |V(G)| (needed to iterate V(G) operands), and ord
// is the total order ≺ used by symmetry-breaking filters.
func NewExecutor(prog *Program, src AdjSource, numVertices int, ord *graph.TotalOrder, opts Options) *Executor {
	e := &Executor{
		prog:    prog,
		src:     src,
		ord:     ord,
		ident:   ord.Identity(),
		rank:    ord.Ranks(),
		numV:    numVertices,
		opts:    opts,
		f:       make([]int64, prog.n),
		regs:    make([][]int64, prog.numRegs),
		bufs:    make([][]int64, prog.numBufs),
		encRegs: make([]graph.AdjList, prog.numRegs),
		encBuf:  make([]int, prog.numRegs),
	}
	for i := range e.f {
		e.f[i] = -1
	}
	if prog.numSlots > 0 {
		e.marks = make([]graph.Bitset, prog.numSlots)
	}
	if cs, ok := src.(*CachedSource); ok {
		if cs.opts.Compact {
			e.lsrc = cs
		}
		if cs.opts.Prefetch {
			e.pf = cs
		}
	}
	e.sink = newObsSink(opts.Obs)
	if opts.TriangleCacheEntries > 0 {
		e.tri = NewTriangleCache(opts.TriangleCacheEntries)
	}
	if prog.Plan.Compressed {
		e.code.CoverVertices = prog.coverVerts
		e.code.FreeVertices = prog.freeVerts
		e.code.Helve = make([]int64, len(prog.coverVerts))
		e.freeImages = make([][]int64, len(prog.freeVerts))
		e.code.Images = e.freeImages
	}
	return e
}

// Stats returns the counters accumulated since creation (across all tasks
// this executor ran).
func (e *Executor) Stats() Stats { return e.stats }

// TriangleCache exposes the executor's triangle cache (nil when disabled).
func (e *Executor) TriangleCache() *TriangleCache { return e.tri }

// Run executes one local search task to completion and returns the
// task-local stats delta.
func (e *Executor) Run(t Task) (Stats, error) {
	before := e.stats
	if e.prog.needsLabels {
		if e.opts.LabelOf == nil {
			return Stats{}, fmt.Errorf("exec: plan for labeled pattern %q needs Options.LabelOf",
				e.prog.Plan.Pattern.Name())
		}
		if e.opts.LabelOf(t.Start) != e.prog.startLabel {
			e.sink.flushTask(Stats{}, 0)
			return Stats{}, nil // start vertex can never match the first order vertex
		}
	}
	e.start = t.Start
	e.start2 = t.Start2
	e.splitIdx, e.splitCnt = t.SplitIndex, t.SplitCount
	if e.splitCnt < 1 {
		e.splitCnt = 1
	}
	e.stopped = false
	runnable := true
	if e.prog.anchored {
		// Evaluate the pinned-pair conditions once: bind f(order[0]) so
		// the checks can compare Start2 against it.
		k1 := e.prog.Plan.Order[0]
		e.f[k1] = t.Start
		if t.Start == t.Start2 || !e.admits(&e.prog.anchor, t.Start2) {
			runnable = false
		}
		e.f[k1] = -1
	}
	e.depth, e.maxDepth = 0, 0
	var err error
	if runnable {
		err = e.run(0)
	}
	delta := e.stats.Sub(before)
	e.sink.flushTask(delta, e.maxDepth)
	return delta, err
}

// run interprets instructions from pc onward; an ENU instruction loops
// over its candidate set and recurses for the instruction suffix.
//
//benulint:hotpath executor inner loop: one frame per embedding prefix, zero allocs steady-state (TestExecutorSteadyStateAllocs)
func (e *Executor) run(pc int) error {
	for pc < len(e.prog.instrs) {
		in := &e.prog.instrs[pc]
		if in.markSlot != noSlot {
			e.unmark(in)
		}
		switch in.op {
		case plan.OpINI:
			if in.iniIdx == 0 {
				e.f[in.vertex] = e.start
			} else {
				e.f[in.vertex] = e.start2
			}

		case plan.OpDBQ:
			if e.lsrc != nil {
				l, err := e.lsrc.getList(e.f[in.vertex])
				if err != nil {
					return err
				}
				e.stats.DBQueries++
				if in.lazy {
					// Single INT consumer: park the encoded payload and
					// let the intersection stream the deltas directly.
					e.encRegs[in.dst] = l
					e.encBuf[in.dst] = in.buf
					e.regs[in.dst] = nil
				} else {
					buf, err := l.AppendDecoded(e.bufs[in.buf][:0])
					if err != nil {
						return err
					}
					e.bufs[in.buf] = buf
					e.regs[in.dst] = buf
				}
			} else {
				adj, err := e.src.GetAdj(e.f[in.vertex])
				if err != nil {
					return err
				}
				e.stats.DBQueries++
				e.regs[in.dst] = adj
			}

		case plan.OpINT:
			var err error
			switch {
			case !e.ident:
				err = e.execIntersect(in, in.filters)
			case len(in.gt)+len(in.lt) == 0:
				err = e.execIntersect(in, in.rest)
			default:
				err = e.execBounded(in)
			}
			if err != nil {
				return err
			}

		case plan.OpTRC:
			e.execTriangle(in)

		case plan.OpENU:
			set := e.enuSource(in)
			if e.pf != nil && in.prefetch {
				if err := e.prefetchENU(set, pc == e.prog.splitPC && e.splitCnt > 1); err != nil {
					return err
				}
			}
			e.depth++
			if e.depth > e.maxDepth {
				e.maxDepth = e.depth
			}
			if pc == e.prog.splitPC && e.splitCnt > 1 {
				for i := e.splitIdx; i < len(set); i += e.splitCnt {
					e.stats.EnuSteps++
					e.f[in.vertex] = set[i]
					if err := e.run(pc + 1); err != nil {
						return err
					}
					if e.stopped {
						break
					}
				}
			} else {
				for _, v := range set {
					e.stats.EnuSteps++
					e.f[in.vertex] = v
					if err := e.run(pc + 1); err != nil {
						return err
					}
					if e.stopped {
						break
					}
				}
			}
			e.depth--
			e.f[in.vertex] = -1
			return nil

		case plan.OpRES:
			e.emit()
		}
		if in.markSlot != noSlot {
			e.mark(in)
		}
		if e.stopped || in.prune && len(e.regs[in.dst]) == 0 {
			return nil
		}
		pc++
	}
	return nil
}

// prefetchENU hands an enumeration loop's candidate set to the source
// before the loop iterates, so the per-candidate DBQ instructions behind
// it hit a warm cache instead of missing one key at a time. Split tasks
// prefetch only their stride slice (the candidates this subtask will
// actually visit), assembled in pooled scratch. Sets of fewer than two
// candidates gain nothing over the demand fetch and are skipped.
func (e *Executor) prefetchENU(set []int64, split bool) error {
	if !split {
		if len(set) < 2 {
			return nil
		}
		return e.pf.Prefetch(set)
	}
	p := graph.BorrowInts()
	sub := (*p)[:0]
	for i := e.splitIdx; i < len(set); i += e.splitCnt {
		sub = append(sub, set[i])
	}
	*p = sub
	var err error
	if len(sub) >= 2 {
		err = e.pf.Prefetch(sub)
	}
	graph.ReturnInts(p)
	return err
}

// AppendFrontier appends to dst the candidates task t's first ENU will
// iterate, computed from adj = A(t.Start) without running the task: none
// when a guard (Program.guards) would end the task first, else the
// level's filters (Program.frontierPC) through passes, then — as in
// prefetchENU — only the stride a split subtask visits. The program must
// qualify (frontierPC ≥ 0) and the executor must be between tasks. A task
// Run would turn away (start label mismatch, no label oracle) has no
// candidates.
//
//benulint:hotpath once per task of every prefetched window; appends into the caller's pooled scratch
func (e *Executor) AppendFrontier(dst []int64, t Task, adj []int64) []int64 {
	if e.prog.needsLabels && (e.opts.LabelOf == nil || e.opts.LabelOf(t.Start) != e.prog.startLabel) {
		return dst
	}
	in := &e.prog.instrs[e.prog.frontierPC]
	filters := in.filters
	cnt := max(t.SplitCount, 1)
	f1 := e.prog.Plan.Order[0]
	e.f[f1] = t.Start
	for _, pc := range e.prog.guards {
		if !e.admitsAny(&e.prog.instrs[pc], adj) {
			e.f[f1] = -1
			return dst // the task ends before its first ENU
		}
	}
	if e.ident {
		filters = in.rest
		adj = graph.Between(adj, e.lo(in), e.hi(in))
	}
	i := 0 // index in the filtered set, the one the ENU strides over
	for _, v := range adj {
		if e.passes(filters, v) {
			if i%cnt == t.SplitIndex {
				dst = append(dst, v)
			}
			i++
		}
	}
	e.f[f1] = -1
	return dst
}

// unmark empties a mirrored register ahead of its redefinition: the bits
// of its current value are cleared and the register is left empty, so
// "bitset == register" also holds if the defining instruction then fails
// and the task is abandoned with no cleanup path.
//
//benulint:hotpath runs once per definition of a hoisted register
func (e *Executor) unmark(in *cInstr) {
	e.marks[in.markSlot].Remove(e.regs[in.dst])
	e.regs[in.dst] = nil
}

// mark sets the bits of a mirrored register's new value. Marking at the
// definition — not at the consuming loop's entry — costs one pass per
// value the register takes (once per task for the start vertex's
// adjacency set), and leaves nothing to undo on an early exit.
//
//benulint:hotpath runs once per definition of a hoisted register
func (e *Executor) mark(in *cInstr) {
	if e.marks[in.markSlot] == nil {
		//benulint:alloc one-time lazy bitset, reused for the executor's lifetime (like vgAll)
		e.marks[in.markSlot] = graph.NewBitset(e.numV)
	}
	e.marks[in.markSlot].Add(e.regs[in.dst])
}

// probe evaluates a hoisted two-operand intersection by testing each id
// of the per-candidate list against the fixed operand's bitset mirror,
// applying filters inline. ok is false when the per-candidate list is at
// least graph.GallopRatio times the fixed one — there galloping the short
// fixed list through the long one beats touching every element — and the
// caller falls through to the merge kernels.
//
//benulint:hotpath the per-candidate INT/TRC of every hoisted intersection
func (e *Executor) probe(dst []int64, in *cInstr, filters []cFilter) (out []int64, ok bool, err error) {
	bits := e.marks[in.probeSlot]
	r := in.ops[in.probeVar]
	enc := e.lsrc != nil && in.encMask&(1<<uint(in.probeVar)) != 0 // parked by a lazy DBQ, never materialized
	n := len(e.regs[r])
	if enc {
		n = e.encRegs[r].Len()
	}
	if n >= graph.GallopRatio*len(e.regs[in.ops[1-in.probeVar]]) {
		return dst, false, nil
	}
	e.probed += int64(n)
	switch {
	case !enc && len(filters) == 0:
		return bits.AppendMembers(dst, e.regs[r]), true, nil
	case !enc:
		for _, v := range e.regs[r] {
			if bits.Has(v) && e.passes(filters, v) {
				dst = append(dst, v)
			}
		}
		return dst, true, nil
	case len(filters) == 0:
		dst, err = e.encRegs[r].AppendMembers(dst, bits)
		return dst, true, err
	}
	e.ktmpA, err = e.encRegs[r].AppendMembers(e.ktmpA[:0], bits)
	if err != nil {
		return dst, true, err
	}
	return e.appendFiltered(dst, e.ktmpA, filters), true, nil
}

// enuSource returns the candidate slice an ENU instruction iterates.
// A V(G) source materializes the full vertex range once per executor.
//
//benulint:hotpath runs once per ENU step; the V(G) table builds once per executor
func (e *Executor) enuSource(in *cInstr) []int64 {
	r := in.ops[0]
	if r != vgReg {
		return e.regs[r]
	}
	if len(e.vgAll) != e.numV {
		//benulint:alloc one-time lazy V(G) materialization, reused for the executor's lifetime
		e.vgAll = make([]int64, e.numV)
		for i := range e.vgAll {
			e.vgAll[i] = int64(i)
		}
	}
	return e.vgAll
}

// execBounded evaluates an INT instruction with bounds under an identity
// order (the bound path). One operand register — the per-candidate list
// of a hoisted INT, else the first that is not V(G) — is trimmed to the
// instruction's (lo, hi) for the duration of execIntersect, which then
// tests only the rest of the filters. The result is a subset of that
// operand, so it is bounded too; one that still strays (the operand
// parked encoded, or V(G) alone) is trimmed itself. Trimming a register's
// view leaves its value and bitset mirror alone, and a hoisted INT's
// fixed list whole, whose length decides between probe and merge.
//
//benulint:hotpath one INT instruction per embedding prefix under an identity order
func (e *Executor) execBounded(in *cInstr) error {
	lo, hi := e.lo(in), e.hi(in)
	r := vgReg
	if in.probeSlot != noSlot {
		r = in.ops[in.probeVar]
	} else {
		for _, o := range in.ops {
			if o != vgReg {
				r = o
				break
			}
		}
	}
	var err error
	if r == vgReg {
		err = e.execIntersect(in, in.rest)
	} else {
		full := e.regs[r]
		e.regs[r] = graph.Between(full, lo, hi)
		err = e.execIntersect(in, in.rest)
		e.regs[r] = full
	}
	if out := e.regs[in.dst]; len(out) > 0 && (out[0] <= lo || out[len(out)-1] >= hi) {
		e.regs[in.dst] = graph.Between(out, lo, hi)
	}
	return err
}

// execIntersect evaluates an INT instruction: intersect the operand sets
// and apply filters — all of the instruction's on the rank path, the
// rest of them on the bound path (execBounded) — writing the result into
// the instruction's scratch buffer. Operands parked in encoded form by a
// lazy DBQ are merged straight off their delta streams.
//
//benulint:hotpath one INT instruction per embedding prefix; all scratch is receiver-owned
func (e *Executor) execIntersect(in *cInstr, filters []cFilter) error {
	e.stats.IntOps++
	buf := e.bufs[in.buf][:0]
	if in.probeSlot != noSlot {
		out, ok, err := e.probe(buf, in, filters)
		if err != nil {
			return err
		}
		if ok {
			e.bufs[in.buf] = out
			e.regs[in.dst] = out
			return nil
		}
	}

	// Collect concrete operand sets into reused scratch, ignoring V(G)
	// (the identity of intersection) unless it is the only operand.
	// Encoded operands are gathered separately; more than two (no real
	// plan shape) fall back to materializing into their DBQ buffers.
	sets := e.intsets[:0]
	var enc0, enc1 graph.AdjList
	nenc := 0
	for k, r := range in.ops {
		if r == vgReg {
			continue
		}
		if e.lsrc != nil && in.encMask&(1<<uint(k)) != 0 {
			switch nenc {
			case 0:
				enc0 = e.encRegs[r]
			case 1:
				enc1 = e.encRegs[r]
			default:
				b, err := e.encRegs[r].AppendDecoded(e.bufs[e.encBuf[r]][:0])
				if err != nil {
					return err
				}
				e.bufs[e.encBuf[r]] = b
				sets = append(sets, b)
				nenc--
			}
			nenc++
			continue
		}
		sets = append(sets, e.regs[r])
	}
	if nenc > 0 {
		var err error
		buf, err = e.intersectEncoded(buf, enc0, enc1, nenc, sets, filters)
		e.intsets = sets
		if err != nil {
			return err
		}
		e.bufs[in.buf] = buf
		e.regs[in.dst] = buf
		return nil
	}
	switch len(sets) {
	case 0:
		// Candidate set is all of V(G), filtered.
		for v := int64(0); v < int64(e.numV); v++ {
			if e.passes(filters, v) {
				buf = append(buf, v)
			}
		}
	case 1:
		buf = e.appendFiltered(buf, sets[0], filters)
	case 2:
		buf = e.intersectFiltered(buf, sets[0], sets[1], filters)
	default:
		buf = e.foldIntersect(buf, sets, filters)
	}
	e.intsets = sets
	e.bufs[in.buf] = buf
	e.regs[in.dst] = buf
	return nil
}

// intersectEncoded evaluates a fused INT: one or two operands are still
// varint-delta encoded, the rest (sets) are materialized. The common
// shapes — encoded∩materialized and encoded∩encoded — stream the
// payload bytes once, galloping or merging per the size heuristic,
// without ever building the operand as a []int64.
//
//benulint:hotpath fused lazy-DBQ intersection; streams encoded deltas through ktmp scratch
func (e *Executor) intersectEncoded(dst []int64, enc0, enc1 graph.AdjList, nenc int, sets [][]int64, filters []cFilter) ([]int64, error) {
	if len(sets) == 0 {
		var err error
		tmp := dst
		if len(filters) > 0 {
			tmp = e.ktmpA[:0]
		}
		switch {
		case nenc == 1:
			tmp, err = enc0.AppendDecoded(tmp)
		default:
			tmp, err = graph.IntersectAdjLists(tmp, enc0, enc1)
		}
		if len(filters) == 0 {
			return tmp, err
		}
		e.ktmpA = tmp
		if err != nil {
			return dst, err
		}
		return e.appendFiltered(dst, tmp, filters), nil
	}
	if nenc == 1 && len(sets) == 1 {
		if len(filters) == 0 {
			return enc0.IntersectSorted(dst, sets[0])
		}
		tmp, err := enc0.IntersectSorted(e.ktmpA[:0], sets[0])
		e.ktmpA = tmp
		if err != nil {
			return dst, err
		}
		return e.appendFiltered(dst, tmp, filters), nil
	}
	// Rare general shape: fold the materialized sets pairwise, then
	// stream each encoded operand against the shrinking intermediate.
	cur := sets[0]
	useA := true
	for i := 1; i < len(sets); i++ {
		if useA {
			e.ktmpA = e.intersectFiltered(e.ktmpA[:0], cur, sets[i], nil)
			cur = e.ktmpA
		} else {
			e.ktmpB = e.intersectFiltered(e.ktmpB[:0], cur, sets[i], nil)
			cur = e.ktmpB
		}
		useA = !useA
	}
	for i := 0; i < nenc; i++ {
		l := enc0
		if i == 1 {
			l = enc1
		}
		var err error
		if useA {
			e.ktmpA, err = l.IntersectSorted(e.ktmpA[:0], cur)
			cur = e.ktmpA
		} else {
			e.ktmpB, err = l.IntersectSorted(e.ktmpB[:0], cur)
			cur = e.ktmpB
		}
		useA = !useA
		if err != nil {
			return dst, err
		}
	}
	return e.appendFiltered(dst, cur, filters), nil
}

// appendFiltered appends the elements of src passing filters to dst.
//
//benulint:hotpath per-candidate filter loop inside INT evaluation
func (e *Executor) appendFiltered(dst, src []int64, filters []cFilter) []int64 {
	if len(filters) == 0 {
		return append(dst, src...)
	}
	for _, v := range src {
		if e.passes(filters, v) {
			dst = append(dst, v)
		}
	}
	return dst
}

// foldIntersect intersects k ≥ 3 materialized sets pairwise, smallest
// set first so intermediates shrink quickly. Intermediates ping-pong
// between the two ktmp scratch buffers; the final step (with filters)
// appends to dst, which must outlive deeper recursion levels.
//
//benulint:hotpath k-way intersection fold; intermediates ping-pong between ktmp buffers
func (e *Executor) foldIntersect(dst []int64, sets [][]int64, filters []cFilter) []int64 {
	small := 0
	for i, s := range sets {
		if len(s) < len(sets[small]) {
			small = i
		}
	}
	sets[0], sets[small] = sets[small], sets[0]
	cur := sets[0]
	useA := true
	for i := 1; i < len(sets); i++ {
		if i == len(sets)-1 {
			return e.intersectFiltered(dst, cur, sets[i], filters)
		}
		if useA {
			e.ktmpA = e.intersectFiltered(e.ktmpA[:0], cur, sets[i], nil)
			cur = e.ktmpA
		} else {
			e.ktmpB = e.intersectFiltered(e.ktmpB[:0], cur, sets[i], nil)
			cur = e.ktmpB
		}
		useA = !useA
		if len(cur) == 0 {
			return dst // result is empty; dst gains nothing
		}
	}
	return dst
}

// intersectFiltered merges two sorted sets applying filters on the fly.
//
//benulint:hotpath innermost merge loop of every materialized intersection
func (e *Executor) intersectFiltered(dst, a, b []int64, filters []cFilter) []int64 {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(filters) == 0 {
		return graph.IntersectSorted(dst, a, b)
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			if e.passes(filters, a[i]) {
				dst = append(dst, a[i])
			}
			i++
			j++
		}
	}
	return dst
}

// admits reports whether v passes in's filters, along either path.
func (e *Executor) admits(in *cInstr, v int64) bool {
	if !e.ident {
		return e.passes(in.filters, v)
	}
	return v > e.lo(in) && v < e.hi(in) && e.passes(in.rest, v)
}

// admitsAny reports whether some v of vs passes in's filters.
func (e *Executor) admitsAny(in *cInstr, vs []int64) bool {
	for _, v := range vs {
		if e.admits(in, v) {
			return true
		}
	}
	return false
}

// passes evaluates the filtering conditions against candidate v. A
// FilterGT or FilterLT reads the rank array: on the bound path they are
// bounds, never passed here.
//
//benulint:hotpath runs once per candidate vertex per filter set
func (e *Executor) passes(filters []cFilter, v int64) bool {
	for _, f := range filters {
		fv := e.f[f.vertex]
		switch f.kind {
		case plan.FilterGT:
			if e.rank[fv] >= e.rank[v] {
				return false
			}
		case plan.FilterLT:
			if e.rank[v] >= e.rank[fv] {
				return false
			}
		case plan.FilterNE:
			if v == fv {
				return false
			}
		case plan.FilterMinDeg:
			if e.opts.DegreeOf != nil && e.opts.DegreeOf(v) < f.degree {
				return false
			}
		case plan.FilterLabel:
			if e.opts.LabelOf(v) != f.label {
				return false
			}
		}
	}
	return true
}

// execTriangle evaluates a TRC instruction through the triangle/clique
// cache.
func (e *Executor) execTriangle(in *cInstr) {
	e.stats.IntOps++
	var result []int64
	if e.tri != nil {
		var vals [TriKeyWidth]int64
		for i, kv := range in.keys {
			vals[i] = e.f[kv]
		}
		key := MakeTriKey(vals[:len(in.keys)])
		if cached, ok := e.tri.Get(key); ok {
			e.stats.TriHits++
			result = cached
		} else {
			e.stats.TriMisses++
			result = e.rawIntersect(nil, in)
			e.tri.Put(key, result)
		}
	} else {
		buf := e.rawIntersect(e.bufs[in.buf][:0], in)
		e.bufs[in.buf] = buf
		result = buf
	}
	filters := in.filters
	if e.ident {
		// A sorted result's bounded part is a subslice: trimming copies
		// nothing, cached or not.
		filters = in.rest
		if len(in.gt)+len(in.lt) > 0 {
			result = graph.Between(result, e.lo(in), e.hi(in))
		}
	}
	if len(filters) > 0 {
		// TRC caches the raw intersection; filters (if any) apply to a
		// private copy so cached entries stay reusable across branches.
		buf := e.appendFiltered(e.bufs[in.buf][:0], result, filters)
		e.bufs[in.buf] = buf
		result = buf
	}
	e.regs[in.dst] = result
}

// lo is the exclusive lower bound in's FilterGT conditions put on a
// candidate under an identity order: the largest f value they name, or
// -1 when there are none.
func (e *Executor) lo(in *cInstr) int64 {
	lo := int64(-1)
	for _, u := range in.gt {
		lo = max(lo, e.f[u])
	}
	return lo
}

// hi is the exclusive upper bound of in's FilterLT conditions: the
// smallest f value they name, or graph.NoUpper.
func (e *Executor) hi(in *cInstr) int64 {
	hi := graph.NoUpper
	for _, u := range in.lt {
		hi = min(hi, e.f[u])
	}
	return hi
}

// rawIntersect intersects a TRC instruction's operand registers without
// applying filters, appending to dst. Operands are never V(G) (cacheable
// intersections are compositions of adjacency sets).
func (e *Executor) rawIntersect(dst []int64, in *cInstr) []int64 {
	switch len(in.ops) {
	case 1:
		return append(dst, e.regs[in.ops[0]]...)
	case 2:
		if in.probeSlot != noSlot {
			// TRC operands are never lazy, so the probe cannot fail.
			if out, ok, _ := e.probe(dst, in, nil); ok {
				return out
			}
		}
		return graph.IntersectSorted(dst, e.regs[in.ops[0]], e.regs[in.ops[1]])
	}
	sets := e.intsets[:0]
	for _, r := range in.ops {
		sets = append(sets, e.regs[r])
	}
	e.intsets = sets
	return e.foldIntersect(dst, sets, nil)
}

// emit handles the RES instruction.
func (e *Executor) emit() {
	if !e.prog.Plan.Compressed {
		e.stats.Matches++
		e.stats.ResultSize += int64(e.prog.n) * 8
		if e.opts.Emit != nil && !e.opts.Emit(e.f) {
			e.stopped = true
		}
		return
	}
	// Compressed: assemble the code from cover f values and image
	// registers, count its expansions, and optionally hand it out.
	for i, v := range e.prog.coverVerts {
		e.code.Helve[i] = e.f[v]
	}
	empty := false
	for i, r := range e.prog.freeRegs {
		img := e.regs[r]
		e.freeImages[i] = img
		if len(img) == 0 {
			empty = true
		}
	}
	if empty {
		return // some free vertex has no candidate: zero expansions
	}
	n := e.countExpansions()
	if n == 0 {
		return
	}
	e.stats.Codes++
	e.stats.Matches += n
	e.stats.ResultSize += e.code.SizeBytes()
	if e.opts.EmitCode != nil && !e.opts.EmitCode(&e.code) {
		e.stopped = true
	}
}

// countExpansions counts the injective, order-respecting expansions of the
// current compressed code. The one- and two-set cases — the overwhelming
// majority across the evaluation patterns — avoid the general DP in
// vcbc.CountInjective, which allocates per call.
func (e *Executor) countExpansions() int64 {
	imgs := e.freeImages
	switch len(imgs) {
	case 1:
		return int64(len(imgs[0]))
	case 2:
		if len(e.prog.constraints) == 0 {
			// Injective pairs: |A|·|B| − |A ∩ B| (sets are id-sorted).
			a, b := imgs[0], imgs[1]
			if len(a) > len(b) {
				a, b = b, a
			}
			var common int64
			if len(b) >= graph.GallopRatio*len(a) {
				for _, x := range a {
					if graph.ContainsSorted(b, x) {
						common++
					}
				}
			} else {
				i, j := 0, 0
				for i < len(a) && j < len(b) {
					switch {
					case a[i] < b[j]:
						i++
					case a[i] > b[j]:
						j++
					default:
						common++
						i++
						j++
					}
				}
			}
			return int64(len(imgs[0]))*int64(len(imgs[1])) - common
		}
	}
	return vcbc.CountInjective(e.prog.freeVerts, imgs, e.prog.constraints, e.ord)
}
