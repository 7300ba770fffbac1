// Package exec interprets BENU execution plans. A plan is compiled once
// into a register program (Compile) and then executed by per-thread
// Executors against any adjacency source — the in-memory graph, the
// distributed KV store, or the store behind a machine-local DB cache.
//
// The executor implements the backtracking search of Algorithm 1/2: each
// ENU instruction opens one recursion level, set intersections run over
// sorted adjacency sets, and the triangle cache (§IV-B Optimization 3)
// serves repeated triangle enumerations around the task's start vertex.
package exec

import (
	"fmt"

	"benu/internal/plan"
)

// cFilter is a compiled filtering condition.
type cFilter struct {
	kind   plan.FilterKind
	vertex int   // pattern vertex whose f value the condition references
	degree int   // minimum data degree (FilterMinDeg)
	label  int64 // required label (FilterLabel)
}

// vgReg marks the V(G) pseudo-operand in compiled operand lists.
const vgReg = -1

// cInstr is one compiled instruction.
type cInstr struct {
	op      plan.OpType
	dst     int       // destination set register (INT/TRC/DBQ)
	ops     []int     // set-register operands (INT/TRC; vgReg = V(G))
	filters []cFilter // INT/TRC filters
	vertex  int       // pattern vertex (INI/ENU target, DBQ source f)
	buf     int       // scratch buffer index for set-producing instructions
	keys    []int     // TRC cache-key pattern vertices
	iniIdx  int       // 0 = Task.Start, 1 = Task.Start2 (anchored plans)

	// gt and lt are the pattern vertices of the INT/TRC's FilterGT and
	// FilterLT conditions, rest its other conditions: under an identity
	// order (≺ is <) the executor trims a sorted list the instruction
	// reads to the open interval (max f(gt), min f(lt)) and tests only
	// rest per element.
	// Bounds pushed down from an INT's single consumer land here too, and
	// the consumer's own gt and lt are then empty (see Compile).
	gt, lt []int
	rest   []cFilter

	// prefetch marks an ENU whose target vertex is DB-queried before the
	// next enumeration level opens: every candidate the loop binds will be
	// looked up in the store, so batch-fetching the candidate set up front
	// replaces |set| cache misses with one batched round trip.
	prefetch bool

	// lazy marks a DBQ whose result register is read exactly once, by an
	// INT instruction that executes exactly once per DBQ execution (no
	// ENU opens between them). On the compact read path such a register
	// skips materialization entirely: the DBQ parks the encoded AdjList
	// and the INT intersects directly over the delta stream, fusing
	// decode into the merge.
	lazy bool

	// encMask marks which operand positions of an INT read their
	// register in encoded form (bit k set = ops[k] is a lazy DBQ
	// register). Only ever nonzero on INT instructions.
	encMask uint32

	// markSlot, when not noSlot, is the bitset slot that mirrors this
	// instruction's dst register: the executor keeps the slot's bits equal
	// to the register's value, clearing the old value's bits before the
	// instruction overwrites the register and setting the new value's
	// after. Set on the defining DBQ/INT/TRC of a hoisted operand.
	markSlot int

	// probeSlot, when not noSlot, marks a two-operand INT/TRC whose other
	// operand is loop-invariant: ops[probeVar] is the per-candidate list
	// and ops[1-probeVar] the fixed one, mirrored in slot probeSlot. The
	// instruction tests each id of the per-candidate list against the
	// mirror instead of merging the two lists.
	probeSlot int
	probeVar  int

	// prune marks an INT/TRC whose empty result ends the branch: every
	// path from its register to an emission runs through an ENU that
	// would iterate nothing or a free image RES would drop.
	prune bool
}

// noSlot marks an instruction with no bitset slot.
const noSlot = -1

// resOperand describes one RES operand: either the f value of a pattern
// vertex or (for compressed plans) the image-set register of a free one.
type resOperand struct {
	isSet bool
	reg   int // set register when isSet
	f     int // pattern vertex when !isSet
}

// Program is a compiled execution plan, shareable across executors and
// goroutines (it is read-only after Compile).
type Program struct {
	Plan *plan.Plan

	// code is the instruction list Compile lowered: Plan.Instrs with each
	// filter split (splitFilters) in place; instrs[pc] compiles code[pc].
	code     []plan.Instruction
	instrs   []cInstr
	numRegs  int
	numBufs  int
	numSlots int // bitset mirrors of hoisted registers (see cInstr.markSlot)
	res      []resOperand

	// splitPC is the pc of the ENU instruction of the second vertex of
	// the matching order — the loop that task splitting partitions
	// (§V-B) — or -1 when the plan has no ENU at all.
	splitPC int

	// frontierPC, when ≥ 0, marks a program whose first enumeration level
	// is a function of the start vertex's adjacency list alone: the ENU at
	// splitPC is prefetch-marked and iterates A(f₁) itself (frontierPC is
	// then splitPC, which carries no filters) or a single-operand INT over
	// it whose filters reference only f₁ (frontierPC is that INT). A task
	// window can then compute the level of every task from lists the
	// window's start batch left in the cache (Executor.AppendFrontier) and
	// fetch the union once. -1 otherwise.
	frontierPC int
	// guards are the pcs of the other sets that end the task ahead of its
	// first ENU when they come out empty, each a filtering of A(f₁).
	guards []int

	// n is the pattern vertex count.
	n int

	// needsLabels marks plans of labeled patterns: executors require a
	// label oracle (Options.LabelOf), and tasks whose start vertex label
	// differs from startLabel are empty.
	needsLabels bool
	startLabel  int64

	// anchored marks delta plans; the filters of anchor run once per task
	// against Task.Start2 (with Task.Start already bound).
	anchored bool
	anchor   cInstr

	// Compressed-result metadata (valid when Plan.Compressed).
	freeVerts   []int
	freeRegs    []int // image-set register per free vertex
	coverVerts  []int
	constraints [][2]int
}

// filtersReadOnly reports whether every condition of filters that reads a
// bound vertex reads f.
func filtersReadOnly(filters []cFilter, f int) bool {
	for _, c := range filters {
		switch c.kind {
		case plan.FilterGT, plan.FilterLT, plan.FilterNE:
			if c.vertex != f {
				return false
			}
		case plan.FilterMinDeg, plan.FilterLabel: // read the candidate only
		}
	}
	return true
}

// addFilter compiles f into ci's filters, and into its bound vertices
// (FilterGT, FilterLT) or the rest.
func (ci *cInstr) addFilter(f plan.FilterCond) {
	c := cFilter{kind: f.Kind, vertex: f.Vertex, degree: f.Degree, label: f.Label}
	ci.filters = append(ci.filters, c)
	switch f.Kind {
	case plan.FilterGT:
		ci.gt = append(ci.gt, f.Vertex)
	case plan.FilterLT:
		ci.lt = append(ci.lt, f.Vertex)
	case plan.FilterNE, plan.FilterMinDeg, plan.FilterLabel:
		ci.rest = append(ci.rest, c)
	}
}

// splitFilters returns pl's instructions with every INT split in two
// whose filters name vertices bound on both sides of an ENU that lies
// between its operands' definitions and itself. An early INT right after
// the last operand definition applies every filter already decidable
// there — on a vertex bound before it, a label, a minimum degree — and
// the original INT reads it and applies the rest. The late filters only
// shrink the early set, so results are unchanged, and an empty early set
// ends the branch (cInstr.prune) before the loops in between. q6's
// C2 := Intersect(T2) | >f1,!=f4,!=f5 after the f5 loop becomes an early
// Intersect(T2) | >f1 after T2 and C2 := Intersect(early) | !=f4,!=f5.
// pl is left alone: its cost, wire form and journal pin never see this.
func splitFilters(pl *plan.Plan) []plan.Instruction {
	defPC := map[plan.VarRef]int{} // defining pc of each variable, f ones bound by INI/ENU
	enus := make([]int, len(pl.Instrs))
	nextT := 0 // the early INTs' registers are fresh temps
	for _, in := range pl.Instrs {
		if in.Target.Kind == plan.VarT {
			nextT = max(nextT, in.Target.Index+1)
		}
	}
	early := map[int][]plan.Instruction{} // by the pc they follow
	late := map[int]plan.Instruction{}
	for i, in := range pl.Instrs {
		if in.Op == plan.OpRES {
			continue
		}
		defPC[in.Target] = i
		if i > 0 {
			enus[i] = enus[i-1]
		}
		if in.Op == plan.OpENU {
			enus[i]++
		}
		if in.Op != plan.OpINT {
			continue
		}
		d, vg := -1, false // the operands' last definition
		for _, o := range in.Operands {
			vg = vg || o.Kind == plan.VarVG
			d = max(d, defPC[o])
		}
		if vg || d < 0 || enus[d] == enus[i] {
			continue
		}
		var now, rest []plan.FilterCond
		for _, f := range in.Filters {
			switch f.Kind {
			case plan.FilterGT, plan.FilterLT, plan.FilterNE:
				if defPC[plan.VarRef{Kind: plan.VarF, Index: f.Vertex}] > d {
					rest = append(rest, f)
					continue
				}
			case plan.FilterMinDeg, plan.FilterLabel:
			}
			now = append(now, f)
		}
		if len(now) == 0 || len(rest) == 0 {
			continue
		}
		t := plan.VarRef{Kind: plan.VarT, Index: nextT}
		nextT++
		early[d] = append(early[d], plan.Instruction{Op: plan.OpINT, Target: t, Operands: in.Operands, Filters: now})
		in.Operands, in.Filters = []plan.VarRef{t}, rest
		late[i] = in
	}
	if len(late) == 0 {
		return pl.Instrs
	}
	code := make([]plan.Instruction, 0, len(pl.Instrs)+len(late))
	for i, in := range pl.Instrs {
		if l, ok := late[i]; ok {
			in = l
		}
		code = append(code, in)
		code = append(code, early[i]...)
	}
	return code
}

// enuBetween reports whether an ENU lies strictly between pcs from and to.
func enuBetween(instrs []cInstr, from, to int) bool {
	for j := from + 1; j < to; j++ {
		if instrs[j].op == plan.OpENU {
			return true
		}
	}
	return false
}

// SupportsSplitting reports whether task splitting can apply: the plan
// must enumerate at least a second vertex (a VCBC cover of size 1 — a
// star pattern — leaves nothing to split).
func (p *Program) SupportsSplitting() bool { return p.splitPC >= 0 }

// Compile lowers pl into a register program. It validates the plan first;
// a plan that passes Validate always compiles.
func Compile(pl *plan.Plan) (*Program, error) {
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	prog := &Program{Plan: pl, splitPC: -1, frontierPC: -1, n: pl.Pattern.NumVertices()}
	regOf := make(map[plan.VarRef]int)
	setReg := func(v plan.VarRef) int {
		if v.Kind == plan.VarVG {
			return vgReg
		}
		r, ok := regOf[v]
		if !ok {
			r = prog.numRegs
			prog.numRegs++
			regOf[v] = r
		}
		return r
	}
	prog.code = splitFilters(pl)
	enuSeen := 0
	iniSeen := 0
	for i := range prog.code {
		in := &prog.code[i]
		ci := cInstr{op: in.Op, markSlot: noSlot, probeSlot: noSlot}
		switch in.Op {
		case plan.OpINI:
			ci.vertex = in.Target.Index
			ci.iniIdx = iniSeen
			iniSeen++
			if iniSeen > 2 {
				return nil, fmt.Errorf("exec: more than two INI instructions")
			}
		case plan.OpDBQ:
			ci.vertex = in.Operands[0].Index
			ci.dst = setReg(in.Target)
			// The compact read path decodes into per-instruction scratch;
			// the raw path shares the source's slice and leaves it unused.
			ci.buf = prog.numBufs
			prog.numBufs++
		case plan.OpINT, plan.OpTRC:
			ci.dst = setReg(in.Target)
			for _, o := range in.Operands {
				if o.Kind == plan.VarVG {
					ci.ops = append(ci.ops, vgReg)
					continue
				}
				r, ok := regOf[o]
				if !ok {
					return nil, fmt.Errorf("exec: instruction %d reads unset %s", i, o)
				}
				ci.ops = append(ci.ops, r)
			}
			for _, f := range in.Filters {
				ci.addFilter(f)
				if f.Kind == plan.FilterLabel {
					prog.needsLabels = true
				}
			}
			ci.buf = prog.numBufs
			prog.numBufs++
			if in.Op == plan.OpTRC {
				if len(in.KeyVerts) < 2 || len(in.KeyVerts) > TriKeyWidth {
					return nil, fmt.Errorf("exec: TRC instruction %d has %d key vertices (want 2..%d)",
						i, len(in.KeyVerts), TriKeyWidth)
				}
				ci.keys = append([]int(nil), in.KeyVerts...)
			}
		case plan.OpENU:
			ci.vertex = in.Target.Index
			src := in.Operands[0]
			if src.Kind == plan.VarVG {
				ci.ops = []int{vgReg}
			} else {
				r, ok := regOf[src]
				if !ok {
					return nil, fmt.Errorf("exec: ENU at %d reads unset %s", i, src)
				}
				ci.ops = []int{r}
			}
			if enuSeen == 0 {
				prog.splitPC = len(prog.instrs)
			}
			enuSeen++
		case plan.OpRES:
			for _, o := range in.Operands {
				if o.Kind == plan.VarF {
					prog.res = append(prog.res, resOperand{f: o.Index})
				} else {
					r, ok := regOf[o]
					if !ok {
						return nil, fmt.Errorf("exec: RES reads unset %s", o)
					}
					prog.res = append(prog.res, resOperand{isSet: true, reg: r})
				}
			}
		}
		prog.instrs = append(prog.instrs, ci)
	}

	// Prefetch analysis: an ENU is prefetchable when some DBQ between it
	// and the next ENU queries the vertex it binds — i.e. the enumeration
	// loop issues one store lookup per candidate, the access pattern the
	// batched prefetch collapses into one round trip.
	for pc := range prog.instrs {
		if prog.instrs[pc].op != plan.OpENU {
			continue
		}
		for j := pc + 1; j < len(prog.instrs); j++ {
			if prog.instrs[j].op == plan.OpENU {
				break
			}
			if prog.instrs[j].op == plan.OpDBQ && prog.instrs[j].vertex == prog.instrs[pc].vertex {
				prog.instrs[pc].prefetch = true
				break
			}
		}
	}

	// Lazy-DBQ analysis: a DBQ register read exactly once, by an INT with
	// no ENU opening in between, is consumed exactly once per DBQ
	// execution. On the compact read path such a register never needs
	// materializing — the INT can merge the encoded delta stream
	// directly, fusing decode into the intersection. Count reads first.
	reads := make([]int, prog.numRegs)
	readerPC := make([]int, prog.numRegs)
	for pc, ci := range prog.instrs {
		switch ci.op {
		case plan.OpINT, plan.OpTRC, plan.OpENU:
			for _, r := range ci.ops {
				if r != vgReg {
					reads[r]++
					readerPC[r] = pc
				}
			}
		case plan.OpINI, plan.OpDBQ, plan.OpRES:
		}
	}
	for _, op := range prog.res {
		if op.isSet {
			reads[op.reg]++
			readerPC[op.reg] = len(prog.instrs) // RES: never fusable
		}
	}
	for pc := range prog.instrs {
		in := &prog.instrs[pc]
		if in.op != plan.OpDBQ || reads[in.dst] != 1 {
			continue
		}
		rpc := readerPC[in.dst]
		if rpc >= len(prog.instrs) || prog.instrs[rpc].op != plan.OpINT ||
			len(prog.instrs[rpc].ops) > 32 { // encMask width; plans never get close
			continue
		}
		if enuBetween(prog.instrs, pc, rpc) {
			continue // INT re-runs per candidate; eager decode is cheaper
		}
		in.lazy = true
		for k, r := range prog.instrs[rpc].ops {
			if r == in.dst {
				prog.instrs[rpc].encMask |= 1 << uint(k)
			}
		}
	}

	// Hoist analysis: a two-operand INT/TRC inside an enumeration loop,
	// one operand defined before the innermost enclosing ENU and the other
	// inside it, re-reads a list that cannot change while the loop runs.
	// That operand's defining instruction gets a bitset slot to mirror it
	// (markSlot) and the consumer probes the slot with its per-candidate
	// operand (probeSlot/probeVar) instead of merging both lists once per
	// candidate. Instructions are a linear loop nest — every ENU encloses
	// all that follow it — so the innermost enclosing ENU is the last one
	// seen, and every register has one defining instruction.
	defPC := make([]int, prog.numRegs)
	enuPC := -1
	for pc := range prog.instrs {
		in := &prog.instrs[pc]
		switch in.op {
		case plan.OpENU:
			enuPC = pc
		case plan.OpDBQ:
			defPC[in.dst] = pc
		case plan.OpINT, plan.OpTRC:
			defPC[in.dst] = pc
			if enuPC < 0 || len(in.ops) != 2 || in.ops[0] == vgReg || in.ops[1] == vgReg {
				continue
			}
			for k, r := range in.ops {
				if defPC[r] > enuPC && defPC[in.ops[1-k]] < enuPC {
					def := &prog.instrs[defPC[in.ops[1-k]]]
					if def.lazy {
						// Cannot happen: a lazy register has a single reader
						// with no ENU between definition and read, a hoisted
						// one has enuPC between them.
						return nil, fmt.Errorf("exec: instruction %d hoists a lazy DBQ register", pc)
					}
					if def.markSlot == noSlot {
						def.markSlot = prog.numSlots
						prog.numSlots++
					}
					in.probeSlot, in.probeVar = def.markSlot, k
				}
			}
		case plan.OpINI, plan.OpRES: // define no register, intersect nothing
		}
	}

	// Bound push-down: a single-operand INT whose operand is defined by an
	// unfiltered, unmirrored INT that nothing else reads, with no ENU in
	// between, hands its bounds to that INT — every vertex they name is
	// bound there too. Under an identity order the defining INT then
	// trims its operands before intersecting (q6's C6 := T6 | >f1,>f5
	// bounds T6 := A4∩A5), and the consumer only tests what is left.
	for pc := range prog.instrs {
		in := &prog.instrs[pc]
		if in.op != plan.OpINT || len(in.ops) != 1 || in.ops[0] == vgReg || len(in.gt)+len(in.lt) == 0 {
			continue
		}
		r := in.ops[0]
		def := &prog.instrs[defPC[r]]
		if def.op != plan.OpINT || len(def.filters) != 0 || def.markSlot != noSlot || reads[r] != 1 ||
			enuBetween(prog.instrs, defPC[r], pc) {
			continue
		}
		def.gt, def.lt = in.gt, in.lt
		in.gt, in.lt = nil, nil
	}

	// Early exit: an INT/TRC result that an ENU iterates, that RES reports
	// as a free image, or that a pruning INT/TRC intersects, empties every
	// emission beneath it when it is empty. Registers are read only after
	// their definition, so one backward pass finds them all.
	emptiesBranch := make([]bool, prog.numRegs)
	for _, op := range prog.res {
		if op.isSet {
			emptiesBranch[op.reg] = true
		}
	}
	for pc := len(prog.instrs) - 1; pc >= 0; pc-- {
		in := &prog.instrs[pc]
		in.prune = (in.op == plan.OpINT || in.op == plan.OpTRC) && emptiesBranch[in.dst]
		if in.op != plan.OpENU && !in.prune {
			continue
		}
		for _, r := range in.ops {
			if r != vgReg {
				emptiesBranch[r] = true
			}
		}
	}

	// Frontier analysis: the first ENU's candidates are known from A(f₁)
	// alone when the loop iterates that list or one single-operand INT's
	// filtering of it, and worth fetching ahead when the loop DB-queries
	// them (the prefetch mark). An anchored plan binds two vertices per
	// task and has no window of start lists to read. Any other set that
	// ends the task ahead of the loop when empty must be such a filtering
	// too: AppendFrontier checks these guards first.
	if pc := prog.splitPC; pc >= 0 && !pl.Anchored && prog.instrs[pc].prefetch && prog.instrs[pc].ops[0] != vgReg {
		f1 := pl.Order[0]
		isA1 := func(r int) bool {
			d := &prog.instrs[defPC[r]]
			return d.op == plan.OpDBQ && d.vertex == f1
		}
		filtersA1 := func(in *cInstr) bool {
			return in.op == plan.OpINT && len(in.ops) == 1 && in.ops[0] != vgReg && isA1(in.ops[0]) && filtersReadOnly(in.filters, f1)
		}
		at := -1 // the level's filters
		switch r := prog.instrs[pc].ops[0]; {
		case isA1(r):
			at = pc
		case filtersA1(&prog.instrs[defPC[r]]):
			at = defPC[r]
		}
		for g := 0; at >= 0 && g < pc; g++ {
			if in := &prog.instrs[g]; in.prune && g != at {
				if filtersA1(in) {
					prog.guards = append(prog.guards, g)
				} else {
					at, prog.guards = -1, nil
				}
			}
		}
		prog.frontierPC = at
	}

	if pl.Pattern.Labeled() {
		prog.needsLabels = true
		prog.startLabel = pl.Pattern.Label(int64(pl.Order[0]))
	}
	if pl.Anchored {
		prog.anchored = true
		for _, f := range pl.AnchorChecks {
			prog.anchor.addFilter(f)
		}
	}

	if pl.Compressed {
		prog.freeVerts = append([]int(nil), pl.Free...)
		prog.constraints = append([][2]int(nil), pl.FreeOrderConstraints...)
		inFree := make(map[int]bool, len(pl.Free))
		for _, v := range pl.Free {
			inFree[v] = true
		}
		for v := 0; v < prog.n; v++ {
			if !inFree[v] {
				prog.coverVerts = append(prog.coverVerts, v)
			}
		}
		// RES operands are in pattern-vertex order; pick out the image
		// registers of the free vertices.
		if len(prog.res) != prog.n {
			return nil, fmt.Errorf("exec: compressed RES has %d operands, want %d", len(prog.res), prog.n)
		}
		for _, v := range pl.Free {
			op := prog.res[v]
			if !op.isSet {
				return nil, fmt.Errorf("exec: free vertex u%d has a non-set RES operand", v+1)
			}
			prog.freeRegs = append(prog.freeRegs, op.reg)
		}
	}
	return prog, nil
}
