package plan

import (
	"fmt"
	"strings"

	"benu/internal/graph"
)

// Plan is a complete BENU execution plan: a matching order plus the
// instruction sequence that enumerates all matches of Pattern following
// that order. Plans are immutable once handed to an executor.
type Plan struct {
	Pattern *graph.Pattern
	// Order is the matching order O as pattern vertex ids (0-based).
	Order []int
	// Instrs is the instruction sequence.
	Instrs []Instruction

	// Compressed marks a VCBC-compressed plan (§IV-B "Support VCBC
	// Compression"): the ENU instructions of non-cover vertices are
	// removed and RES reports their candidate sets as conditional image
	// sets instead of single vertices.
	Compressed bool
	// CoverSize is k: the first k vertices of Order form the vertex cover
	// whose matches are the helves. Meaningful only when Compressed.
	CoverSize int
	// Free lists the non-cover pattern vertices in ascending id order.
	Free []int
	// FreeOrderConstraints are symmetry-breaking constraints (a, b) —
	// meaning f_a ≺ f_b — between two free vertices. They were removed
	// from the instruction filters by the compression rewrite and must be
	// re-applied when counting or expanding compressed results.
	FreeOrderConstraints [][2]int

	// DegreeFiltered records that Options.DegreeFilter added minimum-
	// degree conditions. The cluster layer uses it to skip generating
	// tasks whose start vertex cannot match the first order vertex.
	DegreeFiltered bool

	// Anchored marks a delta-enumeration plan: the first two order
	// vertices are both pinned by the task (to a data edge) instead of
	// the second being enumerated. See RawAnchored.
	Anchored bool
	// AnchorChecks are the filtering conditions that applied to the
	// second pinned vertex's candidate set; the executor evaluates them
	// once per task against Start2.
	AnchorChecks []FilterCond

	// nextTemp is the smallest unused VarT index (temps created by CSE
	// and flattening allocate from here).
	nextTemp int
}

// clone deep-copies the plan (instructions included).
func (p *Plan) clone() *Plan {
	cp := *p
	cp.Order = append([]int(nil), p.Order...)
	cp.Instrs = make([]Instruction, len(p.Instrs))
	for i := range p.Instrs {
		cp.Instrs[i] = p.Instrs[i].clone()
	}
	cp.Free = append([]int(nil), p.Free...)
	cp.FreeOrderConstraints = append([][2]int(nil), p.FreeOrderConstraints...)
	cp.AnchorChecks = append([]FilterCond(nil), p.AnchorChecks...)
	return &cp
}

// freshTemp allocates an unused temporary variable.
func (p *Plan) freshTemp() VarRef {
	v := VarRef{Kind: VarT, Index: p.nextTemp}
	p.nextTemp++
	return v
}

// defIndex returns a map from defined variable to the index of its
// defining instruction.
func (p *Plan) defIndex() map[VarRef]int {
	def := make(map[VarRef]int, len(p.Instrs))
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if in.Op == OpRES {
			continue
		}
		def[in.Target] = i
	}
	return def
}

// CountOps returns the number of instructions of each type, for tests and
// plan summaries.
func (p *Plan) CountOps() map[OpType]int {
	out := make(map[OpType]int)
	for i := range p.Instrs {
		out[p.Instrs[i].Op]++
	}
	return out
}

// Validate checks structural well-formedness: every variable is defined
// before use, each variable is assigned exactly once, ENU instructions
// appear in matching order, and the RES instruction is last. Returns the
// first violation found.
func (p *Plan) Validate() error {
	n := p.Pattern.NumVertices()
	if len(p.Order) != n {
		return fmt.Errorf("plan: order has %d vertices, pattern has %d", len(p.Order), n)
	}
	seen := make([]bool, n)
	for _, u := range p.Order {
		if u < 0 || u >= n || seen[u] {
			return fmt.Errorf("plan: order %v is not a permutation", p.Order)
		}
		seen[u] = true
	}
	defined := map[VarRef]bool{VG: true}
	checkUse := func(pos int, v VarRef) error {
		if v.Kind == VarVG {
			return nil
		}
		if !defined[v] {
			return fmt.Errorf("plan: instruction %d (%s) uses undefined %s", pos, p.Instrs[pos].String(), v)
		}
		return nil
	}
	var enuSeq []int
	for i := range p.Instrs {
		in := &p.Instrs[i]
		// Checked before anything renders the instruction: String and
		// exec.Compile both index Operands[0] of a DBQ or ENU, and a
		// decoded plan may carry none.
		if (in.Op == OpDBQ || in.Op == OpENU) && len(in.Operands) != 1 {
			return fmt.Errorf("plan: instruction %d (%s) has %d operands, want 1", i, in.Op, len(in.Operands))
		}
		if in.Op == OpDBQ && in.Operands[0].Kind != VarF {
			return fmt.Errorf("plan: instruction %d queries the adjacency of %s, not of an f variable", i, in.Operands[0])
		}
		for _, o := range in.Operands {
			if err := checkUse(i, o); err != nil {
				return err
			}
		}
		for _, f := range in.Filters {
			if !f.refsF() {
				continue
			}
			if err := checkUse(i, VarRef{Kind: VarF, Index: f.Vertex}); err != nil {
				return err
			}
		}
		if in.Op == OpTRC {
			for _, v := range in.KeyVerts {
				if err := checkUse(i, VarRef{Kind: VarF, Index: v}); err != nil {
					return err
				}
			}
		}
		if in.Op == OpRES {
			if i != len(p.Instrs)-1 {
				return fmt.Errorf("plan: RES at %d is not the last instruction", i)
			}
			continue
		}
		if defined[in.Target] {
			return fmt.Errorf("plan: %s assigned twice (instruction %d)", in.Target, i)
		}
		defined[in.Target] = true
		if in.Op == OpENU || in.Op == OpINI {
			if in.Target.Kind != VarF {
				return fmt.Errorf("plan: instruction %d (%s) must target an f variable", i, in.String())
			}
			enuSeq = append(enuSeq, in.Target.Index)
		}
	}
	if len(p.Instrs) == 0 || p.Instrs[len(p.Instrs)-1].Op != OpRES {
		return fmt.Errorf("plan: missing RES instruction")
	}
	// ENU/INI sequence must be the matching order (minus free vertices in
	// compressed plans).
	want := p.Order
	if p.Compressed {
		want = p.Order[:p.CoverSize]
	}
	if len(enuSeq) != len(want) {
		return fmt.Errorf("plan: ENU sequence %v does not cover order %v", enuSeq, want)
	}
	for i := range want {
		if enuSeq[i] != want[i] {
			return fmt.Errorf("plan: ENU sequence %v deviates from order %v", enuSeq, want)
		}
	}
	return nil
}

// NumDBQ returns the number of DBQ instructions.
func (p *Plan) NumDBQ() int { return p.CountOps()[OpDBQ] }

// String renders the plan as numbered instructions, matching the paper's
// Fig. 3 presentation.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Plan(%s, order=[", p.Pattern.Name())
	for i, u := range p.Order {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "u%d", u+1)
	}
	b.WriteString("]")
	if p.Compressed {
		fmt.Fprintf(&b, ", VCBC cover=%d", p.CoverSize)
	}
	b.WriteString(")\n")
	for i := range p.Instrs {
		fmt.Fprintf(&b, "%2d: %s\n", i+1, p.Instrs[i].String())
	}
	return b.String()
}
