package exec

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"benu/internal/gen"
	"benu/internal/graph"
	"benu/internal/plan"
)

// Tests for Opt-2's early exit: which INTs Compile splits so that each
// filter applies where its vertex is bound, that the plan itself never
// sees the split, and that only a register whose emptiness empties the
// branch ends it. The count side (no code lost, no DBQ or ENU step
// added) is TestProbeChangesNoCount's.

// splitSummary renders a program's filter splits in program order as
// "C2: T2 | [>f1] then [!=f4 !=f5]": the late INT, the operands and
// filters of the early one, then the filters left to the late one.
func splitSummary(t *testing.T, prog *Program) []string {
	t.Helper()
	var out []string
	early := map[plan.VarRef]int{} // early INTs by target: defined in the code, not in the plan
	for pc := range prog.code {
		early[prog.code[pc].Target] = pc
	}
	for _, in := range prog.Plan.Instrs {
		delete(early, in.Target)
	}
	for pc, in := range prog.code {
		if in.Op != plan.OpINT || len(in.Operands) != 1 {
			continue
		}
		epc, ok := early[in.Operands[0]]
		if !ok {
			continue
		}
		e := prog.code[epc]
		if !enuBetween(prog.instrs, epc, pc) {
			t.Errorf("%s: %s splits into %s with no ENU in between", prog.Plan.Pattern.Name(), &in, &e)
		}
		out = append(out, fmt.Sprintf("%s: %v | %v then %v", in.Target, e.Operands, e.Filters, in.Filters))
	}
	return out
}

// TestFilterSplitGolden pins the split on the catalogue's best plans
// (VCBC first, uncompressed second) on a power-law graph. q6's free
// vertex u2 is enumerated after f5, yet T2 | >f1 is known once per f3: an
// empty one ends the f3 branch before the f4 and f5 loops. An INT with no
// ENU between its operands and itself is never split, and Compile leaves
// the plan — its wire form, cost and journal pin — as it was.
func TestFilterSplitGolden(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 300, EdgesPer: 4, Triad: 0.3, Seed: 11})
	golden := map[string][2][]string{
		"q3": {nil, {"C5: [T5] | [!=f3] then [>f2]"}},
		"q6": {
			{"C2: [T2] | [>f1] then [!=f4 !=f5]"},
			{"C2: [T2] | [>f1] then [!=f4 !=f5]", "C6: [T6] | [>f1 !=f3 >f5] then [!=f2]"},
		},
		"q7": {
			{"C5: [A1] | [!=f2 !=f3] then [!=f4]"},
			{"C5: [A1] | [!=f2 !=f3] then [!=f4]", "C6: [A4] | [!=f2 !=f3 !=f1] then [!=f5]"},
		},
		"q8":     {nil, {"C6: [T6] | [!=f1 !=f2] then [!=f5]"}},
		"cycle5": {{"C1: [A2] | [<f2] then [<f3]", "C4: [A3] | [!=f2] then [>f1]"}, {"C1: [A2] | [<f2] then [<f3]", "C4: [A3] | [!=f2] then [>f1]"}},
		"path4":  {nil, {"C4: [A3] | [!=f2] then [>f1]"}},
		"demo":   {nil, {"C6: [T6] | [!=f3 !=f4] then [>f2]"}},
	}
	for _, name := range cataloguePatterns {
		p, err := gen.PatternByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, vcbc := range []bool{true, false} {
			prog := compileBest(t, p, g, plan.Options{CSE: true, Reorder: true, TriangleCache: true, VCBC: vcbc})
			if got := splitSummary(t, prog); !slices.Equal(got, golden[name][i]) {
				t.Errorf("%s vcbc=%v: splits %q, want %q\n%s", name, vcbc, got, golden[name][i], prog.Plan)
			}
			wire, err := prog.Plan.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Compile(prog.Plan); err != nil {
				t.Fatal(err)
			}
			if again, _ := prog.Plan.MarshalJSON(); !bytes.Equal(wire, again) {
				t.Errorf("%s vcbc=%v: Compile changed the plan", name, vcbc)
			}
		}
	}
}

// TestDeadRegisterDoesNotPrune: a hand-built triangle plan that also
// computes T4 := A1 | <f1 and never reads it. T4 is empty whenever f1 is
// its neighbourhood's minimum, yet the task goes on: only a register an
// ENU, RES or pruning intersection reads can end a branch.
func TestDeadRegisterDoesNotPrune(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 90, EdgesPer: 3, Triad: 0.4, Seed: 13})
	prog := compileBest(t, gen.Triangle(), g, plan.OptimizedUncompressed)
	pl := *prog.Plan
	dead := plan.Instruction{Op: plan.OpINT, Target: plan.VarRef{Kind: plan.VarT, Index: 3},
		Operands: []plan.VarRef{{Kind: plan.VarA, Index: pl.Order[0]}},
		Filters:  []plan.FilterCond{{Kind: plan.FilterLT, Vertex: pl.Order[0]}}}
	pl.Instrs = slices.Insert(slices.Clone(pl.Instrs), 2, dead)
	withDead, err := Compile(&pl)
	if err != nil {
		t.Fatalf("%v\n%s", err, &pl)
	}
	if in := withDead.instrs[2]; in.op != plan.OpINT || in.prune {
		t.Fatalf("dead INT compiled as %+v, want an INT that does not prune", in)
	}
	for _, g := range []*graph.Graph{g, graph.Relabel(g)} {
		ord := graph.NewTotalOrder(g)
		s, err := RunAll(withDead, GraphSource{G: g}, g.NumVertices(), ord, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if want := graph.RefCount(gen.Triangle(), g, ord); s.Matches != want {
			t.Errorf("identity=%v: %d triangles with a dead register, RefCount %d", ord.Identity(), s.Matches, want)
		}
	}
}
