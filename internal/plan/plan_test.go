package plan

import (
	"math/rand"
	"strings"
	"testing"

	"benu/internal/estimate"
	"benu/internal/graph"
)

// demoPattern is the Fig. 1a fan and demoOrder the paper's running
// matching order u1,u3,u5,u2,u6,u4 (0-based).
func demoPattern(t *testing.T) *graph.Pattern {
	t.Helper()
	return graph.MustPattern("fan", 6, [][2]int64{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 2}, {0, 3}, {0, 4}})
}

var demoOrder = []int{0, 2, 4, 1, 5, 3}

func TestRawPlanDemoShape(t *testing.T) {
	p := demoPattern(t)
	pl, err := Raw(p, demoOrder)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Validate(); err != nil {
		t.Fatalf("raw plan invalid: %v\n%s", err, pl)
	}
	ops := pl.CountOps()
	// One INI, one RES, five ENU (one per non-start vertex).
	if ops[OpINI] != 1 || ops[OpRES] != 1 || ops[OpENU] != 5 {
		t.Errorf("op counts = %v\n%s", ops, pl)
	}
	// DBQ for every vertex with a later neighbor: u1, u3, u5 — u2, u6, u4
	// have all neighbors earlier in this order.
	if ops[OpDBQ] != 3 {
		t.Errorf("DBQ count = %d, want 3\n%s", ops[OpDBQ], pl)
	}
	// u4 (vertex 3) is adjacent to u1, u3, u5, all earlier: its raw
	// candidate instruction intersects A1, A3, A5.
	found := false
	for _, in := range pl.Instrs {
		if in.Op == OpINT && in.Target == (VarRef{Kind: VarT, Index: 3}) && len(in.Operands) == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("missing 3-way intersection for u4\n%s", pl)
	}
}

func TestRawPlanRejectsBadOrders(t *testing.T) {
	p := demoPattern(t)
	if _, err := Raw(p, []int{0, 1}); err == nil {
		t.Error("short order accepted")
	}
	if _, err := Raw(p, []int{0, 0, 1, 2, 3, 4}); err == nil {
		t.Error("duplicate order accepted")
	}
	if _, err := Raw(p, []int{0, 1, 2, 3, 4, 9}); err == nil {
		t.Error("out-of-range order accepted")
	}
}

func TestCSEFollowsPaperDemo(t *testing.T) {
	p := demoPattern(t)
	raw, err := Raw(p, demoOrder)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Optimize(raw, Options{CSE: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.Validate(); err != nil {
		t.Fatalf("invalid after CSE: %v\n%s", err, opt)
	}
	// The paper eliminates {A1, A3} into T7 (0-based temp index 6): there
	// must now be an instruction T:=Intersect(A1,A3) whose target feeds
	// both u2's candidate set and u4's.
	var cseTemp VarRef
	found := false
	for _, in := range opt.Instrs {
		if in.Op == OpINT && len(in.Operands) == 2 &&
			in.Operands[0] == (VarRef{Kind: VarA, Index: 0}) &&
			in.Operands[1] == (VarRef{Kind: VarA, Index: 2}) &&
			len(in.Filters) == 0 {
			cseTemp = in.Target
			found = true
		}
	}
	if !found {
		t.Fatalf("no Intersect(A1,A3) temp after CSE\n%s", opt)
	}
	uses := 0
	for _, in := range opt.Instrs {
		if in.Op != OpINT {
			continue
		}
		for _, o := range in.Operands {
			if o == cseTemp {
				uses++
			}
		}
	}
	if uses < 2 {
		t.Errorf("CSE temp used %d times, want ≥ 2\n%s", uses, opt)
	}
}

func TestReorderHoistsIntersections(t *testing.T) {
	p := demoPattern(t)
	raw, err := Raw(p, demoOrder)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Optimize(raw, Options{CSE: true, Reorder: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.Validate(); err != nil {
		t.Fatalf("invalid after reorder: %v\n%s", err, opt)
	}
	// The paper moves T4 := Intersect(T7, A5) forward across the ENU
	// instructions of f2 and f6: the intersection feeding u4's candidates
	// must now appear before the ENU of u2 (vertex 1).
	enuU2 := indexOf(opt, func(in *Instruction) bool {
		return in.Op == OpENU && in.Target.Index == 1
	})
	intForU4 := indexOf(opt, func(in *Instruction) bool {
		// T4 := Intersect(A5, T7) — the raw candidate set of u4 (the
		// paper's 15th instruction in Fig. 3c, hoisted in Fig. 3d).
		return in.Op == OpINT && in.Target == (VarRef{Kind: VarT, Index: 3})
	})
	if enuU2 < 0 || intForU4 < 0 {
		t.Fatalf("markers not found (enuU2=%d intForU4=%d)\n%s", enuU2, intForU4, opt)
	}
	if intForU4 > enuU2 {
		t.Errorf("u4's intersection (pos %d) not hoisted above ENU of u2 (pos %d)\n%s",
			intForU4, enuU2, opt)
	}
	// Flattening leaves no INT with > 2 operands.
	for _, in := range opt.Instrs {
		if in.Op == OpINT && len(in.Operands) > 2 {
			t.Errorf("unflattened instruction %s", in.String())
		}
	}
	// INI first, RES last.
	if opt.Instrs[0].Op != OpINI || opt.Instrs[len(opt.Instrs)-1].Op != OpRES {
		t.Errorf("INI/RES not at boundaries\n%s", opt)
	}
}

func TestTriangleCacheRewriteDemo(t *testing.T) {
	p := demoPattern(t)
	raw, err := Raw(p, demoOrder)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Optimize(raw, Options{CSE: true, Reorder: true, TriangleCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.Validate(); err != nil {
		t.Fatalf("invalid after TRC: %v\n%s", err, opt)
	}
	// The paper converts Intersect(A1,A3) and Intersect(A1,A5) into TRC.
	trcs := opt.CountOps()[OpTRC]
	if trcs != 2 {
		t.Errorf("TRC count = %d, want 2\n%s", trcs, opt)
	}
	for _, in := range opt.Instrs {
		if in.Op == OpTRC {
			hasStart := false
			for _, k := range in.KeyVerts {
				if k == 0 {
					hasStart = true
				}
			}
			if !hasStart {
				t.Errorf("TRC key %v does not involve the start vertex", in.KeyVerts)
			}
		}
	}
}

func TestVCBCDemoCover(t *testing.T) {
	p := demoPattern(t)
	raw, err := Raw(p, demoOrder)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Optimize(raw, AllOptions)
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.Validate(); err != nil {
		t.Fatalf("invalid after VCBC: %v\n%s", err, opt)
	}
	// The paper: the first three vertices u1, u3, u5 of the order form
	// the cover; u2, u6, u4 are compressed away.
	if !opt.Compressed || opt.CoverSize != 3 {
		t.Fatalf("cover size = %d (compressed=%v), want 3\n%s", opt.CoverSize, opt.Compressed, opt)
	}
	if len(opt.Free) != 3 {
		t.Fatalf("free = %v, want 3 vertices", opt.Free)
	}
	// Free vertices have no ENU.
	for _, in := range opt.Instrs {
		if in.Op == OpENU {
			for _, fv := range opt.Free {
				if in.Target.Index == fv {
					t.Errorf("free vertex u%d still enumerated", fv+1)
				}
			}
		}
	}
	// RES must have set operands for the free vertices.
	res := opt.Instrs[len(opt.Instrs)-1]
	setOps := 0
	for _, o := range res.Operands {
		if o.IsSet() {
			setOps++
		}
	}
	if setOps != 3 {
		t.Errorf("RES has %d set operands, want 3: %s", setOps, res.String())
	}
}

func TestUniOperandElimination(t *testing.T) {
	p := demoPattern(t)
	pl, err := Raw(p, demoOrder)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range pl.Instrs {
		if in.Op == OpINT && len(in.Operands) == 1 && len(in.Filters) == 0 {
			t.Errorf("surviving uni-operand instruction %s", in.String())
		}
	}
}

func TestOptimizeIsNonDestructive(t *testing.T) {
	p := demoPattern(t)
	raw, err := Raw(p, demoOrder)
	if err != nil {
		t.Fatal(err)
	}
	before := raw.String()
	if _, err := Optimize(raw, AllOptions); err != nil {
		t.Fatal(err)
	}
	if raw.String() != before {
		t.Error("Optimize mutated its input plan")
	}
}

func TestPlanStringRendersPaperNotation(t *testing.T) {
	p := demoPattern(t)
	pl, _ := Raw(p, demoOrder)
	s := pl.String()
	for _, frag := range []string{"f1:=Init(start)", "GetAdj", "Foreach", "ReportMatch"} {
		if !strings.Contains(s, frag) {
			t.Errorf("plan rendering missing %q:\n%s", frag, s)
		}
	}
}

func indexOf(pl *Plan, pred func(*Instruction) bool) int {
	for i := range pl.Instrs {
		if pred(&pl.Instrs[i]) {
			return i
		}
	}
	return -1
}

func TestValidateCatchesCorruption(t *testing.T) {
	p := demoPattern(t)
	pl, _ := Raw(p, demoOrder)

	// Use-before-def.
	bad := pl.clone()
	bad.Instrs[1], bad.Instrs[len(bad.Instrs)-2] = bad.Instrs[len(bad.Instrs)-2], bad.Instrs[1]
	if err := bad.Validate(); err == nil {
		t.Error("swapped instructions validated")
	}

	// RES not last.
	bad2 := pl.clone()
	bad2.Instrs = append(bad2.Instrs, Instruction{Op: OpINT, Target: bad2.freshTemp(), Operands: []VarRef{VG, VG}})
	if err := bad2.Validate(); err == nil {
		t.Error("RES-not-last validated")
	}

	// Bad order.
	bad3 := pl.clone()
	bad3.Order[0], bad3.Order[1] = bad3.Order[1], bad3.Order[0]
	if err := bad3.Validate(); err == nil {
		t.Error("order mismatch validated")
	}

	// A DBQ or ENU without its one operand, and a DBQ of a set variable:
	// exec.Compile indexes Operands[0] and reads it as a pattern vertex.
	for _, op := range []OpType{OpDBQ, OpENU} {
		bad4 := pl.clone()
		at := indexOf(bad4, func(in *Instruction) bool { return in.Op == op })
		bad4.Instrs[at].Operands = nil
		if err := bad4.Validate(); err == nil {
			t.Errorf("%s without an operand validated", op)
		}
	}
	bad5 := pl.clone()
	dbq := indexOf(bad5, func(in *Instruction) bool { return in.Op == OpDBQ })
	bad5.Instrs[dbq].Operands = []VarRef{bad5.Instrs[dbq].Target}
	if err := bad5.Validate(); err == nil {
		t.Error("DBQ of a set variable validated")
	}
}

func TestGenerateBestPlanDemo(t *testing.T) {
	p := demoPattern(t)
	st := estimate.UniformStats(10000, 20)
	res, err := GenerateBestPlan(p, st, OptimizedUncompressed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil {
		t.Fatal("no plan returned")
	}
	if err := res.Plan.Validate(); err != nil {
		t.Fatalf("best plan invalid: %v", err)
	}
	if res.Stats.Alpha <= 0 || res.Stats.Beta <= 0 {
		t.Errorf("stats not collected: %+v", res.Stats)
	}
	if float64(res.Stats.Alpha) > AlphaUpperBound(p.NumVertices()) {
		t.Errorf("alpha %d exceeds upper bound %g", res.Stats.Alpha, AlphaUpperBound(p.NumVertices()))
	}
	if float64(res.Stats.Beta) > BetaUpperBound(p.NumVertices()) {
		t.Errorf("beta %d exceeds upper bound %g", res.Stats.Beta, BetaUpperBound(p.NumVertices()))
	}
	if len(res.CandidateOrders) == 0 {
		t.Error("no candidate orders")
	}
}

// exhaustiveBestComm computes the minimum communication cost over all
// n! orders without any pruning, as ground truth for the pruned search.
func exhaustiveBestComm(p *graph.Pattern, st *estimate.Stats) float64 {
	n := p.NumVertices()
	best := -1.0
	perm := make([]int, n)
	used := make([]bool, n)
	var rec func(i int, pp *partialPattern, comm float64)
	rec = func(i int, pp *partialPattern, comm float64) {
		if i == n {
			if best < 0 || comm < best {
				best = comm
			}
			return
		}
		for u := 0; u < n; u++ {
			if used[u] {
				continue
			}
			used[u] = true
			perm[i] = u
			hasUnused := false
			for _, w := range p.Adj(int64(u)) {
				if !used[w] {
					hasUnused = true
					break
				}
			}
			savedIDs, savedDegs, savedM, savedK := len(pp.ids), append([]int(nil), pp.degs...), pp.m, pp.k
			pp.add(u)
			s := 0.0
			if hasUnused {
				s = pp.matches(st)
			}
			rec(i+1, pp, comm+s)
			pp.ids = pp.ids[:savedIDs]
			pp.degs = pp.degs[:savedIDs]
			copy(pp.degs, savedDegs)
			pp.m, pp.k = savedM, savedK
			pp.used[u] = false
			used[u] = false
		}
	}
	rec(0, newPartialPattern(p), 0)
	return best
}

func TestPruningPreservesBestCost(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	st := estimate.UniformStats(5000, 12)
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(2)
		var edges [][2]int64
		for v := int64(1); v < int64(n); v++ {
			edges = append(edges, [2]int64{rng.Int63n(v), v})
		}
		for u := int64(0); u < int64(n); u++ {
			for v := u + 1; v < int64(n); v++ {
				if rng.Float64() < 0.4 {
					edges = append(edges, [2]int64{u, v})
				}
			}
		}
		p := graph.MustPattern("rand", n, edges)
		want := exhaustiveBestComm(p, st)
		res, err := GenerateBestPlan(p, st, OptimizedUncompressed)
		if err != nil {
			t.Fatal(err)
		}
		got := EstimateCost(res.Plan, st).Communication
		if !approxEqual(got, want) {
			t.Errorf("trial %d (%s): pruned best comm %g != exhaustive %g", trial, p, got, want)
		}
	}
}

func TestCostPruningActuallyPrunes(t *testing.T) {
	// Regression: the +Inf "no best yet" sentinel once compared approx-
	// equal to every finite cost, so pruning never fired and all n!
	// orders became candidates.
	st := estimate.UniformStats(100000, 20)
	house := graph.MustPattern("house", 5, [][2]int64{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 4}, {1, 4}})
	res, err := GenerateBestPlan(house, st, OptimizedUncompressed)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CandidateOrders) >= 120 {
		t.Errorf("all %d orders became candidates — pruning inactive", len(res.CandidateOrders))
	}
	if res.Stats.Beta >= int64(BetaUpperBound(5)) {
		t.Errorf("beta %d hit its upper bound", res.Stats.Beta)
	}

	// On a clique every vertex is SE-equivalent: dual pruning leaves one
	// explorable order.
	cl, err := GenerateBestPlan(graph.MustPattern("k5", 5, [][2]int64{
		{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}}),
		st, OptimizedUncompressed)
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.CandidateOrders) != 1 {
		t.Errorf("clique5 candidates = %d, want 1", len(cl.CandidateOrders))
	}
}

func TestEstimateCostOrdering(t *testing.T) {
	a := Cost{Communication: 10, Computation: 100}
	b := Cost{Communication: 10, Computation: 50}
	c := Cost{Communication: 5, Computation: 1000}
	if !b.Less(a) || a.Less(b) {
		t.Error("computation tiebreak broken")
	}
	if !c.Less(a) || a.Less(c) {
		t.Error("communication primacy broken")
	}
}

func TestUpperBounds(t *testing.T) {
	if AlphaUpperBound(3) != 3+6+6 { // P(3,1)+P(3,2)+P(3,3)
		t.Errorf("AlphaUpperBound(3) = %g", AlphaUpperBound(3))
	}
	if BetaUpperBound(5) != 120 {
		t.Errorf("BetaUpperBound(5) = %g", BetaUpperBound(5))
	}
}
