package exec

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"benu/internal/estimate"
	"benu/internal/gen"
	"benu/internal/graph"
	"benu/internal/kv"
	"benu/internal/plan"
)

// Tests for the hoisted-operand bitsets: which instructions Compile
// marks and which probe them, that the probe changes no count, and that
// an executor's bitsets still mirror its registers after a task failed or
// stopped half-way.

// cataloguePatterns is every named pattern of gen.PatternByName the
// evaluation uses.
var cataloguePatterns = strings.Fields(
	"triangle square chordal-square q1 q2 q3 q4 q5 q6 q7 q8 q9 clique4 clique5 cycle5 path4 star4 demo")

// hoistSummary renders a program's hoists as "A4:DBQ>T6:INT": the
// register a slot mirrors with the instruction kind defining it, then the
// instruction that probes the slot — one entry per probing instruction,
// in program order.
func hoistSummary(prog *Program) string {
	var parts []string
	for pc, in := range prog.instrs {
		if in.probeSlot == noSlot {
			continue
		}
		for dpc, d := range prog.instrs {
			if d.markSlot == in.probeSlot {
				parts = append(parts, fmt.Sprintf("%s:%s>%s:%s",
					prog.Plan.Instrs[dpc].Target, d.op, prog.Plan.Instrs[pc].Target, in.op))
			}
		}
	}
	return strings.Join(parts, " ")
}

// compileBest plans p against g's statistics and compiles the result.
func compileBest(t testing.TB, p *graph.Pattern, g *graph.Graph, opts plan.Options) *Program {
	t.Helper()
	res, err := plan.GenerateBestPlan(p, estimate.NewStats(g, estimate.MaxMomentDefault), opts)
	if err != nil {
		t.Fatalf("%s: GenerateBestPlan: %v", p.Name(), err)
	}
	prog, err := Compile(res.Plan)
	if err != nil {
		t.Fatalf("%s: Compile: %v", p.Name(), err)
	}
	return prog
}

// TestHoistGolden pins the analysis on the catalogue: for each pattern,
// with the triangle-cache rewrite on (first string) and off (second),
// which register is mirrored and which INT/TRC probes it. VCBC and
// uncompressed plans hoist alike (compression only changes the tail).
func TestHoistGolden(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 300, EdgesPer: 4, Triad: 0.3, Seed: 11})
	golden := map[string][2]string{
		"triangle":       {"A1:DBQ>T3:TRC", "A1:DBQ>T3:INT"},
		"square":         {"A1:DBQ>T4:INT", "A1:DBQ>T4:INT"},
		"chordal-square": {"A2:DBQ>T5:TRC", "A2:DBQ>T5:INT"},
		"q1":             {"A1:DBQ>T5:TRC A1:DBQ>T4:INT", "A1:DBQ>T5:INT A1:DBQ>T4:INT"},
		"q2":             {"A1:DBQ>T6:TRC T6:TRC>T4:INT", "A1:DBQ>T6:INT T6:INT>T4:INT"},
		"q3":             {"A1:DBQ>T6:TRC A1:DBQ>T5:TRC", "A1:DBQ>T6:INT A1:DBQ>T5:INT"},
		"q4":             {"A2:DBQ>T6:TRC", "A2:DBQ>T6:INT"},
		"q5":             {"A1:DBQ>T7:TRC T7:TRC>T6:INT T6:INT>T5:INT", "A1:DBQ>T7:INT T7:INT>T6:INT T6:INT>T5:INT"},
		"q6":             {"A1:DBQ>T2:TRC A4:DBQ>T6:INT", "A1:DBQ>T2:INT A4:DBQ>T6:INT"},
		"q7":             {"A2:DBQ>T7:TRC", "A2:DBQ>T7:INT"},
		"q8":             {"A1:DBQ>T7:TRC A2:DBQ>T4:INT A3:DBQ>T6:INT", "A1:DBQ>T7:INT A2:DBQ>T4:INT A3:DBQ>T6:INT"},
		"q9":             {"A2:DBQ>T7:TRC A3:DBQ>T6:INT", "A2:DBQ>T7:INT A3:DBQ>T6:INT"},
		"clique4":        {"A1:DBQ>T5:TRC T5:TRC>T4:INT", "A1:DBQ>T5:INT T5:INT>T4:INT"},
		"clique5":        {"A1:DBQ>T7:TRC T7:TRC>T6:INT T6:INT>T5:INT", "A1:DBQ>T7:INT T7:INT>T6:INT T6:INT>T5:INT"},
		"cycle5":         {"A1:DBQ>T5:INT", "A1:DBQ>T5:INT"},
		"path4":          {"", ""},
		"star4":          {"", ""},
		"demo":           {"A1:DBQ>T7:TRC A1:DBQ>T5:TRC A1:DBQ>T6:TRC", "A1:DBQ>T7:INT A1:DBQ>T5:INT A1:DBQ>T6:INT"},
	}
	for _, name := range cataloguePatterns {
		p, err := gen.PatternByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, tri := range []bool{true, false} {
			for _, vcbc := range []bool{true, false} {
				prog := compileBest(t, p, g, plan.Options{CSE: true, Reorder: true, TriangleCache: tri, VCBC: vcbc})
				if got := hoistSummary(prog); got != golden[name][i] {
					t.Errorf("%s tri=%v vcbc=%v: hoists %q, want %q\n%s", name, tri, vcbc, got, golden[name][i], prog.Plan)
				}
				checkHoistShape(t, prog)
			}
		}
	}
}

// checkHoistShape asserts what holds of every compiled program: each
// two-register INT/TRC below an ENU is hoisted, nothing else is, a probed
// slot is mirrored by exactly one defining instruction that precedes the
// enclosing ENU, and no mirrored register is a lazy one.
func checkHoistShape(t *testing.T, prog *Program) {
	t.Helper()
	definers := make([]int, prog.numSlots)
	for _, in := range prog.instrs {
		if in.markSlot != noSlot {
			definers[in.markSlot]++
			if in.lazy {
				t.Errorf("%s: a lazy DBQ carries a mark slot", prog.Plan.Pattern.Name())
			}
		}
	}
	for s, n := range definers {
		if n != 1 {
			t.Errorf("%s: slot %d has %d defining instructions", prog.Plan.Pattern.Name(), s, n)
		}
	}
	inLoop := false
	for pc, in := range prog.instrs {
		if in.op == plan.OpENU {
			inLoop = true
		}
		two := (in.op == plan.OpINT || in.op == plan.OpTRC) && len(in.ops) == 2 && in.ops[0] != vgReg && in.ops[1] != vgReg
		if want := two && inLoop; want != (in.probeSlot != noSlot) {
			t.Errorf("%s: instruction %d (%s) hoisted=%v, want %v", prog.Plan.Pattern.Name(), pc,
				&prog.Plan.Instrs[pc], in.probeSlot != noSlot, want)
		}
	}
}

// TestAnchoredLevelZeroNotHoisted: a delta plan binds its first two
// vertices with INI, so its first Intersect(A1,A2) runs once per task
// with no enclosing ENU — nothing is invariant across anything.
func TestAnchoredLevelZeroNotHoisted(t *testing.T) {
	p := gen.Clique(4)
	order, err := plan.AnchoredOrder(p, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.GenerateAnchored(p, order, plan.OptimizedUncompressed)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(pl)
	if err != nil {
		t.Fatal(err)
	}
	first := -1
	for pc, in := range prog.instrs {
		if in.op == plan.OpENU {
			break
		}
		if (in.op == plan.OpINT || in.op == plan.OpTRC) && len(in.ops) == 2 {
			first = pc
			if in.probeSlot != noSlot {
				t.Errorf("level-0 instruction %s is hoisted", &pl.Instrs[pc])
			}
		}
	}
	if first < 0 {
		t.Fatalf("anchored clique4 plan has no two-operand intersection before its first ENU:\n%s", pl)
	}
	checkHoistShape(t, prog)
}

// checkMarks asserts the executor's invariant between instructions of a
// task and after it, however it ended: every bitset holds exactly the ids
// of the register it mirrors.
func checkMarks(t *testing.T, e *Executor, when string) {
	t.Helper()
	for pc, in := range e.prog.instrs {
		if in.markSlot == noSlot {
			continue
		}
		want := graph.NewBitset(e.numV)
		want.Add(e.regs[in.dst])
		got := e.marks[in.markSlot]
		for w := range want {
			var have uint64
			if got != nil {
				have = got[w]
			}
			if have != want[w] {
				t.Fatalf("%s: slot %d (instruction %d) word %d = %#x, register says %#x",
					when, in.markSlot, pc, w, have, want[w])
			}
		}
	}
}

// q6Program compiles q6 in the matching order of the benchmark's plan
// (u1 u3 u2 u4 u5 u6): A1 is mirrored for the f3 loop's triangle, A4 for
// the f5 loop's Intersect(A4,A5).
func q6Program(t *testing.T, opts plan.Options) *Program {
	t.Helper()
	pl, err := plan.Generate(gen.Q(6), []int{0, 2, 1, 3, 4, 5}, opts)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(pl)
	if err != nil {
		t.Fatal(err)
	}
	if prog.numSlots != 2 {
		t.Fatalf("q6 plan has %d mirrored registers, want 2 (A1, A4):\n%s", prog.numSlots, pl)
	}
	return prog
}

// TestExecutorReuseAfterFailedTask: the runtimes keep one Executor per
// thread across attempts, and a failing store call returns through every
// ENU level without unwinding anything. For every store call k of a heavy
// q6 task — the A4 fetch that redefines a mirrored register and the A5
// fetches inside the f5 loop that probes it among them — the task fails
// at k (a sample of them), then the same executor re-runs it and counts what a clean
// executor counts; afterwards it runs every task and reaches
// graph.RefCount. Whole and split tasks, raw and compact reads.
func TestExecutorReuseAfterFailedTask(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 50, EdgesPer: 4, Triad: 0.5, Seed: 5})
	ord := graph.NewTotalOrder(g)
	want := graph.RefCount(gen.Q(6), g, ord)
	prog := q6Program(t, plan.AllOptions)
	for _, compact := range []bool{false, true} {
		for _, task := range []Task{{}, {SplitIndex: 1, SplitCount: 3}} {
			name := fmt.Sprintf("compact=%v/split=%d", compact, task.SplitCount)
			faulty := kv.NewFaulty(kv.NewLocal(g))
			src := NewCachedSourceWith(faulty, 0, SourceOptions{Compact: compact}) // no cache: one store call per DBQ
			e := NewExecutor(prog, src, g.NumVertices(), ord, Options{TriangleCacheEntries: 16})

			// The heaviest task, by store calls, and its clean count.
			var clean Stats
			for v := 0; v < g.NumVertices(); v++ {
				probe := task
				probe.Start = int64(v)
				s, err := e.Run(probe)
				if err != nil {
					t.Fatal(err)
				}
				if s.DBQueries > clean.DBQueries {
					clean, task = s, probe
				}
			}
			depths := map[int]bool{}
			// Every call of the first 12 (A1, the first A3, A4 and A5
			// fetches), then every 151st of the rest.
			for k := int64(1); k <= clean.DBQueries; k += 1 + 150*min(k/12, 1) {
				faulty.FailOnceAt = faulty.Calls() + k
				_, err := e.Run(task)
				if !errors.Is(err, kv.ErrInjected) {
					t.Fatalf("%s: call %d of %d: err = %v, want the injected failure", name, k, clean.DBQueries, err)
				}
				depths[e.depth] = true
				checkMarks(t, e, fmt.Sprintf("%s: after failing call %d", name, k))
				s, err := e.Run(task)
				if err != nil {
					t.Fatal(err)
				}
				if s.Matches != clean.Matches || s.Codes != clean.Codes || s.IntOps != clean.IntOps {
					t.Fatalf("%s: re-run after failing call %d: %+v, clean run %+v", name, k, s, clean)
				}
				checkMarks(t, e, fmt.Sprintf("%s: after the re-run of call %d", name, k))
			}
			// ENU depth 3 is the f4 loop (the failing call fetched A4),
			// depth 4 the f5 loop (A5).
			if !depths[3] || !depths[4] {
				t.Fatalf("%s: failures reached ENU depths %v, want 3 and 4 among them", name, depths)
			}
			if task.SplitCount > 1 {
				continue // a split sweep counts a third of the matches
			}
			var total int64
			for v := 0; v < g.NumVertices(); v++ {
				s, err := e.Run(Task{Start: int64(v)})
				if err != nil {
					t.Fatal(err)
				}
				total += s.Matches
				checkMarks(t, e, fmt.Sprintf("%s: after task %d", name, v))
			}
			if total != want {
				t.Errorf("%s: %d matches after the failures, RefCount %d", name, total, want)
			}
		}
	}
}

// TestExecutorReuseAfterStoppedTask: an Emit that returns false leaves
// the task from the middle of the f5 loop through the stopped early
// exits; the executor's next tasks are unaffected.
func TestExecutorReuseAfterStoppedTask(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 50, EdgesPer: 4, Triad: 0.5, Seed: 5})
	ord := graph.NewTotalOrder(g)
	want := graph.RefCount(gen.Q(6), g, ord)
	prog := q6Program(t, plan.OptimizedUncompressed)
	stopAfter, seen := int64(0), int64(0)
	e := NewExecutor(prog, GraphSource{G: g}, g.NumVertices(), ord, Options{
		Emit: func([]int64) bool { seen++; return stopAfter == 0 || seen < stopAfter },
	})
	var total int64
	for v := 0; v < g.NumVertices(); v++ {
		full, err := e.Run(Task{Start: int64(v)})
		if err != nil {
			t.Fatal(err)
		}
		total += full.Matches
		for _, stopAfter = range []int64{1, full.Matches / 2, full.Matches} {
			if stopAfter == 0 || stopAfter > full.Matches {
				continue
			}
			seen = 0
			s, err := e.Run(Task{Start: int64(v)})
			if err != nil || s.Matches != stopAfter {
				t.Fatalf("task %d stopped after %d matches: %+v, %v", v, stopAfter, s, err)
			}
			checkMarks(t, e, fmt.Sprintf("task %d stopped after %d matches", v, stopAfter))
		}
		stopAfter = 0
		again, err := e.Run(Task{Start: int64(v)})
		if err != nil || again != full {
			t.Fatalf("task %d after stopped runs: %+v, %v; first run %+v", v, again, err, full)
		}
	}
	if total != want {
		t.Errorf("%d matches, RefCount %d", total, want)
	}
}

// TestOutOfRangeNeighbourFailsTheTask is the reproduction of the
// lying-store panic: a 50-vertex kv.Serve'd store whose list for vertex 0
// ends in 1000. The reply is rejected at the wire, the task returns the
// error, and nothing indexes the rank array with 1000.
func TestOutOfRangeNeighbourFailsTheTask(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 50, EdgesPer: 3, Triad: 0.5, Seed: 3})
	data := kv.Shard(g, 0, 1)
	data[0] = append(append([]int64(nil), data[0]...), 1000)
	srv, err := kv.Serve("127.0.0.1:0", kv.NewMapStore(data, g.NumVertices()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := kv.Dial([]string{srv.Addr()}, g.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	prog := compileBest(t, gen.Triangle(), g, plan.AllOptions)
	for _, compact := range []bool{false, true} {
		src := NewCachedSourceWith(client, g.SizeBytes()*4, SourceOptions{Compact: compact})
		_, err := RunAll(prog, src, g.NumVertices(), graph.NewTotalOrder(g), Options{})
		if err == nil || !strings.Contains(err.Error(), "outside [0,50)") {
			t.Errorf("compact=%v: err = %v, want the out-of-range neighbour reported", compact, err)
		}
	}
}

// TestUnvalidatedOutOfRangeIDsDoNotPanicTheProbe: a source that crosses
// no validating boundary (a test store, StoreSource over kv.Mutable) can
// still hand the executor an id past |V|. The mark/probe path treats it
// as a non-member; with no ≺ filter on the way (an unlabeled triangle's
// filters are what indexes the rank array) the task completes.
func TestUnvalidatedOutOfRangeIDsDoNotPanicTheProbe(t *testing.T) {
	g := gen.Clique(5).Graph()
	adj := make(map[int64][]int64)
	for v := int64(0); v < 5; v++ {
		adj[v] = append(g.AdjCopy(v), 64, 1<<40) // 64: first id past the one-word bitset
	}
	pl := &plan.Plan{
		Pattern: gen.Triangle(),
		Order:   []int{0, 1, 2},
		Instrs: []plan.Instruction{
			{Op: plan.OpINI, Target: plan.VarRef{Kind: plan.VarF, Index: 0}},
			{Op: plan.OpDBQ, Target: plan.VarRef{Kind: plan.VarA, Index: 0}, Operands: []plan.VarRef{{Kind: plan.VarF, Index: 0}}},
			{Op: plan.OpINT, Target: plan.VarRef{Kind: plan.VarC, Index: 1}, Operands: []plan.VarRef{{Kind: plan.VarA, Index: 0}},
				Filters: []plan.FilterCond{{Kind: plan.FilterNE, Vertex: 0}}},
			{Op: plan.OpENU, Target: plan.VarRef{Kind: plan.VarF, Index: 1}, Operands: []plan.VarRef{{Kind: plan.VarC, Index: 1}}},
			{Op: plan.OpDBQ, Target: plan.VarRef{Kind: plan.VarA, Index: 1}, Operands: []plan.VarRef{{Kind: plan.VarF, Index: 1}}},
			{Op: plan.OpINT, Target: plan.VarRef{Kind: plan.VarC, Index: 2}, Operands: []plan.VarRef{{Kind: plan.VarA, Index: 0}, {Kind: plan.VarA, Index: 1}},
				Filters: []plan.FilterCond{{Kind: plan.FilterNE, Vertex: 0}, {Kind: plan.FilterNE, Vertex: 1}}},
			{Op: plan.OpENU, Target: plan.VarRef{Kind: plan.VarF, Index: 2}, Operands: []plan.VarRef{{Kind: plan.VarC, Index: 2}}},
			{Op: plan.OpRES, Operands: []plan.VarRef{{Kind: plan.VarF, Index: 0}, {Kind: plan.VarF, Index: 1}, {Kind: plan.VarF, Index: 2}}},
		},
	}
	prog, err := Compile(pl)
	if err != nil {
		t.Fatal(err)
	}
	if got := hoistSummary(prog); got != "A1:DBQ>C3:INT" {
		t.Fatalf("hand-built plan hoists %q", got)
	}
	var matches int64
	e := NewExecutor(prog, mapSource(adj), 5, graph.IdentityOrder(5), Options{Emit: func(f []int64) bool {
		for _, v := range f {
			if v >= 5 {
				t.Errorf("match %v binds an id outside the graph", f)
			}
		}
		matches++
		return true
	}})
	// Only start vertices of the graph: f1 itself is the task's, not the
	// store's, to get right.
	for v := int64(0); v < 5; v++ {
		if _, err := e.Run(Task{Start: v}); err != nil {
			t.Fatal(err)
		}
		checkMarks(t, e, fmt.Sprintf("task %d", v))
	}
	// f2 ranges over A1 unprobed, so it does bind 64 and 2^40 — whose
	// adjacency the map lacks; those branches end there. Every ordered
	// triangle of K5 is still found: 5·4·3.
	if matches != 60 {
		t.Errorf("%d ordered triangles in K5 with out-of-range ids in every list, want 60", matches)
	}
}

// mapSource serves adjacency sets from a map, unvalidated; a vertex it
// lacks has no neighbours.
type mapSource map[int64][]int64

func (m mapSource) GetAdj(v int64) ([]int64, error) { return m[v], nil }

// parentStats are Stats.{DBQueries, IntOps, EnuSteps, Codes} of RunAll
// over the best VCBC plan, recorded at the commit before the probe
// landed, per graph of TestProbeChangesNoCount and catalogue pattern. The
// probe replaces how an intersection is computed, never whether or how
// often: none of these may move.
var parentStats = map[string][2][4]int64{
	"triangle":       {{354, 618, 264, 112}, {345, 630, 285, 204}},
	"square":         {{2505, 4656, 2415, 437}, {1830, 5370, 1770, 858}},
	"chordal-square": {{354, 618, 264, 93}, {345, 630, 285, 227}},
	"q1":             {{4104, 11868, 4014, 1001}, {5101, 14898, 5041, 3657}},
	"q2":             {{738, 1506, 648, 56}, {1329, 3297, 1269, 506}},
	"q3":             {{1386, 2832, 1296, 311}, {2598, 6474, 2538, 1599}},
	"q4":             {{354, 882, 264, 38}, {345, 915, 285, 158}},
	"q5":             {{494, 898, 404, 0}, {816, 1572, 756, 31}},
	"q6":             {{23749, 60717, 23659, 5904}, {47058, 126552, 46998, 28033}},
	"q7":             {{3051, 10788, 2961, 343}, {4098, 15012, 4038, 1564}},
	"q8":             {{2122, 4272, 2032, 379}, {6962, 17598, 6902, 3969}},
	"q9":             {{1470, 5082, 1380, 371}, {2525, 9350, 2465, 1689}},
	"clique4":        {{482, 874, 392, 12}, {673, 1286, 613, 112}},
	"clique5":        {{494, 898, 404, 0}, {816, 1572, 756, 31}},
	"cycle5":         {{15197, 58844, 15107, 741}, {12014, 46106, 11954, 2062}},
	"path4":          {{618, 1056, 528, 525}, {630, 1140, 570, 570}},
	"star4":          {{90, 270, 0, 51}, {60, 180, 0, 60}},
	"demo":           {{5484, 20520, 5394, 547}, {7566, 28884, 7506, 3602}},
}

// TestProbeChangesNoCount: every catalogue pattern on two power-law
// graphs, raw and compact reads, triangle cache off and on, matches
// graph.RefCount and reproduces the parent's instruction counts exactly.
// Each graph also runs relabelled by ≺ (graph.Relabel), under its
// identity order — the bound path — with the same program: the relabel
// maps ≺ onto <, so every count is invariant.
func TestProbeChangesNoCount(t *testing.T) {
	graphs := []*graph.Graph{
		gen.PowerLaw(gen.PowerLawConfig{N: 90, EdgesPer: 3, Triad: 0.4, Seed: 13}),
		gen.PowerLaw(gen.PowerLawConfig{N: 60, EdgesPer: 5, Triad: 0.6, Seed: 14}),
	}
	for gi, g := range graphs {
		for _, name := range cataloguePatterns {
			p, err := gen.PatternByName(name)
			if err != nil {
				t.Fatal(err)
			}
			prog := compileBest(t, p, g, plan.AllOptions)
			for _, g := range []*graph.Graph{g, graph.Relabel(g)} {
				ord := graph.NewTotalOrder(g)
				want := graph.RefCount(p, g, ord)
				for _, compact := range []bool{false, true} {
					for _, tri := range []int{0, 64} {
						src := NewCachedSourceWith(kv.NewLocal(g), g.SizeBytes()*4, SourceOptions{Compact: compact})
						s, err := RunAll(prog, src, g.NumVertices(), ord, Options{TriangleCacheEntries: tri})
						if err != nil {
							t.Fatal(err)
						}
						if s.Matches != want {
							t.Errorf("graph %d %s identity=%v compact=%v tri=%d: %d matches, RefCount %d",
								gi, name, ord.Identity(), compact, tri, s.Matches, want)
						}
						got := [4]int64{s.DBQueries, s.IntOps, s.EnuSteps, s.Codes}
						if got != parentStats[name][gi] {
							t.Errorf("graph %d %s identity=%v compact=%v tri=%d: {DBQ IntOps EnuSteps Codes} = %v, parent %v",
								gi, name, ord.Identity(), compact, tri, got, parentStats[name][gi])
						}
					}
				}
			}
		}
	}
}

// TestBoundPushDown: over the catalogue's best VCBC plans, the INTs that
// receive bounds from their single consumer — unfiltered, unmirrored,
// with a one-operand INT as their only reader — are exactly these, with
// the pattern vertices of the bounds. In q6, C6 := T6 | >f1,…,>f5 hands
// >f1,>f5 to T6 := A4∩A5, the probe of the f5 loop.
func TestBoundPushDown(t *testing.T) {
	st := estimate.UniformStats(100_000, 20)
	got := map[string][]string{}
	for _, name := range cataloguePatterns {
		p, err := gen.PatternByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := plan.GenerateBestPlan(p, st, plan.AllOptions)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := Compile(res.Plan)
		if err != nil {
			t.Fatal(err)
		}
		for pc, in := range prog.instrs {
			if len(in.filters) == 0 && len(in.gt)+len(in.lt) > 0 {
				got[name] = append(got[name], fmt.Sprintf("%s gt=%v lt=%v", res.Plan.Instrs[pc].Target, in.gt, in.lt))
			}
		}
	}
	want := map[string][]string{
		"clique4": {"T4 gt=[0 1 2] lt=[]"},
		"clique5": {"T5 gt=[0 1 2 3] lt=[]"},
		"cycle5":  {"T5 gt=[1 0] lt=[]"},
		"q2":      {"T4 gt=[2] lt=[]"},
		"q5":      {"T5 gt=[0 1 2 3] lt=[]"},
		"q6":      {"T6 gt=[0 4] lt=[]"},
		"q8":      {"T4 gt=[0] lt=[]"},
		"square":  {"T4 gt=[0 1] lt=[]"},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("bound push-downs = %v, want %v", got, want)
	}
}
