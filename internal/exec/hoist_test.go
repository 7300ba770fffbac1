package exec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"strings"
	"testing"

	"benu/internal/estimate"
	"benu/internal/gen"
	"benu/internal/graph"
	"benu/internal/kv"
	"benu/internal/plan"
	"benu/internal/vcbc"
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
					prog.code[dpc].Target, d.op, prog.code[pc].Target, in.op))
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
				&prog.code[pc], in.probeSlot != noSlot, want)
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
// over the best VCBC plan, per graph of TestProbeChangesNoCount and
// catalogue pattern, recorded before an empty INT/TRC result ended the
// branch, when both paths counted alike. Pruning skips only branches that
// emit nothing: Codes stay, DBQs and ENU steps never rise.
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

// parentDigests are FNV-64a digests of the EmitCode stream of those
// runs (codeDigest), per graph and path: the rank path on the graph as
// generated, the bound path relabelled.
var parentDigests = map[string][2][2]uint64{
	"triangle":       {{0x8f220d5c1bd8256a, 0x501ce35033a4fcfd}, {0xc7266d8810139380, 0x57c250d01acceef0}},
	"square":         {{0xeb05e6e7e71b77e, 0x50dce526054b327d}, {0x8b3b79c52128b669, 0x1efcb2efdd797c4e}},
	"chordal-square": {{0x88358d23bf86996c, 0x1b8cce58184ddf9d}, {0x2a26d4d9c7aa1a87, 0x738284ed31b95a72}},
	"q1":             {{0xfd48fa0a150ded21, 0xccf46fe4a3c66d9b}, {0x3afc5defb0ed746b, 0xe2dee4afa570ecea}},
	"q2":             {{0x73e1ea5f8d08703d, 0xf35cfdf06c2b9284}, {0x18a14f59eae1485e, 0xcf156df7637946c5}},
	"q3":             {{0x998196a95c419ac8, 0x906f0bf2b1fb4368}, {0xc004fd92a1bf0f4b, 0x92f460c9327df2da}},
	"q4":             {{0x4b51e9f040cfd341, 0xb3f8d9b35433ccc7}, {0xde13e72b32a0b818, 0xc0e0c63242410f9c}},
	"q5":             {{0xcbf29ce484222325, 0xcbf29ce484222325}, {0x6fe42a02e6403ed1, 0xbbec85a5de4f203b}},
	"q6":             {{0xf2b552a24f64200e, 0xa097db119245d8cb}, {0x97314b3a7e2b76, 0xbc155f9548eaaecc}},
	"q7":             {{0x1da1fff13045beae, 0xe9c7fdcf4fdd3ae7}, {0x7f51006ba5c2e7b3, 0x54043c780fbd8320}},
	"q8":             {{0x64a062d30708c62d, 0xaa38d2272486d28f}, {0x751875af009c4f50, 0xab5aecd36efd4e44}},
	"q9":             {{0x7ef37c249c3fa101, 0xd77458f7cb8314f2}, {0xdbef1e6ab0649950, 0x8c0d99f2badddd77}},
	"clique4":        {{0xa75e1ba26d154deb, 0xcedeb47af78b5fba}, {0x6de69127a52bc99, 0xc4f4697f57d3435a}},
	"clique5":        {{0xcbf29ce484222325, 0xcbf29ce484222325}, {0x6fe42a02e6403ed1, 0xbbec85a5de4f203b}},
	"cycle5":         {{0x5d5ced8ef2ddbcbc, 0xc301fc8ac73fd950}, {0x4d95b657a72fb36a, 0x90859629f06c0223}},
	"path4":          {{0x3641c3b0da4efee3, 0x5646f105079cd080}, {0x8d19585d5723dc65, 0xf5cc09cbd0b06995}},
	"star4":          {{0xf2369b4eb931a135, 0xb392bf77a460cc7a}, {0xec7b8d01a5c26de5, 0x6fa6241eb42760a5}},
	"demo":           {{0x78b63fe1c6f55533, 0xe110fb285aa2de9c}, {0x76d0c92a856e9735, 0xb13246c1902ca3a3}},
}

// prunedStats are the same counters once an empty INT/TRC result ends
// the branch and each filter is applied where its vertex is bound, per
// graph and path. They differ between paths only in IntOps: under an
// identity order a bound push-down trims the producer itself, which can
// come out empty and end the branch one INT sooner.
var prunedStats = map[string][2][2][4]int64{
	"triangle":       {{{354, 558, 264, 112}, {354, 558, 264, 112}}, {{345, 620, 285, 204}, {345, 620, 285, 204}}},
	"square":         {{{2505, 4656, 2415, 437}, {2505, 2942, 2415, 437}}, {{1829, 4651, 1770, 858}, {1829, 4651, 1770, 858}}},
	"chordal-square": {{{354, 558, 264, 93}, {354, 558, 264, 93}}, {{345, 620, 285, 227}, {345, 620, 285, 227}}},
	"q1":             {{{3494, 8180, 3404, 1001}, {3494, 8180, 3404, 1001}}, {{5033, 13793, 4973, 3657}, {5033, 13793, 4973, 3657}}},
	"q2":             {{{738, 926, 648, 56}, {738, 880, 648, 56}}, {{1329, 2611, 1269, 506}, {1329, 2411, 1269, 506}}},
	"q3":             {{{1164, 2388, 1296, 311}, {1164, 2388, 1296, 311}}, {{2502, 6282, 2538, 1599}, {2502, 6282, 2538, 1599}}},
	"q4":             {{{354, 762, 264, 38}, {354, 762, 264, 38}}, {{345, 895, 285, 158}, {345, 895, 285, 158}}},
	"q5":             {{{494, 737, 404, 0}, {494, 737, 404, 0}}, {{816, 1437, 756, 31}, {816, 1369, 756, 31}}},
	"q6":             {{{15692, 40491, 17721, 5904}, {15692, 38365, 17721, 5904}}, {{42403, 116472, 44654, 28033}, {42403, 111738, 44654, 28033}}},
	"q7":             {{{2529, 4230, 2439, 343}, {2529, 3939, 2439, 343}}, {{4009, 9927, 3949, 1564}, {4009, 9151, 3949, 1564}}},
	"q8":             {{{1834, 3696, 2032, 379}, {1834, 3288, 2032, 379}}, {{6638, 16950, 6902, 3969}, {6638, 16400, 6902, 3969}}},
	"q9":             {{{1211, 4157, 1232, 371}, {1211, 4157, 1232, 371}}, {{2429, 9014, 2417, 1689}, {2429, 9014, 2417, 1689}}},
	"clique4":        {{{482, 725, 392, 12}, {482, 698, 392, 12}}, {{673, 1195, 613, 112}, {673, 1060, 613, 112}}},
	"clique5":        {{{494, 737, 404, 0}, {494, 737, 404, 0}}, {{816, 1437, 756, 31}, {816, 1369, 756, 31}}},
	"cycle5":         {{{15169, 24094, 15107, 741}, {15169, 17925, 15107, 741}}, {{11986, 25587, 11954, 2062}, {11986, 18215, 11954, 2062}}},
	"path4":          {{{618, 1056, 528, 525}, {618, 1056, 528, 525}}, {{630, 1140, 570, 570}, {630, 1140, 570, 570}}},
	"star4":          {{{90, 270, 0, 51}, {90, 270, 0, 51}}, {{60, 180, 0, 60}, {60, 180, 0, 60}}},
	"demo":           {{{4726, 9034, 4636, 547}, {4726, 9034, 4636, 547}}, {{7450, 22000, 7390, 3602}, {7450, 22000, 7390, 3602}}},
}

// codeDigest returns an EmitCode callback folding every code into h.
func codeDigest(h hash.Hash64) func(c *vcbc.Code) bool {
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	return func(c *vcbc.Code) bool {
		for _, v := range c.Helve {
			put(v)
		}
		for _, img := range c.Images {
			put(-1)
			for _, v := range img {
				put(v)
			}
		}
		put(-2)
		return true
	}
}

// TestProbeChangesNoCount: every catalogue pattern on two power-law
// graphs, raw and compact reads, triangle cache off and on, matches
// graph.RefCount, reproduces prunedStats exactly, and emits the parent's
// code stream: the same codes in the same order, with no more DBQs or
// ENU steps. Each graph also runs relabelled by ≺ (graph.Relabel), under
// its identity order — the bound path — with the same program.
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
			parent := parentStats[name][gi]
			for pi, g := range []*graph.Graph{g, graph.Relabel(g)} {
				ord := graph.NewTotalOrder(g)
				want := graph.RefCount(p, g, ord)
				for _, compact := range []bool{false, true} {
					for _, tri := range []int{0, 64} {
						cell := fmt.Sprintf("graph %d %s identity=%v compact=%v tri=%d", gi, name, ord.Identity(), compact, tri)
						h := fnv.New64a()
						src := NewCachedSourceWith(kv.NewLocal(g), g.SizeBytes()*4, SourceOptions{Compact: compact})
						s, err := RunAll(prog, src, g.NumVertices(), ord, Options{TriangleCacheEntries: tri, EmitCode: codeDigest(h)})
						if err != nil {
							t.Fatal(err)
						}
						if s.Matches != want {
							t.Errorf("%s: %d matches, RefCount %d", cell, s.Matches, want)
						}
						got := [4]int64{s.DBQueries, s.IntOps, s.EnuSteps, s.Codes}
						if got != prunedStats[name][gi][pi] {
							t.Errorf("%s: {DBQ IntOps EnuSteps Codes} = %v, pinned %v", cell, got, prunedStats[name][gi][pi])
						}
						if got[0] > parent[0] || got[2] > parent[2] || got[3] != parent[3] {
							t.Errorf("%s: {DBQ IntOps EnuSteps Codes} = %v against the parent's %v", cell, got, parent)
						}
						if d := h.Sum64(); d != parentDigests[name][gi][pi] {
							t.Errorf("%s: code stream digest %#x, parent %#x", cell, d, parentDigests[name][gi][pi])
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
				got[name] = append(got[name], fmt.Sprintf("%s gt=%v lt=%v", prog.code[pc].Target, in.gt, in.lt))
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
