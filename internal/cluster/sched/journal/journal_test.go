package journal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"benu/internal/exec"
	"benu/internal/vcbc"
)

func testSpec() *JobSpec {
	return &JobSpec{
		Plan:        []byte(`{"pattern":"triangle"}`),
		NumVertices: 400,
		Tau:         4,
		Tasks:       37,
		OrderHash:   0x9e3779b97f4a7c15,
	}
}

func testCompletion(id int64) Completion {
	return Completion{
		TaskID:     id,
		DurationNs: 12345 + id,
		Stats: exec.Stats{
			Matches: 2, Codes: 1, DBQueries: 9, IntOps: 40,
			EnuSteps: 17, ResultSize: 6, TriHits: 3, TriMisses: 1,
		},
		Matches: [][]int64{{1, 2, 3}, {4, 5, 6}},
		Codes: []*vcbc.Code{{
			CoverVertices: []int{0, 2},
			Helve:         []int64{7, 8},
			FreeVertices:  []int{1},
			Images:        [][]int64{{9, 10}},
		}},
	}
}

func sameCompletion(t *testing.T, got, want Completion) {
	t.Helper()
	if got.TaskID != want.TaskID || got.DurationNs != want.DurationNs || got.Stats != want.Stats {
		t.Fatalf("completion header mismatch: got %+v want %+v", got, want)
	}
	if len(got.Matches) != len(want.Matches) {
		t.Fatalf("matches: got %d rows, want %d", len(got.Matches), len(want.Matches))
	}
	for i := range want.Matches {
		if !equalInt64s(got.Matches[i], want.Matches[i]) {
			t.Fatalf("match row %d: got %v want %v", i, got.Matches[i], want.Matches[i])
		}
	}
	if len(got.Codes) != len(want.Codes) {
		t.Fatalf("codes: got %d, want %d", len(got.Codes), len(want.Codes))
	}
	for i := range want.Codes {
		g, w := got.Codes[i], want.Codes[i]
		if !equalInts(g.CoverVertices, w.CoverVertices) || !equalInt64s(g.Helve, w.Helve) ||
			!equalInts(g.FreeVertices, w.FreeVertices) || len(g.Images) != len(w.Images) {
			t.Fatalf("code %d mismatch: got %+v want %+v", i, g, w)
		}
		for j := range w.Images {
			if !equalInt64s(g.Images[j], w.Images[j]) {
				t.Fatalf("code %d image %d: got %v want %v", i, j, g.Images[j], w.Images[j])
			}
		}
	}
}

func equalInt64s(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job.journal")
	l, rep, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Spec != nil || rep.Epoch != 0 || len(rep.Completions) != 0 || rep.Torn {
		t.Fatalf("fresh journal replayed non-empty state: %+v", rep)
	}
	spec := testSpec()
	if _, err := l.AppendSpec(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendEpoch(1); err != nil {
		t.Fatal(err)
	}
	want := []Completion{testCompletion(0), testCompletion(5), testCompletion(11)}
	// Exercise the empty-payload path too: a task with no emissions.
	want = append(want, Completion{TaskID: 12, Stats: exec.Stats{EnuSteps: 1}})
	for i := range want {
		if _, err := l.AppendCompletion(&want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.AppendEpoch(2); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rep2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rep2.Torn {
		t.Fatal("clean journal replayed as torn")
	}
	if rep2.Spec == nil || !rep2.Spec.Equal(spec) {
		t.Fatalf("spec mismatch after replay: %+v", rep2.Spec)
	}
	if rep2.Epoch != 2 {
		t.Fatalf("epoch = %d, want 2", rep2.Epoch)
	}
	if rep2.Records != 3+len(want) { // spec + two epoch records + completions
		t.Fatalf("records = %d, want %d", rep2.Records, 3+len(want))
	}
	if len(rep2.Completions) != len(want) {
		t.Fatalf("completions = %d, want %d", len(rep2.Completions), len(want))
	}
	for i := range want {
		sameCompletion(t, rep2.Completions[i], want[i])
	}
}

// TestJournalTornTail simulates a crash mid-append: the journal ends in
// a partial record. Open must replay everything before the tear, drop
// the tail, and leave the file appendable.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job.journal")
	l, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendSpec(testSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendEpoch(1); err != nil {
		t.Fatal(err)
	}
	c := testCompletion(3)
	if _, err := l.AppendCompletion(&c); err != nil {
		t.Fatal(err)
	}
	goodLen := fileSize(t, path)
	c2 := testCompletion(4)
	if _, err := l.AppendCompletion(&c2); err != nil {
		t.Fatal(err)
	}
	l.Close()

	fullLen := fileSize(t, path)
	for _, cut := range []int64{fullLen - 1, goodLen + recHeader + 2, goodLen + 3, goodLen + 1} {
		if err := os.Truncate(path, cut); err != nil {
			t.Fatal(err)
		}
		l2, rep, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if !rep.Torn {
			t.Fatalf("cut=%d: torn tail not detected", cut)
		}
		if len(rep.Completions) != 1 || rep.Completions[0].TaskID != 3 {
			t.Fatalf("cut=%d: completions = %+v, want just task 3", cut, rep.Completions)
		}
		if got := fileSize(t, path); got != goodLen {
			t.Fatalf("cut=%d: file not truncated to last valid record: %d != %d", cut, got, goodLen)
		}
		// The log must accept appends after recovery and replay them.
		if _, err := l2.AppendCompletion(&c2); err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		l2.Close()
		l3, rep3, err := Open(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if rep3.Torn || len(rep3.Completions) != 2 || rep3.Completions[1].TaskID != 4 {
			t.Fatalf("cut=%d: re-replay after healing append: torn=%v completions=%+v", cut, rep3.Torn, rep3.Completions)
		}
		l3.Close()
		// Restore the original full file for the next cut point.
		if err := os.Truncate(path, goodLen); err != nil {
			t.Fatal(err)
		}
		l4, _, err := Open(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l4.AppendCompletion(&c2); err != nil {
			t.Fatal(err)
		}
		l4.Close()
	}
}

// TestJournalBatchTornAnywhere: a batch is one write of N records, so a
// crash can tear it at any byte. Whatever the offset, replay returns a
// prefix of the batch's records — never a partial or reordered one —
// and flags the tear unless the cut fell exactly between two records.
// The batch's bytes are the same N records single appends would write.
func TestJournalBatchTornAnywhere(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "job.journal")
	l, _, err := Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendSpec(testSpec()); err != nil {
		t.Fatal(err)
	}
	start := fileSize(t, path)
	want := []Completion{testCompletion(2), testCompletion(9), {TaskID: 4}, testCompletion(0), testCompletion(31)}
	batch := make([]*Completion, len(want))
	for i := range want {
		batch[i] = &want[i]
	}
	n, err := l.AppendCompletions(batch)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(n) != int64(len(data))-start {
		t.Fatalf("AppendCompletions reported %d bytes, file grew by %d", n, int64(len(data))-start)
	}

	// Reference: the same completions appended one by one. Its file gives
	// both the expected bytes and the record boundaries.
	single, _, err := Open(filepath.Join(dir, "single.journal"), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := single.AppendSpec(testSpec()); err != nil {
		t.Fatal(err)
	}
	boundary := map[int]int{int(start): 0} // offset → completions wholly before it
	for i := range want {
		if _, err := single.AppendCompletion(&want[i]); err != nil {
			t.Fatal(err)
		}
		boundary[int(fileSize(t, filepath.Join(dir, "single.journal")))] = i + 1
	}
	single.Close()
	if ref, _ := os.ReadFile(filepath.Join(dir, "single.journal")); !bytes.Equal(ref, data) {
		t.Fatal("a batch append and the same single appends wrote different bytes")
	}

	whole := 0
	for cut := int(start); cut <= len(data); cut++ {
		rep, valid, err := Decode(data[:cut])
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if n, onBoundary := boundary[cut]; onBoundary {
			whole = n
		}
		if len(rep.Completions) != whole {
			t.Fatalf("cut=%d: replayed %d completions, want the %d whole ones", cut, len(rep.Completions), whole)
		}
		for i := range rep.Completions {
			sameCompletion(t, rep.Completions[i], want[i])
		}
		if _, onBoundary := boundary[cut]; rep.Torn == onBoundary {
			t.Fatalf("cut=%d: Torn=%v, on a record boundary=%v", cut, rep.Torn, onBoundary)
		}
		if boundary[valid] != whole {
			t.Fatalf("cut=%d: valid prefix %d is not the end of record %d", cut, valid, whole)
		}
	}
}

// TestJournalCorruptRecord flips a byte inside a committed record: the
// checksum must catch it and replay must stop before the damage.
func TestJournalCorruptRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job.journal")
	l, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendSpec(testSpec()); err != nil {
		t.Fatal(err)
	}
	prefix := fileSize(t, path)
	c := testCompletion(9)
	if _, err := l.AppendCompletion(&c); err != nil {
		t.Fatal(err)
	}
	l.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[prefix+recHeader+4] ^= 0xff // inside the second record's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, rep, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if !rep.Torn || rep.Spec == nil || len(rep.Completions) != 0 {
		t.Fatalf("corrupt record not treated as torn tail: torn=%v spec=%v completions=%d",
			rep.Torn, rep.Spec != nil, len(rep.Completions))
	}
}

// TestJournalForeignFile: Open must refuse to truncate a file that is
// not a journal — clobbering an arbitrary path on a typo'd -journal
// flag would be unforgivable.
func TestJournalForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "notes.txt")
	if err := os.WriteFile(path, []byte("important data, definitely not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path, Options{}); err == nil {
		t.Fatal("Open accepted a foreign file")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("important data")) {
		t.Fatal("Open modified a foreign file")
	}
}

// TestJournalOldVersionRefused: a version-1 journal — written before
// graphs were relabelled, so its task IDs name start vertices in another
// id space — is refused with ErrFormatVersion and left untouched.
func TestJournalOldVersionRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	old := []byte("BENUJNL1\x01\x00\x00\x00\x00\x00\x00\x00\x02")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path, Options{}); !errors.Is(err, ErrFormatVersion) {
		t.Fatalf("Open of a version-1 journal: %v, want ErrFormatVersion", err)
	}
	if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, old) {
		t.Fatalf("Open modified the version-1 journal (%v)", err)
	}
}

func TestJobSpecEqual(t *testing.T) {
	a := testSpec()
	if !a.Equal(testSpec()) {
		t.Fatal("identical specs compare unequal")
	}
	mutations := []func(*JobSpec){
		func(s *JobSpec) { s.Plan = []byte("other") },
		func(s *JobSpec) { s.NumVertices++ },
		func(s *JobSpec) { s.Tau++ },
		func(s *JobSpec) { s.Tasks++ },
		func(s *JobSpec) { s.OrderHash++ },
	}
	for i, mut := range mutations {
		b := testSpec()
		mut(b)
		if a.Equal(b) {
			t.Fatalf("mutation %d not detected by Equal", i)
		}
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}
