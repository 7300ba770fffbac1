package journal

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalReplay hammers the journal decoder with arbitrary bytes.
// The decoder must never panic, the valid prefix it reports must lie
// within the input, and re-decoding that prefix must reproduce exactly
// the same replayed state without the torn flag — the invariant Open
// relies on when it truncates a torn tail.
func FuzzJournalReplay(f *testing.F) {
	// Seed with a well-formed journal so the fuzzer starts from
	// structurally interesting bytes.
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.journal")
	l, _, err := Open(path, Options{NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := l.AppendSpec(testSpec()); err != nil {
		f.Fatal(err)
	}
	if _, err := l.AppendEpoch(3); err != nil {
		f.Fatal(err)
	}
	c := testCompletion(7)
	if _, err := l.AppendCompletion(&c); err != nil {
		f.Fatal(err)
	}
	single, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	// A second seed continues with a multi-record batch, torn mid-way in
	// a third: record boundaries inside one write.
	c2, c3 := testCompletion(8), Completion{TaskID: 9}
	if _, err := l.AppendCompletions([]*Completion{&c2, &c3, &c}); err != nil {
		f.Fatal(err)
	}
	l.Close()
	seed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(single)
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	f.Add(seed[:(len(single)+len(seed))/2])
	f.Add([]byte(magic))
	f.Add([]byte{})
	f.Add([]byte("BENUJNL1\x01\x00\x00\x00\x00\x00\x00\x00\x02"))
	f.Add([]byte(magic + "\x01\x00\x00\x00\x00\x00\x00\x00\x02"))

	f.Fuzz(func(t *testing.T, data []byte) {
		rep, valid, err := Decode(data)
		if err != nil {
			if rep != nil || valid != 0 {
				t.Fatalf("error with non-zero state: rep=%v valid=%d", rep, valid)
			}
			return
		}
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid prefix %d out of range [0,%d]", valid, len(data))
		}
		if !rep.Torn && valid != len(data) && valid != 0 {
			t.Fatalf("not torn but valid=%d != len=%d", valid, len(data))
		}
		rep2, valid2, err2 := Decode(data[:valid])
		if err2 != nil {
			t.Fatalf("valid prefix failed to re-decode: %v", err2)
		}
		if valid2 != valid {
			t.Fatalf("re-decode shrank the valid prefix: %d -> %d", valid, valid2)
		}
		if valid > 0 && rep2.Torn {
			t.Fatal("re-decoded valid prefix flagged torn")
		}
		if rep2.Records != rep.Records || rep2.Epoch != rep.Epoch ||
			len(rep2.Completions) != len(rep.Completions) || (rep2.Spec == nil) != (rep.Spec == nil) {
			t.Fatalf("re-decode diverged: %+v vs %+v", rep2, rep)
		}
	})
}
