package sched

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"benu/internal/obs"
)

// breakSync makes fsync fail on the open file at path while writes keep
// succeeding: the descriptor this process holds for it is redirected to
// /dev/null, which accepts any write and refuses fsync with EINVAL.
func breakSync(t *testing.T, path string) {
	t.Helper()
	null, err := os.OpenFile(os.DevNull, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	for _, e := range fds {
		if target, _ := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); target == path {
			fd, _ := strconv.Atoi(e.Name())
			if err := syscall.Dup3(int(null.Fd()), fd, 0); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatalf("no open descriptor for %s", path)
}

// TestNoAckWithoutFsync asserts the durability order: a completion whose
// journal record could not be fsync'd is not acknowledged and not
// committed — the run fails loudly instead.
func TestNoAckWithoutFsync(t *testing.T) {
	pl, g := smallJob(t, 17)
	jpath := filepath.Join(t.TempDir(), "job.journal")
	reg := obs.NewRegistry()
	cfg := masterFor(t, pl, g, reg)
	cfg.JournalPath, cfg.LeaseBatch, cfg.LeaseDuration = jpath, 1024, time.Minute
	emitted := 0
	cfg.Emit = func([]int64) bool { emitted++; return true }
	m, err := StartMaster("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	join, c, tasks := joinRaw(t, m.Addr(), "reporter", 1024)

	breakSync(t, jpath)
	rep := report(t, c, join, fabricated(tasks[0].ID), fabricated(tasks[1].ID), fabricated(tasks[2].ID))
	for i, ok := range rep.Accepted {
		if ok {
			t.Errorf("attempt %d acknowledged though its journal record was never fsync'd", i)
		}
	}
	if !rep.Done {
		t.Error("reply does not tell the worker the run is over")
	}
	if _, err := m.Wait(nil); err == nil || !strings.Contains(err.Error(), "journal") {
		t.Errorf("run result = %v, want a journal failure", err)
	}
	if got := reg.Counter("sched.tasks.completed").Value(); got != 0 || emitted != 0 {
		t.Errorf("%d tasks committed, %d matches emitted without a durable record", got, emitted)
	}
}
