//go:build unix

package main

import (
	"fmt"
	"net"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// env is one bench invocation's footprint on the machine: the built
// binaries, the per-run temp directory, and every child process group
// still alive. close tears all of it down, on success and on abort.
type env struct {
	root   string // checkout root (holds go.mod)
	binDir string
	tmp    string // per-run scratch: edge lists, journals, CSR files
	buildS float64

	mu   sync.Mutex
	live map[int]struct{} // process-group ids of running children
}

// findRoot walks up from the working directory to the module root, so
// the bench works from the checkout root (the driver, `go run ./bench`)
// and from bench/ (`go test`).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "benu-master")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no benu checkout (go.mod + cmd/benu-master) at or above the working directory")
		}
		dir = parent
	}
}

// newEnv builds the shipped binaries into <root>/.bench_build/bin and
// creates this run's temp directory beside them: everything the bench
// writes stays inside the checkout.
func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{root: root, binDir: filepath.Join(root, ".bench_build", "bin"), live: map[int]struct{}{}}
	if err := os.MkdirAll(e.binDir, 0o755); err != nil {
		return nil, err
	}
	t0 := time.Now()
	build := osexec.Command("go", "build", "-o", e.binDir+string(os.PathSeparator), "./cmd/benu-master", "./cmd/benu-worker")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build: %v\n%s", err, out)
	}
	e.buildS = time.Since(t0).Seconds()
	tmpParent := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(tmpParent, 0o755); err != nil {
		return nil, err
	}
	if e.tmp, err = os.MkdirTemp(tmpParent, "run-"); err != nil {
		return nil, err
	}
	return e, nil
}

// close kills whatever is still running and removes the temp directory.
func (e *env) close() {
	e.mu.Lock()
	for pgid := range e.live {
		syscall.Kill(-pgid, syscall.SIGKILL)
	}
	e.mu.Unlock()
	os.RemoveAll(e.tmp)
}

// child is a started process plus the peak RSS seen so far.
type child struct {
	cmd *osexec.Cmd
	// hwmKB is the last VmHWM read from /proc/<pid>/status. ru_maxrss
	// cannot be used: Linux carries the forking process's high-water
	// mark across exec, so a child smaller than the bench itself would
	// report the bench's RSS.
	hwmKB   atomic.Int64
	stop    chan struct{}
	stopped chan struct{}
}

// rssPoll is how often a running child's VmHWM is read; the value is a
// high-water mark, so only growth in a process's last rssPoll is missed.
const rssPoll = 20 * time.Millisecond

// start launches cmd in its own process group and tracks it.
func (e *env) start(cmd *osexec.Cmd) (*child, error) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.live[cmd.Process.Pid] = struct{}{}
	e.mu.Unlock()
	c := &child{cmd: cmd, stop: make(chan struct{}), stopped: make(chan struct{})}
	go func() {
		defer close(c.stopped)
		status := fmt.Sprintf("/proc/%d/status", cmd.Process.Pid)
		tick := time.NewTicker(rssPoll)
		defer tick.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-tick.C:
			}
			data, err := os.ReadFile(status)
			if err != nil {
				continue
			}
			if _, rest, ok := strings.Cut(string(data), "VmHWM:"); ok {
				var kb int64
				fmt.Sscan(rest, &kb)
				c.hwmKB.Store(kb)
			}
		}
	}()
	return c, nil
}

// usage is what one reaped process cost.
type usage struct {
	cpuS  float64
	rssMB float64
	err   error // non-nil: did not exit 0
}

// wait reaps c. A process that is still running after grace gets SIGINT
// (both CLIs drain on it), and SIGKILL two seconds later; grace < 0
// waits without bound.
func (e *env) wait(c *child, grace time.Duration) usage {
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	pgid := c.cmd.Process.Pid
	var err error
	if grace < 0 {
		err = <-done
	} else {
		select {
		case err = <-done:
		case <-time.After(grace):
			syscall.Kill(-pgid, syscall.SIGINT)
			select {
			case err = <-done:
			case <-time.After(2 * time.Second):
				syscall.Kill(-pgid, syscall.SIGKILL)
				err = <-done
			}
		}
	}
	close(c.stop)
	<-c.stopped
	e.mu.Lock()
	delete(e.live, pgid)
	e.mu.Unlock()
	u := usage{err: err, rssMB: float64(c.hwmKB.Load()) / 1024}
	if ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		u.cpuS = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
		if u.rssMB == 0 { // no /proc (not Linux), or gone within one poll
			u.rssMB = float64(ru.Maxrss) / 1024
		}
	}
	return u
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// freeAddr picks a loopback port nobody holds right now, so two bench
// runs (or a bench beside `make smoke-net`) never fight over 7077.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}
