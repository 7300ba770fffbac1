package resilience

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"benu/internal/obs"
)

var errBoom = errors.New("boom")

// fastPolicy keeps test backoffs in the microsecond range.
func fastPolicy() Policy {
	return Policy{MaxAttempts: 4, BaseBackoff: 10 * time.Microsecond, MaxBackoff: 100 * time.Microsecond, Multiplier: 2}
}

func TestDoSucceedsFirstTry(t *testing.T) {
	reg := obs.NewRegistry()
	r := NewRetrier(fastPolicy(), reg)
	calls := 0
	if err := r.Do(context.Background(), func(context.Context) error { calls++; return nil }); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("calls = %d, want 1", calls)
	}
	if got := reg.Counter("resilience.retries").Value(); got != 0 {
		t.Errorf("retries = %d, want 0", got)
	}
}

func TestDoRetriesTransientThenSucceeds(t *testing.T) {
	reg := obs.NewRegistry()
	r := NewRetrier(fastPolicy(), reg)
	calls := 0
	err := r.Do(context.Background(), func(context.Context) error {
		calls++
		if calls < 3 {
			return errBoom
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
	if got := reg.Counter("resilience.retries").Value(); got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}
	if got := reg.Counter("resilience.giveups").Value(); got != 0 {
		t.Errorf("giveups = %d, want 0", got)
	}
}

func TestDoGivesUpAfterMaxAttempts(t *testing.T) {
	reg := obs.NewRegistry()
	r := NewRetrier(fastPolicy(), reg)
	calls := 0
	err := r.Do(context.Background(), func(context.Context) error { calls++; return errBoom })
	if calls != 4 {
		t.Errorf("calls = %d, want 4", calls)
	}
	if !errors.Is(err, errBoom) {
		t.Errorf("error chain lost the cause: %v", err)
	}
	if got := reg.Counter("resilience.giveups").Value(); got != 1 {
		t.Errorf("giveups = %d, want 1", got)
	}
}

func TestDoStopsOnPermanentError(t *testing.T) {
	r := NewRetrier(fastPolicy(), obs.NewRegistry())
	calls := 0
	perm := Permanent(fmt.Errorf("bad request: %w", errBoom))
	err := r.Do(context.Background(), func(context.Context) error { calls++; return perm })
	if calls != 1 {
		t.Errorf("permanent error retried: %d calls", calls)
	}
	if !errors.Is(err, errBoom) {
		t.Errorf("error chain lost the cause: %v", err)
	}
	if !IsPermanent(err) {
		t.Error("IsPermanent lost through Do")
	}
}

func TestDoCancelledContextReturnsImmediately(t *testing.T) {
	r := NewRetrier(fastPolicy(), obs.NewRegistry())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := r.Do(ctx, func(context.Context) error { calls++; return errBoom })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if calls != 0 {
		t.Errorf("op ran %d times under a cancelled context", calls)
	}
}

func TestDoCancelDuringBackoff(t *testing.T) {
	p := fastPolicy()
	p.BaseBackoff = time.Hour // backoff would block forever
	p.MaxBackoff = time.Hour
	r := NewRetrier(p, obs.NewRegistry())
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- r.Do(ctx, func(context.Context) error { return errBoom })
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Do did not return after cancellation during backoff")
	}
}

func TestDoPerAttemptTimeout(t *testing.T) {
	reg := obs.NewRegistry()
	p := fastPolicy()
	p.MaxAttempts = 2
	p.Timeout = 5 * time.Millisecond
	r := NewRetrier(p, reg)
	calls := 0
	err := r.Do(context.Background(), func(ctx context.Context) error {
		calls++
		<-ctx.Done() // simulate a wedged backend: block until the attempt deadline
		return ctx.Err()
	})
	if err == nil {
		t.Fatal("expected give-up error")
	}
	if calls != 2 {
		t.Errorf("calls = %d, want 2 (attempt timeouts are retryable)", calls)
	}
	if got := reg.Counter("resilience.timeouts").Value(); got != 2 {
		t.Errorf("timeouts = %d, want 2", got)
	}
}

func TestDoParentDeadlineBeatsAttemptRetry(t *testing.T) {
	p := fastPolicy()
	p.Timeout = time.Hour
	r := NewRetrier(p, obs.NewRegistry())
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	err := r.Do(ctx, func(actx context.Context) error {
		<-actx.Done()
		return actx.Err()
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestBackoffGrowsAndCaps(t *testing.T) {
	p := Policy{MaxAttempts: 10, BaseBackoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond, Multiplier: 2}
	r := NewRetrier(p, obs.NewRegistry())
	want := []time.Duration{1e6, 2e6, 4e6, 8e6, 8e6, 8e6}
	for i, w := range want {
		if got := r.backoff(i + 1); got != w {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestJitterIsDeterministicPerSeed(t *testing.T) {
	mk := func(seed uint64) []time.Duration {
		p := Policy{MaxAttempts: 5, BaseBackoff: time.Millisecond, MaxBackoff: 64 * time.Millisecond, Multiplier: 2, Jitter: 0.5, Seed: seed}
		r := NewRetrier(p, obs.NewRegistry())
		out := make([]time.Duration, 5)
		for i := range out {
			out[i] = r.backoff(i + 1)
		}
		return out
	}
	a, b, c := mk(7), mk(7), mk(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical jitter sequences")
	}
	// Jittered delays stay within ±50% of the deterministic schedule.
	base := []time.Duration{1e6, 2e6, 4e6, 8e6, 16e6}
	for i, d := range a {
		lo, hi := base[i]/2, base[i]*3/2
		if d < lo || d > hi {
			t.Errorf("backoff(%d) = %v outside [%v,%v]", i+1, d, lo, hi)
		}
	}
}
