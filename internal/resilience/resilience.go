// Package resilience provides the fault-tolerance primitives of the
// execution path. The paper's deployment inherits them from its
// substrate — HBase client reads are retried with backoff, MapReduce
// re-executes failed tasks (§III, §VI) — so a from-scratch reproduction
// has to supply the same substrate guarantees itself:
//
//   - Retrier: bounded retries with exponential backoff and
//     deterministic-seedable jitter, and an optional per-attempt
//     deadline. Every error is retried except context errors and those
//     marked Permanent (DefaultRetryable). Do respects context
//     cancellation between attempts and while backing off.
//   - Breaker (breaker.go): a per-backend circuit breaker with the
//     classic closed → open → half-open state machine, so a dead backend
//     is probed instead of hammered.
//
// Both report into the unified obs registry: resilience.retries,
// resilience.giveups, resilience.timeouts, resilience.breaker.state,
// resilience.breaker.opens, resilience.breaker.short_circuits (see
// docs/METRICS.md).
//
// The composition point for the KV path is kv.Resilient, which wraps any
// store with a Retrier and a Breaker.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"benu/internal/obs"
)

// Policy parameterizes a Retrier. The zero value is usable: NewRetrier
// fills in the defaults below (4 attempts, 1ms base backoff doubling up
// to 250ms, no jitter, no per-attempt timeout).
type Policy struct {
	// MaxAttempts is the total number of attempts, the first one
	// included (≥ 1). Default 4.
	MaxAttempts int
	// BaseBackoff is the delay before the first retry. Default 1ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the grown delay. Default 250ms.
	MaxBackoff time.Duration
	// Multiplier grows the delay between consecutive retries (≥ 1).
	// Default 2.
	Multiplier float64
	// Jitter randomizes each delay by ±Jitter·delay (0 ≤ Jitter ≤ 1).
	// The randomness is drawn from a deterministic generator seeded with
	// Seed, so tests replay exact backoff schedules. Default 0 (none).
	Jitter float64
	// Seed seeds the jitter generator.
	Seed uint64
	// Timeout bounds each attempt: the op receives a context that
	// expires Timeout after the attempt starts. An attempt cut short by
	// its own timeout counts as retryable (the next attempt may be
	// faster); expiry of the caller's context never is. 0 disables.
	Timeout time.Duration
}

// DefaultPolicy returns the policy production callers start from:
// 4 attempts, 1ms→250ms exponential backoff with 20% jitter.
func DefaultPolicy() Policy {
	return Policy{
		MaxAttempts: 4,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  250 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.2,
	}
}

// withDefaults fills zero fields with the documented defaults.
func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 250 * time.Millisecond
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Jitter > 1 {
		p.Jitter = 1
	}
	return p
}

// permanentError marks an error as not worth retrying.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent marks err as permanent: DefaultRetryable will not retry it.
// A nil err stays nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err (or anything it wraps) was marked with
// Permanent.
func IsPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// DefaultRetryable treats every failure as transient except context
// errors (the caller gave up — retrying cannot help) and errors marked
// Permanent. This mirrors the HBase client's stance: the store is
// presumed healthy and blips are retried.
func DefaultRetryable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return !IsPermanent(err)
}

// Retrier executes operations under a Policy. It is safe for concurrent
// use; the jitter generator is shared and advances atomically, so
// concurrent schedules interleave but each drawn delay is from the same
// deterministic sequence.
type Retrier struct {
	p Policy

	mu  sync.Mutex
	rng uint64

	retries  *obs.Counter
	giveups  *obs.Counter
	timeouts *obs.Counter
}

// NewRetrier builds a Retrier for p (zero fields defaulted), reporting
// into reg (nil means obs.Default()).
func NewRetrier(p Policy, reg *obs.Registry) *Retrier {
	p = p.withDefaults()
	if reg == nil {
		reg = obs.Default()
	}
	return &Retrier{
		p:        p,
		rng:      p.Seed,
		retries:  reg.Counter("resilience.retries"),
		giveups:  reg.Counter("resilience.giveups"),
		timeouts: reg.Counter("resilience.timeouts"),
	}
}

// Policy returns the retrier's effective (defaulted) policy.
func (r *Retrier) Policy() Policy { return r.p }

// Do runs op until it succeeds, fails permanently, exhausts the attempt
// budget, or ctx is done. The context handed to op carries the
// per-attempt deadline when Policy.Timeout is set. On exhaustion the
// last error is returned wrapped (errors.Is/As still reach the cause);
// on cancellation the context's error is returned.
func (r *Retrier) Do(ctx context.Context, op func(context.Context) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		actx, cancel := ctx, context.CancelFunc(func() {})
		if r.p.Timeout > 0 {
			actx, cancel = context.WithTimeout(ctx, r.p.Timeout)
		}
		err := op(actx)
		cancel()
		if err == nil {
			return nil
		}
		if cerr := ctx.Err(); cerr != nil {
			// The caller's context expired or was cancelled mid-attempt;
			// its error wins over whatever the aborted attempt returned.
			return cerr
		}
		// An attempt cut short by its own per-attempt deadline is
		// retryable regardless of classification: the deadline proves
		// nothing about the next attempt.
		attemptTimedOut := r.p.Timeout > 0 && errors.Is(err, context.DeadlineExceeded)
		if attemptTimedOut {
			r.timeouts.Inc()
		}
		if !attemptTimedOut && !DefaultRetryable(err) {
			return err
		}
		if attempt >= r.p.MaxAttempts {
			r.giveups.Inc()
			return fmt.Errorf("resilience: gave up after %d attempts: %w", attempt, err)
		}
		r.retries.Inc()
		if serr := sleepCtx(ctx, r.backoff(attempt)); serr != nil {
			return serr
		}
	}
}

// backoff computes the delay after the attempt-th failure:
// Base·Multiplier^(attempt-1), capped at MaxBackoff, jittered.
func (r *Retrier) backoff(attempt int) time.Duration {
	d := float64(r.p.BaseBackoff)
	cap := float64(r.p.MaxBackoff)
	for i := 1; i < attempt && d < cap; i++ {
		d *= r.p.Multiplier
	}
	if d > cap {
		d = cap
	}
	if r.p.Jitter > 0 {
		d *= 1 + r.p.Jitter*(2*r.next01()-1)
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// next01 draws the next jitter sample in [0,1) from the seeded
// splitmix64 sequence.
func (r *Retrier) next01() float64 {
	r.mu.Lock()
	r.rng += 0x9e3779b97f4a7c15
	z := r.rng
	r.mu.Unlock()
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// sleepCtx sleeps for d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
