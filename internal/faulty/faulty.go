// Package faulty is a deterministic fault-injection harness for
// resilience tests: wrap a component's calls in an Injector and script
// latency, errors, or hangs onto specific call numbers. Faults are
// keyed by the 1-based call count, so a test can state exactly which
// call is slow, which fails, and which blocks until its context is
// cancelled — and reproduce that schedule on every run.
//
//	inj := faulty.New()
//	inj.OnCall(1, faulty.Fault{Hang: true})           // first call wedges
//	inj.Every(faulty.Fault{Delay: 5 * time.Millisecond}) // the rest are slow
//
//	planner := func(ctx context.Context, sc Scenario) (*Plan, error) {
//		if err := inj.Inject(ctx); err != nil {
//			return nil, err
//		}
//		return NewPlan(ctx, sc)
//	}
//
// The package is stdlib-only and knows nothing about the components it
// wraps; anything that can call Inject at the top of its hot path can
// be made slow, failing, or wedged.
package faulty

//hanccr:allow-file deadapi test-support package: resilience_test.go injects faults through it, and no production code may import it

import (
	"context"
	"sync"
	"time"
)

// Fault is one scripted misbehavior. Fields compose in order: Hang
// first (Delay and Err are then unreachable), otherwise sleep Delay,
// then return Err (nil Err with a Delay is a pure slowdown). The zero
// Fault is a no-op.
type Fault struct {
	// Delay is slept (context-aware) before returning.
	Delay time.Duration
	// Err is returned after the delay.
	Err error
	// Hang blocks until ctx is cancelled, then returns ctx.Err() —
	// the "component wedged forever" case only a deadline or
	// cancellation can unstick.
	Hang bool
}

// Injector counts calls and applies the fault scripted for each one.
// Safe for concurrent use; the call numbering is the order in which
// concurrent calls win the internal lock.
type Injector struct {
	mu    sync.Mutex
	calls int
	on    map[int]Fault
	every Fault
	sleep func(ctx context.Context, d time.Duration) error
}

// Option configures an Injector.
type Option func(*Injector)

// WithSleep replaces the clock the injector sleeps on — a hook for
// tests that want scripted latency without real elapsed time. The
// function must honour ctx and return its error when cancelled early.
func WithSleep(fn func(ctx context.Context, d time.Duration) error) Option {
	return func(in *Injector) {
		if fn != nil {
			in.sleep = fn
		}
	}
}

// New returns an Injector with no scripted faults: every call is a
// no-op until OnCall or Every says otherwise.
func New(opts ...Option) *Injector {
	in := &Injector{on: make(map[int]Fault), sleep: ctxSleep}
	for _, o := range opts {
		o(in)
	}
	return in
}

// OnCall scripts f for the nth call (1-based), replacing any fault
// already scripted there. Calls without their own script take the
// Every default.
func (in *Injector) OnCall(n int, f Fault) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.on[n] = f
}

// Every sets the default fault applied to calls OnCall did not script.
func (in *Injector) Every(f Fault) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.every = f
}

// Calls reports how many calls the injector has accounted so far.
func (in *Injector) Calls() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.calls
}

// Inject accounts one call and applies its scripted fault: hang until
// ctx cancellation, sleep, fail — or nothing. It returns the fault's
// error, the context's error if cancellation interrupted the fault, or
// nil.
func (in *Injector) Inject(ctx context.Context) error {
	in.mu.Lock()
	in.calls++
	f, ok := in.on[in.calls]
	if !ok {
		f = in.every
	}
	sleep := in.sleep
	in.mu.Unlock()

	if f.Hang {
		<-ctx.Done()
		return ctx.Err()
	}
	if f.Delay > 0 {
		if err := sleep(ctx, f.Delay); err != nil {
			return err
		}
	}
	return f.Err
}

// ctxSleep is the default clock: a timer-backed sleep that wakes early
// with ctx.Err() on cancellation.
func ctxSleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
