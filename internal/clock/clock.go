// Package clock abstracts the wall clock behind a small interface so
// that code driving the live TCP daemons can observe real time without
// calling the time package directly. The point is auditability: the
// sim-driven packages (experiments, core, sim, ...) are forbidden from
// touching the wall clock by the nodeterminism analyzer (see
// internal/analysis/nodeterminism), and this package is the single
// annotated funnel through which benchmark drivers like RunFig12 get
// real timestamps. Tests inject a Fake and stay deterministic.
package clock

import (
	"sync"
	"time"
)

// Clock is the wall-clock surface live-daemon drivers may use.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Since returns the time elapsed since t.
	Since(t time.Time) time.Duration
	// Sleep pauses the calling goroutine for at least d.
	Sleep(d time.Duration)
	// After returns a channel that delivers the time after d elapses.
	After(d time.Duration) <-chan time.Time
}

// Wall is the real wall clock.
type Wall struct{}

//lint:wallclock Wall is the audited funnel to the real clock
func (Wall) Now() time.Time { return time.Now() }

//lint:wallclock Wall is the audited funnel to the real clock
func (Wall) Since(t time.Time) time.Duration { return time.Since(t) }

//lint:wallclock Wall is the audited funnel to the real clock
func (Wall) Sleep(d time.Duration) { time.Sleep(d) }

//lint:wallclock Wall is the audited funnel to the real clock
func (Wall) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Fake is a manually advanced clock for deterministic tests. It starts
// at an arbitrary fixed instant and only moves when Advance is called.
type Fake struct {
	mu      sync.Mutex
	now     time.Time    // guarded by mu
	waiters []fakeWaiter // guarded by mu
}

type fakeWaiter struct {
	at time.Time
	ch chan time.Time
}

// NewFake creates a fake clock starting at start.
func NewFake(start time.Time) *Fake {
	return &Fake{now: start}
}

// Now returns the fake's current time.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// Since returns the fake time elapsed since t.
func (f *Fake) Since(t time.Time) time.Duration {
	return f.Now().Sub(t)
}

// Sleep blocks until another goroutine Advances the clock past d.
func (f *Fake) Sleep(d time.Duration) {
	<-f.After(d)
}

// After returns a channel that fires once Advance moves the clock at
// least d past the current instant. A non-positive d fires immediately.
func (f *Fake) After(d time.Duration) <-chan time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- f.now
		return ch
	}
	f.waiters = append(f.waiters, fakeWaiter{at: f.now.Add(d), ch: ch})
	return ch
}

// Advance moves the fake clock forward by d, firing every waiter whose
// deadline is reached.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(d)
	kept := f.waiters[:0]
	for _, w := range f.waiters {
		if !w.at.After(f.now) {
			w.ch <- f.now
			continue
		}
		kept = append(kept, w)
	}
	f.waiters = kept
}
