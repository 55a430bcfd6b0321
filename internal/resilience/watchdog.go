package resilience

import (
	"fmt"
	"sync"
	"time"
)

// Watchdog notices when a sample stream stalls: if Pet is not called
// within the timeout, the watchdog fires once (per stall episode),
// counting the stall, recording the stalled state, and invoking the
// optional callback. The next Pet clears the state and re-arms the
// deadline. A nil *Watchdog (the disabled form returned for a
// non-positive timeout) ignores all calls, so pipelines wire it in
// unconditionally.
type Watchdog struct {
	timeout time.Duration
	onStall func(gap time.Duration)
	metrics Metrics

	mu      sync.Mutex
	timer   *time.Timer
	last    time.Time
	stalled bool
	stalls  uint64
	stopped bool
}

// NewWatchdog arms a watchdog with the given deadline. A non-positive
// timeout returns nil — a valid, permanently quiet watchdog. onStall
// (optional) runs once per stall episode, receiving the gap since the
// last sample: on the watchdog's own goroutine when the deadline
// expires, or on the goroutine of a Stalled call that notices the
// expired deadline first. m counts stalls (the zero Metrics works).
func NewWatchdog(timeout time.Duration, m Metrics, onStall func(gap time.Duration)) *Watchdog {
	if timeout <= 0 {
		return nil
	}
	w := &Watchdog{timeout: timeout, onStall: onStall, metrics: m, last: time.Now()}
	w.timer = time.AfterFunc(timeout, w.fire)
	return w
}

// fire handles a deadline expiry. A pet that raced the timer re-arms
// instead of stalling, so only genuine gaps count, and an episode that
// Stalled already recorded is not counted twice.
func (w *Watchdog) fire() {
	w.mu.Lock()
	if w.stopped || w.stalled {
		w.mu.Unlock()
		return
	}
	gap := time.Since(w.last)
	if gap < w.timeout {
		w.timer.Reset(w.timeout - gap)
		w.mu.Unlock()
		return
	}
	w.stall(gap)
}

// stall records a stall episode of the given gap and runs the callback.
// It is called with w.mu held and releases it.
func (w *Watchdog) stall(gap time.Duration) {
	w.stalled = true
	w.stalls++
	cb := w.onStall
	w.mu.Unlock()
	w.metrics.Stalls.Inc()
	if cb != nil {
		cb(gap)
	}
}

// Pet records a live sample: it clears any stalled state and re-arms the
// deadline. It reports whether the stream was stalled — callers can log
// the recovery.
func (w *Watchdog) Pet() (wasStalled bool) {
	if w == nil {
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.stopped {
		return false
	}
	wasStalled = w.stalled
	w.stalled = false
	w.last = time.Now()
	w.timer.Reset(w.timeout)
	return wasStalled
}

// Stalled reports whether the stream is currently stalled (deadline
// expired with no pet since). It reads the clock rather than trusting
// the timer alone: on a loaded machine the timer's callback can run
// milliseconds after the deadline. A stall it notices first is recorded
// here, callback included, as the timer would have recorded it.
func (w *Watchdog) Stalled() bool {
	if w == nil {
		return false
	}
	w.mu.Lock()
	if !w.stalled && !w.stopped {
		if gap := time.Since(w.last); gap >= w.timeout {
			w.stall(gap)
			return true
		}
	}
	stalled := w.stalled
	w.mu.Unlock()
	return stalled
}

// Stalls returns how many stall episodes have fired.
func (w *Watchdog) Stalls() uint64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stalls
}

// Healthy returns nil while samples flow and a descriptive error while
// stalled — the shape expected by the /healthz hook (obs.HandlerConfig).
func (w *Watchdog) Healthy() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.stalled {
		return nil
	}
	return fmt.Errorf("stalled: no sample for %s (deadline %s)",
		time.Since(w.last).Round(time.Millisecond), w.timeout)
}

// Stop disarms the watchdog permanently. Safe to call more than once.
func (w *Watchdog) Stop() {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.stopped = true
	w.timer.Stop()
}
