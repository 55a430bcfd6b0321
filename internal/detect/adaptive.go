package detect

import (
	"fmt"

	"agingmf/internal/aging"
	"agingmf/internal/changepoint"
	"agingmf/internal/obs"
)

// AdaptiveConfig parameterizes the workload-shift-adaptive detector.
type AdaptiveConfig struct {
	// Monitor configures the inner Hölder pipeline per counter.
	Monitor aging.Config
	// ShiftLambda is the EWMA smoothing factor of the regime chart that
	// watches the raw counter for workload shifts.
	ShiftLambda float64
	// ShiftK is the regime chart's control limit in EWMA sigmas.
	ShiftK float64
	// ShiftWarmup is the regime chart's baseline-estimation length in raw
	// samples (re-run after every recalibration, so the chart re-anchors
	// on the post-shift regime).
	ShiftWarmup int
	// Refractory suppresses further recalibrations and jump emissions for
	// this many raw samples after a confirmed shift, while the pipeline
	// baselines settle on the new regime.
	Refractory int
}

// DefaultAdaptiveConfig returns the adaptive defaults: the experiments'
// monitor settings, a two-sided EWMA regime chart (λ=0.05, 8σ, 128-sample
// baseline) on the raw counters, and a 512-sample refractory window.
func DefaultAdaptiveConfig() AdaptiveConfig {
	return AdaptiveConfig{
		Monitor:     aging.DefaultConfig(),
		ShiftLambda: 0.05,
		ShiftK:      8,
		ShiftWarmup: 128,
		Refractory:  512,
	}
}

func (c AdaptiveConfig) validate() error {
	switch {
	case c.ShiftLambda <= 0 || c.ShiftLambda > 1:
		return fmt.Errorf("adaptive shift lambda %v: %w", c.ShiftLambda, ErrBadConfig)
	case c.ShiftK <= 0:
		return fmt.Errorf("adaptive shift k %v: %w", c.ShiftK, ErrBadConfig)
	case c.ShiftWarmup < 2:
		return fmt.Errorf("adaptive shift warmup %d: %w (need >= 2)", c.ShiftWarmup, ErrBadConfig)
	case c.Refractory < 0:
		return fmt.Errorf("adaptive refractory %d: %w", c.Refractory, ErrBadConfig)
	}
	return nil
}

// adaptiveStream is the per-counter state of the adaptive detector.
type adaptiveStream struct {
	counter aging.CounterKind
	mon     *aging.Monitor
	shift   *changepoint.EWMAChart

	refractory int // raw samples left in the current refractory window
	recals     int // confirmed shifts acted upon
	jumps      int // jump events emitted (suppressed ones excluded)
	suppressed int // alarms swallowed by refractory windows (diagnostic)
}

// Adaptive runs the Hölder pipeline per counter with a workload-shift
// escape hatch: an EWMA regime chart on the raw counter watches for
// sustained level shifts (a deploy, a tenant migration), and a confirmed
// shift re-anchors the pipeline's detection baseline via
// Monitor.RecalibrateBaseline instead of letting the stale baseline alarm
// forever (Moura et al., arXiv:2511.03103). The chart reacts within a few
// dozen raw samples — far inside the Hölder pipeline's structural lag —
// so the recalibration lands before the shift can masquerade as a
// volatility jump; jumps that still fire during the refractory window are
// suppressed as shift fallout.
type Adaptive struct {
	cfg  AdaptiveConfig
	free *adaptiveStream
	swap *adaptiveStream
}

// NewAdaptive creates an adaptive detector.
func NewAdaptive(cfg AdaptiveConfig) (*Adaptive, error) {
	if cfg.Monitor == (aging.Config{}) {
		cfg.Monitor = aging.DefaultConfig()
	}
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("detect: new adaptive: %w", err)
	}
	free, err := newAdaptiveStream(aging.CounterFreeMemory, cfg)
	if err != nil {
		return nil, fmt.Errorf("detect: new adaptive: %w", err)
	}
	swap, err := newAdaptiveStream(aging.CounterUsedSwap, cfg)
	if err != nil {
		return nil, fmt.Errorf("detect: new adaptive: %w", err)
	}
	return &Adaptive{cfg: cfg, free: free, swap: swap}, nil
}

func newAdaptiveStream(counter aging.CounterKind, cfg AdaptiveConfig) (*adaptiveStream, error) {
	mon, err := aging.NewMonitor(cfg.Monitor)
	if err != nil {
		return nil, err
	}
	shift, err := changepoint.NewEWMAChart(cfg.ShiftLambda, cfg.ShiftK, cfg.ShiftWarmup, true)
	if err != nil {
		return nil, err
	}
	return &adaptiveStream{counter: counter, mon: mon, shift: shift}, nil
}

// Config returns the detector configuration.
func (a *Adaptive) Config() AdaptiveConfig { return a.cfg }

// Kind implements Detector.
func (a *Adaptive) Kind() string { return KindAdaptive }

// Push implements Detector. A non-nil tm accumulates the inner Hölder
// pipelines' stage times, exactly as the holder detector does.
func (a *Adaptive) Push(s Sample, tm *aging.StageNanos) Verdict {
	evFree, okFree := a.free.push(s.Free, a.cfg, tm)
	evSwap, okSwap := a.swap.push(s.Swap, a.cfg, tm)
	v := Verdict{Phase: a.Phase()}
	if !okFree && !okSwap {
		return v
	}
	v.Events = make([]Event, 0, 2)
	if okFree {
		v.Events = append(v.Events, evFree)
	}
	if okSwap {
		v.Events = append(v.Events, evSwap)
	}
	return v
}

// push consumes one raw sample: the inner pipeline first (so the sample's
// detection arithmetic runs against the pre-shift baseline, like every
// other sample's), then the regime chart, whose confirmation governs
// whether the outcome is emitted, suppressed, or turned into a
// recalibration.
func (st *adaptiveStream) push(x float64, cfg AdaptiveConfig, tm *aging.StageNanos) (Event, bool) {
	j, jumped := st.mon.AddTraced(x, tm)
	alarm, shifted := st.shift.Step(x)
	if st.refractory > 0 {
		st.refractory--
		if jumped || shifted {
			st.suppressed++
		}
		return Event{}, false
	}
	if shifted {
		// Confirmed workload shift: re-anchor the pipeline baseline on the
		// new regime and silence the fallout window. A jump fired by this
		// very sample is shift fallout too, so it is dropped.
		st.mon.RecalibrateBaseline()
		st.shift.Reset()
		st.refractory = cfg.Refractory
		st.recals++
		if jumped {
			st.suppressed++
		}
		return Event{
			Detector: KindAdaptive,
			Kind:     EventRecalibrate,
			Counter:  st.counter,
			Sample:   st.mon.SamplesSeen() - 1,
			Value:    alarm.Value,
			Score:    alarm.Score,
		}, true
	}
	if !jumped {
		return Event{}, false
	}
	st.jumps++
	return Event{
		Detector: KindAdaptive,
		Kind:     EventJump,
		Counter:  st.counter,
		Sample:   j.SampleIndex,
		Value:    j.Volatility,
		Score:    j.Score,
	}, true
}

// PushColumns implements ColumnPusher. The regime chart's confirmation
// interleaves with the inner pipeline per sample (a confirmed shift
// recalibrates the very next sample's baseline), so the columnar form is
// a faithful per-pair loop over the same push kernel, timed exactly as
// Push is.
func (a *Adaptive) PushColumns(free, swap []float64, ann ...*aging.Annotation) Verdict {
	an := annotation(ann)
	tail0, tm := tailSplit(an, len(free))
	events := a.pushPairs(free[:tail0], swap[:tail0], tm, nil)
	for i := tail0; i < len(free); i++ {
		events = a.pushPairs(free[i:i+1], swap[i:i+1], tm, events)
		an.Stats[i-tail0] = [2]float64{a.free.mon.LastStat(), a.swap.mon.LastStat()}
	}
	return Verdict{Events: events, Phase: a.Phase()}
}

// pushPairs pushes the pairs in order, appending fired events to events.
func (a *Adaptive) pushPairs(free, swap []float64, tm *aging.StageNanos, events []Event) []Event {
	for i := range free {
		if ev, ok := a.free.push(free[i], a.cfg, tm); ok {
			events = append(events, ev)
		}
		if ev, ok := a.swap.push(swap[i], a.cfg, tm); ok {
			events = append(events, ev)
		}
	}
	return events
}

// Phase implements Detector: only emitted jumps advance the phase —
// shift-suppressed alarms are workload fallout, not aging evidence.
func (a *Adaptive) Phase() aging.Phase {
	return maxPhase(phaseOfJumps(a.free.jumps), phaseOfJumps(a.swap.jumps))
}

// SamplesSeen implements Detector.
func (a *Adaptive) SamplesSeen() int { return a.free.mon.SamplesSeen() }

// Jumps implements Detector.
func (a *Adaptive) Jumps() int { return a.free.jumps + a.swap.jumps }

// Recalibrations implements Detector: confirmed shifts acted upon across
// both counters.
func (a *Adaptive) Recalibrations() int { return a.free.recals + a.swap.recals }

// Suppressed returns how many alarms were swallowed by refractory
// windows (diagnostic; surfaced by tests and the shootout).
func (a *Adaptive) Suppressed() int { return a.free.suppressed + a.swap.suppressed }

// LastStats implements Detector: the latest per-counter detector-input
// statistics of the inner pipelines.
func (a *Adaptive) LastStats() (freeStat, swapStat float64) {
	return a.free.mon.LastStat(), a.swap.mon.LastStat()
}

// Instrument implements Detector (nil-safe). The inner monitors share the
// aging package's metric families; set-level counters cover the rest.
func (a *Adaptive) Instrument(reg *obs.Registry) {}

// CounterPhases implements Detector.
func (a *Adaptive) CounterPhases() (free, swap aging.Phase) {
	return phaseOfJumps(a.free.jumps), phaseOfJumps(a.swap.jumps)
}

var _ Detector = (*Adaptive)(nil)
