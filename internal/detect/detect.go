// Package detect turns the repository from a single-method reproduction
// into a detector comparison platform: it defines a pluggable Detector
// interface over the paired free-memory/used-swap sample stream and a
// MonitorSet that runs N detectors side by side on one source, labeling
// every verdict with the detector that produced it.
//
// Three detectors are provided:
//
//   - "holder" wraps the paper's Hölder-volatility pipeline (the
//     aging.DualMonitor stage composition) unchanged — the reference
//     method of the DSN 2003 study.
//   - "entropy" is a CHAOS-style sliding-window multiscale sample-entropy
//     detector (Chen et al., arXiv:1502.00781): rising irregularity of
//     the resource series against a frozen healthy baseline signals
//     aging-oriented failure, often earlier than volatility jumps.
//   - "adaptive" couples internal/changepoint regime detection on the raw
//     counters to Monitor.RecalibrateBaseline (Moura et al.,
//     arXiv:2511.03103): after a confirmed workload shift the Hölder
//     baselines re-anchor instead of alarming forever against the old
//     regime.
//
// Every detector persists versioned gob state (MonitorSet snapshots are
// forward-versioned, and legacy aging.DualMonitor blobs restore into a
// holder-only set), exposes nil-safe instrumentation, and accepts an
// optional *aging.StageNanos so the sampled pipeline tracer can attribute
// push time to stages.
package detect

import (
	"errors"
	"fmt"
	"strings"

	"agingmf/internal/aging"
	"agingmf/internal/obs"
)

// Errors returned by the package.
var (
	// ErrBadConfig reports invalid detector parameters.
	ErrBadConfig = errors.New("detect: bad configuration")
	// ErrBadState reports a snapshot that cannot be restored.
	ErrBadState = errors.New("detect: bad state")
	// ErrUnknownKind reports an unrecognized detector name.
	ErrUnknownKind = errors.New("detect: unknown detector")
)

// Detector kinds, as spelled in -detectors flags, alert labels and
// persisted state.
const (
	// KindHolder is the paper's Hölder-volatility pipeline.
	KindHolder = "holder"
	// KindEntropy is the multiscale sample-entropy detector.
	KindEntropy = "entropy"
	// KindAdaptive is the workload-shift-adaptive Hölder pipeline.
	KindAdaptive = "adaptive"
)

// Event kinds.
const (
	// EventJump is a detection alarm: the detector considers the counter's
	// behaviour to have shifted toward failure.
	EventJump = "jump"
	// EventRecalibrate records that a detector re-anchored its baseline
	// after a confirmed workload shift (adaptive detector only). It is an
	// informational event, not an alarm.
	EventRecalibrate = "recalibrate"
)

// Sample is one paired observation of the two instrumented counters.
type Sample struct {
	// Free is the available-memory counter value.
	Free float64
	// Swap is the used-swap counter value.
	Swap float64
}

// Event is one detector verdict worth reporting: an alarm or a baseline
// recalibration, attributed to the detector and counter that produced it.
type Event struct {
	// Detector is the emitting detector's kind ("holder", ...).
	Detector string
	// Kind is EventJump or EventRecalibrate.
	Kind string
	// Counter identifies the counter stream the event belongs to.
	Counter aging.CounterKind
	// Sample is the raw sample index at which the event fired.
	Sample int
	// Value is the detector-specific magnitude at the event (moving
	// volatility for holder/adaptive jumps, window entropy for entropy
	// jumps, raw counter value for recalibrations).
	Value float64
	// Score is the detector statistic that crossed the threshold.
	Score float64
}

// Verdict is the outcome of pushing one sample into a detector.
type Verdict struct {
	// Events holds the events fired by this sample, in order (nil on the
	// steady-state path).
	Events []Event
	// Phase is the detector's aging assessment after the sample.
	Phase aging.Phase
}

// Detector is one online aging detector over the paired counter stream.
// Implementations are not safe for concurrent use; the ingest registry
// confines each set to its shard goroutine.
type Detector interface {
	// Kind returns the detector's registered name.
	Kind() string
	// Push consumes one sample pair. A non-nil tm accumulates per-stage
	// push time for the sampled tracer; detection state must be
	// byte-for-byte identical either way.
	Push(s Sample, tm *aging.StageNanos) Verdict
	// ColumnPusher is the batch-first form of Push; every detector has
	// one.
	ColumnPusher
	// Phase returns the current aging assessment.
	Phase() aging.Phase
	// CounterPhases returns the phases of the detector's two per-counter
	// jump ladders: each climbs one step per jump event of its counter,
	// and Phase is the more advanced of the two.
	CounterPhases() (free, swap aging.Phase)
	// SamplesSeen returns how many sample pairs have been consumed.
	SamplesSeen() int
	// Jumps returns how many jump events the detector has emitted.
	Jumps() int
	// Recalibrations returns how many baseline recalibrations the
	// detector has performed (zero for non-adaptive detectors).
	Recalibrations() int
	// LastStats returns the latest per-counter detector statistics (the
	// flight recorder's score columns).
	LastStats() (freeStat, swapStat float64)
	// SaveState serializes the detector; the blob is self-describing (it
	// embeds the configuration) and versioned.
	SaveState() ([]byte, error)
	// Instrument attaches telemetry to reg. A nil receiver or registry is
	// a no-op, so callers never need nil checks.
	Instrument(reg *obs.Registry)
}

// ColumnPusher is the batch-first half of a Detector: consume one
// whole column per counter (free[i] and swap[i] are sample pair i) in a
// single call, without per-sample interface dispatch. Implementations
// must be state- and event-equivalent to pushing the pairs one at a
// time — the columnar parity tests assert byte-identical SaveState
// blobs — and events must be reported in per-sample arrival order.
//
// The optional annotation (at most one; nil or absent is the hot path,
// which must do no extra per-sample work) makes an observed batch run
// the same kernel as an unobserved one: Stats receives the detector's
// LastStats after each of the batch's last len(Stats) samples, and Tm
// accumulates stage time wherever Push would (see aging.Annotation).
// The argument is variadic so callers without an observer keep the
// two-column call.
type ColumnPusher interface {
	// PushColumns consumes len(free) == len(swap) sample pairs and
	// returns the verdict after the last pair, with every event fired
	// along the way.
	PushColumns(free, swap []float64, ann ...*aging.Annotation) Verdict
}

// annotation returns the optional column-kernel annotation (nil when
// absent).
func annotation(ann []*aging.Annotation) *aging.Annotation {
	if len(ann) == 0 {
		return nil
	}
	return ann[0]
}

// tailSplit splits an n-sample batch at the first sample whose
// statistics a's Stats collects (n when it collects none), and returns
// the timing accumulator, for the per-pair column loops.
func tailSplit(a *aging.Annotation, n int) (tail0 int, tm *aging.StageNanos) {
	if a == nil {
		return n, nil
	}
	return n - len(a.Stats), a.Tm
}

// Config carries the per-kind detector configurations of a MonitorSet.
type Config struct {
	// Monitor configures the holder detector's Hölder pipeline (and, via
	// Adaptive.Monitor when that is zero, the adaptive detector's).
	Monitor aging.Config
	// Entropy configures the entropy detector.
	Entropy EntropyConfig
	// Adaptive configures the adaptive detector. A zero Adaptive.Monitor
	// inherits Monitor.
	Adaptive AdaptiveConfig
}

// DefaultConfig returns the detector suite defaults: the experiments'
// monitor settings for holder and adaptive, and the entropy defaults.
func DefaultConfig() Config {
	return Config{
		Monitor:  aging.DefaultConfig(),
		Entropy:  DefaultEntropyConfig(),
		Adaptive: DefaultAdaptiveConfig(),
	}
}

// withDefaults fills zero-valued sub-configurations. A zero
// Adaptive.Monitor inherits Monitor even when the rest of Adaptive is
// zero too and takes the adaptive defaults.
func (c Config) withDefaults() Config {
	if c.Monitor == (aging.Config{}) {
		c.Monitor = aging.DefaultConfig()
	}
	if c.Entropy == (EntropyConfig{}) {
		c.Entropy = DefaultEntropyConfig()
	}
	inherit := c.Adaptive.Monitor == (aging.Config{})
	if c.Adaptive == (AdaptiveConfig{}) {
		c.Adaptive = DefaultAdaptiveConfig()
	}
	if inherit {
		c.Adaptive.Monitor = c.Monitor
	}
	return c
}

// newDetector constructs one detector by kind.
func (c Config) newDetector(kind string) (Detector, error) {
	switch kind {
	case KindHolder:
		return NewHolder(c.Monitor)
	case KindEntropy:
		return NewEntropy(c.Entropy)
	case KindAdaptive:
		return NewAdaptive(c.Adaptive)
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownKind, kind)
	}
}

// ParseKinds parses a comma-separated detector list ("holder,entropy")
// into the canonical kind slice, rejecting unknown names and duplicates.
// An empty spec yields the default suite: holder only.
func ParseKinds(spec string) ([]string, error) {
	if strings.TrimSpace(spec) == "" {
		return []string{KindHolder}, nil
	}
	var kinds []string
	for _, part := range strings.Split(spec, ",") {
		kind := strings.TrimSpace(part)
		switch kind {
		case KindHolder, KindEntropy, KindAdaptive:
		case "":
			return nil, fmt.Errorf("detect: empty detector name in %q: %w", spec, ErrBadConfig)
		default:
			return nil, fmt.Errorf("%w: %q", ErrUnknownKind, kind)
		}
		for _, seen := range kinds {
			if seen == kind {
				return nil, fmt.Errorf("detect: duplicate detector %q: %w", kind, ErrBadConfig)
			}
		}
		kinds = append(kinds, kind)
	}
	return kinds, nil
}

// phaseOfJumps maps an emitted-jump count onto the paper's phase ladder:
// no jumps is healthy, one marks aging onset, two or more mean a crash is
// imminent.
func phaseOfJumps(n int) aging.Phase {
	switch {
	case n == 0:
		return aging.PhaseHealthy
	case n == 1:
		return aging.PhaseAgingOnset
	default:
		return aging.PhaseCrashImminent
	}
}

// maxPhase returns the more advanced of two phases.
func maxPhase(a, b aging.Phase) aging.Phase {
	if a > b {
		return a
	}
	return b
}
