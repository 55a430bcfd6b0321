// Package aging implements the paper's primary contribution: online
// detection of software aging from the multifractal structure of memory
// resource time series. The Monitor consumes one counter sample at a time
// (available memory or used swap), maintains the local Hölder exponent
// trajectory of the stream, tracks the moving-window volatility (second
// moment) of that trajectory, and raises jump alarms when the volatility
// shifts abruptly. Following the paper's observation, the first jump marks
// the onset of aging and a subsequent jump signals that failure is
// imminent.
//
// The Monitor is a thin composition of the streaming stages in
// internal/stream (OscillationEstimator → VolatilityWindow →
// Standardizer → GatedDetector); this package adds configuration,
// phase/jump bookkeeping, persistence and telemetry around that kernel.
// A monitor holds only the stage states the next sample needs, so its
// memory and its snapshots stay the same size however long it runs;
// offline Analyze collects the full trajectories.
//
// The package also provides the prior-work baselines the method is
// compared against in experiment E8: parametric trend extrapolation of
// resource exhaustion (Garg et al.; Vaidyanathan & Trivedi) and a global
// Hurst-exponent detector.
package aging

import (
	"errors"
	"fmt"
	"time"

	"agingmf/internal/changepoint"
	"agingmf/internal/series"
	"agingmf/internal/stream"
)

// Errors returned by the package.
var (
	// ErrBadConfig reports invalid monitor parameters.
	ErrBadConfig = errors.New("aging: bad configuration")
	// ErrNotReady means not enough samples have been consumed yet.
	ErrNotReady = errors.New("aging: not enough samples yet")
)

// Phase is the monitor's assessment of the system's aging state.
type Phase int

// Aging phases, in order.
const (
	// PhaseHealthy means no volatility jump observed yet.
	PhaseHealthy Phase = iota + 1
	// PhaseAgingOnset means one jump was observed: aging has set in.
	PhaseAgingOnset
	// PhaseCrashImminent means a second (or later) jump was observed.
	PhaseCrashImminent
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseHealthy:
		return "healthy"
	case PhaseAgingOnset:
		return "aging-onset"
	case PhaseCrashImminent:
		return "crash-imminent"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// DetectorKind selects the jump detector applied to the volatility series.
type DetectorKind int

// Supported detectors.
const (
	// DetectShewhart uses a self-calibrating Shewhart chart.
	DetectShewhart DetectorKind = iota + 1
	// DetectCUSUM uses a one-sided CUSUM.
	DetectCUSUM
	// DetectPageHinkley uses the Page–Hinkley test.
	DetectPageHinkley
	// DetectEWMA uses an EWMA control chart (sensitive to small
	// sustained shifts, between Shewhart and CUSUM).
	DetectEWMA
)

// String implements fmt.Stringer.
func (k DetectorKind) String() string {
	switch k {
	case DetectShewhart:
		return "shewhart"
	case DetectCUSUM:
		return "cusum"
	case DetectPageHinkley:
		return "page-hinkley"
	case DetectEWMA:
		return "ewma"
	default:
		return fmt.Sprintf("detector(%d)", int(k))
	}
}

// Config parameterizes the Monitor.
type Config struct {
	// MinRadius and MaxRadius define the dyadic window ladder of the
	// pointwise Hölder estimator.
	MinRadius int
	MaxRadius int
	// VolatilityWindow is the moving window (in Hölder samples) whose
	// standard deviation is tracked for jumps.
	VolatilityWindow int
	// Detector selects the jump detector.
	Detector DetectorKind
	// ShewhartK is the control limit (sigma units) for DetectShewhart.
	ShewhartK float64
	// DetectorWarmup is the baseline-estimation length of the detector,
	// in volatility samples.
	DetectorWarmup int
	// CUSUMDrift and CUSUMThreshold configure DetectCUSUM. The volatility
	// stream is standardized against the warmup baseline first, so these
	// are in baseline-sigma units.
	CUSUMDrift     float64
	CUSUMThreshold float64
	// PHDelta and PHLambda configure DetectPageHinkley (also in
	// baseline-sigma units of the standardized volatility stream).
	PHDelta  float64
	PHLambda float64
	// EWMALambda and EWMAK configure DetectEWMA (smoothing factor and
	// control limit in EWMA-sigma units; the chart self-calibrates).
	EWMALambda float64
	EWMAK      float64
	// Refractory suppresses further jump alarms for this many volatility
	// samples after each alarm, so one physical change is not double
	// counted.
	Refractory int
	// HistoryLimit once bounded the raw, Hölder and volatility histories
	// a monitor kept. Monitors now keep no histories, so it has no
	// effect; it stays because snapshots embed the configuration.
	//
	// Deprecated: ignored.
	HistoryLimit int
}

// DefaultConfig returns the monitor settings used throughout the
// experiments (Shewhart chart at 4 sigma over a 256-sample volatility
// window of an oscillation Hölder trajectory with radii 2..32).
func DefaultConfig() Config {
	// The volatility stream is a moving statistic, hence strongly
	// autocorrelated: the detector baseline must span several independent
	// windows (warmup >> window) or its variance is underestimated and
	// false alarms follow.
	return Config{
		MinRadius:        2,
		MaxRadius:        32,
		VolatilityWindow: 256,
		Detector:         DetectShewhart,
		ShewhartK:        4,
		DetectorWarmup:   1024,
		CUSUMDrift:       0.5,
		CUSUMThreshold:   100,
		PHDelta:          0.5,
		PHLambda:         250,
		EWMALambda:       0.05,
		EWMAK:            10,
		Refractory:       256,
	}
}

func (c Config) validate() error {
	switch {
	case c.MinRadius < 1:
		return fmt.Errorf("min radius %d: %w", c.MinRadius, ErrBadConfig)
	case c.MaxRadius <= c.MinRadius:
		return fmt.Errorf("max radius %d <= min radius %d: %w", c.MaxRadius, c.MinRadius, ErrBadConfig)
	case c.VolatilityWindow < 8:
		return fmt.Errorf("volatility window %d: %w (need >= 8)", c.VolatilityWindow, ErrBadConfig)
	case c.DetectorWarmup < 2:
		return fmt.Errorf("detector warmup %d: %w", c.DetectorWarmup, ErrBadConfig)
	case c.Refractory < 0:
		return fmt.Errorf("refractory %d: %w", c.Refractory, ErrBadConfig)
	}
	switch c.Detector {
	case DetectShewhart:
		if c.ShewhartK <= 0 {
			return fmt.Errorf("shewhart k %v: %w", c.ShewhartK, ErrBadConfig)
		}
	case DetectCUSUM:
		if c.CUSUMDrift < 0 || c.CUSUMThreshold <= 0 {
			return fmt.Errorf("cusum %v/%v: %w", c.CUSUMDrift, c.CUSUMThreshold, ErrBadConfig)
		}
	case DetectPageHinkley:
		if c.PHDelta < 0 || c.PHLambda <= 0 {
			return fmt.Errorf("page-hinkley %v/%v: %w", c.PHDelta, c.PHLambda, ErrBadConfig)
		}
	case DetectEWMA:
		if c.EWMALambda <= 0 || c.EWMALambda > 1 || c.EWMAK <= 0 {
			return fmt.Errorf("ewma %v/%v: %w", c.EWMALambda, c.EWMAK, ErrBadConfig)
		}
	default:
		return fmt.Errorf("detector %d: %w", int(c.Detector), ErrBadConfig)
	}
	return nil
}

// ladder returns the dyadic radius ladder MinRadius, 2*MinRadius, ...
// <= MaxRadius of the Hölder estimator.
func (c Config) ladder() []int {
	var rs []int
	for r := c.MinRadius; r <= c.MaxRadius; r *= 2 {
		rs = append(rs, r)
	}
	return rs
}

func (c Config) newDetector() (changepoint.Detector, error) {
	switch c.Detector {
	case DetectShewhart:
		return changepoint.NewShewhart(c.ShewhartK, c.DetectorWarmup, false)
	case DetectCUSUM:
		// Warmup 1: the monitor standardizes the stream itself, so the
		// in-control mean is 0 by construction.
		return changepoint.NewCUSUM(c.CUSUMDrift, c.CUSUMThreshold, 1)
	case DetectPageHinkley:
		return changepoint.NewPageHinkley(c.PHDelta, c.PHLambda)
	case DetectEWMA:
		return changepoint.NewEWMAChart(c.EWMALambda, c.EWMAK, c.DetectorWarmup, false)
	default:
		return nil, fmt.Errorf("detector %d: %w", int(c.Detector), ErrBadConfig)
	}
}

// standardizes reports whether the monitor must z-score the volatility
// stream before the detector sees it (CUSUM and Page–Hinkley thresholds
// are defined in baseline-sigma units; the Shewhart chart self-calibrates).
func (c Config) standardizes() bool {
	return c.Detector == DetectCUSUM || c.Detector == DetectPageHinkley
}

// Jump is a detected volatility jump.
type Jump struct {
	// SampleIndex is the index of the raw counter sample at which the
	// alarm fired (accounting for the estimator's look-back lag).
	SampleIndex int
	// VolIndex is the index within the volatility series.
	VolIndex int
	// Volatility is the moving-std value that triggered the alarm.
	Volatility float64
	// Score is the detector statistic at the alarm.
	Score float64
}

// Monitor is the online aging detector. Feed it one counter sample at a
// time with Add (or a column at a time with AddColumns); inspect Phase
// and Jumps at any time. Not safe for concurrent use.
//
// Monitor composes the internal/stream pipeline stages:
//
//	raw ─▶ est (Hölder) ─▶ vol (moving std) ─▶ std (z-score) ─▶ gate (detector)
type Monitor struct {
	cfg Config

	est  *stream.OscillationEstimator
	vol  *stream.VolatilityWindow
	std  *stream.Standardizer
	gate *stream.GatedDetector

	seen       int     // total samples consumed (indices are absolute)
	alphasSeen int     // total Hölder estimates produced
	volsSeen   int     // total volatility values produced
	lastStat   float64 // latest detector-input statistic (not persisted)

	jumps []Jump

	colAlphas []float64 // AddColumns scratch: the batch's emitted alphas

	// traj is Analyze's sink for the Hölder trajectory: each AddColumns
	// batch appends its alphas once. Online monitors leave it nil and so
	// keep no history.
	traj *[]float64

	met *monitorMetrics // telemetry; nil (zero overhead) unless Instrument-ed
}

// NewMonitor creates a Monitor with the given configuration.
func NewMonitor(cfg Config) (*Monitor, error) {
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("new monitor: %w", err)
	}
	rs := cfg.ladder()
	if len(rs) < 3 {
		return nil, fmt.Errorf("new monitor: radius ladder %v too short: %w", rs, ErrBadConfig)
	}
	est, err := stream.NewOscillationEstimator(rs)
	if err != nil {
		return nil, fmt.Errorf("new monitor: %w", err)
	}
	vol, err := stream.NewVolatilityWindow(cfg.VolatilityWindow)
	if err != nil {
		return nil, fmt.Errorf("new monitor: %w", err)
	}
	std, err := stream.NewStandardizer(cfg.DetectorWarmup, cfg.standardizes())
	if err != nil {
		return nil, fmt.Errorf("new monitor: %w", err)
	}
	det, err := cfg.newDetector()
	if err != nil {
		return nil, fmt.Errorf("new monitor: %w", err)
	}
	gate, err := stream.NewGatedDetector(det, cfg.Refractory)
	if err != nil {
		return nil, fmt.Errorf("new monitor: %w", err)
	}
	return &Monitor{cfg: cfg, est: est, vol: vol, std: std, gate: gate}, nil
}

// Config returns the monitor configuration.
func (m *Monitor) Config() Config { return m.cfg }

// SamplesSeen returns how many raw samples have been consumed.
func (m *Monitor) SamplesSeen() int { return m.seen }

// Lag returns the structural delay, in raw samples, between a sample
// arriving and the earliest alarm it can contribute to: the Hölder
// estimator needs MaxRadius of future context.
func (m *Monitor) Lag() int { return m.est.Lag() }

// Add consumes one counter sample. It returns a Jump and true when this
// sample completes evidence of a volatility jump. It is AddTraced
// without timing: the per-sample path, and the oracle the column
// kernel (AddColumns) is checked against.
func (m *Monitor) Add(x float64) (Jump, bool) { return m.AddTraced(x, nil) }

// AddColumns consumes a whole column of counter samples through the
// batch-first kernel: the estimator runs rung-major over the column
// (stream.OscillationEstimator.PushColumns) and the volatility →
// standardizer → detector chain then consumes the emitted alphas in one
// tight loop. Monitor state after AddColumns(xs) — stage states, jumps
// and SaveState bytes — is identical to len(xs) calls of Add; the
// columnar parity tests assert it. The restructuring is what
// makes the binary wire path fast: one call per frame instead of one
// call chain per sample.
func (m *Monitor) AddColumns(xs []float64) []Jump {
	return m.pushColumns(xs, nil, 0)
}

// pushColumns is AddColumns with an optional annotation whose Stats
// column col this counter's stream fills (see Annotation).
func (m *Monitor) pushColumns(xs []float64, ann *Annotation, col int) []Jump {
	if m.met == nil {
		return m.addColumns(xs, ann, col)
	}
	start := time.Now()
	fired := m.addColumns(xs, ann, col)
	m.observeColumns(start, len(xs), len(fired))
	return fired
}

// addColumns is the un-instrumented AddColumns kernel. Stage-at-a-time
// processing is state-equivalent to the per-sample pipeline because the
// stages only communicate through their emitted values.
//
// A non-nil ann observes the batch without touching detection state:
// column col of ann.Stats receives LastStat as it stood after each of
// the batch's last len(ann.Stats) samples, and ann.Tm accumulates the
// estimator's time once around its column pass and the other stages'
// around each push. A nil ann costs nothing per sample.
func (m *Monitor) addColumns(xs []float64, ann *Annotation, col int) []Jump {
	if len(xs) == 0 {
		return nil
	}
	var (
		tm    *StageNanos
		stats [][2]float64
		t0    time.Time
	)
	if ann != nil {
		tm, stats = ann.Tm, ann.Stats
	}
	// Stats slot k belongs to batch sample tail0+k; filled counts the
	// slots already written, carry is LastStat as of the slots not yet
	// written.
	tail0, filled, carry := len(xs)-len(stats), 0, m.lastStat
	m.seen += len(xs)
	// Hölder estimates for the whole column.
	if tm != nil {
		t0 = time.Now()
	}
	m.colAlphas = m.est.PushColumns(xs, m.colAlphas[:0])
	if tm != nil {
		tm.Est += time.Since(t0).Nanoseconds()
	}
	if m.traj != nil {
		*m.traj = append(*m.traj, m.colAlphas...)
	}
	var fired []Jump
	alphasBase := m.alphasSeen // count before this batch, for jump indexing
	m.alphasSeen += len(m.colAlphas)
	// The sample that emitted alpha number a (zero-based) was raw sample
	// a + 2*Lag(), which is what addSampleT's m.seen-1 held at this point
	// of the per-sample pipeline; first is that index for the batch's
	// first alpha, and first-seen0 its position in the batch.
	first := alphasBase + 2*m.est.Lag()
	seen0 := m.seen - len(xs)
	for ai, alpha := range m.colAlphas {
		if tm != nil {
			t0 = time.Now()
		}
		vol, ok := m.vol.Push(alpha)
		if tm != nil {
			tm.Vol += time.Since(t0).Nanoseconds()
		}
		if !ok {
			continue
		}
		m.volsSeen++
		if tm != nil {
			t0 = time.Now()
		}
		stat, ok := m.std.Push(vol)
		if tm != nil {
			tm.Std += time.Since(t0).Nanoseconds()
		}
		if !ok {
			continue // still calibrating the baseline
		}
		m.lastStat = stat
		if stats != nil {
			// Slots before this sample keep the previous statistic.
			for k := first + ai - seen0 - tail0; filled < k; filled++ {
				stats[filled][col] = carry
			}
			carry = stat
		}
		if tm != nil {
			t0 = time.Now()
		}
		alarm, ok := m.gate.Push(stat)
		if tm != nil {
			tm.Gate += time.Since(t0).Nanoseconds()
		}
		if !ok {
			continue
		}
		j := Jump{
			SampleIndex: first + ai,
			VolIndex:    m.volsSeen - 1,
			Volatility:  vol,
			Score:       alarm.Score,
		}
		m.jumps = append(m.jumps, j)
		m.std.Recalibrate()
		fired = append(fired, j)
	}
	for ; filled < len(stats); filled++ {
		stats[filled][col] = carry
	}
	return fired
}

// StageNanos accumulates the per-stage push time of the monitor pipeline
// for one traced unit — the stream-stage span points of the sampled
// tracer (internal/trace maps the fields onto its Stage indices). A nil
// *StageNanos disables timing, which is the hot path.
type StageNanos struct {
	Est, Vol, Std, Gate int64
}

// Annotation is the optional observer argument of the column kernels
// (DualMonitor.AddColumns and, above it, the detect package's
// PushColumns and MonitorSet.AddColumns): what the flight recorder and
// the sampled tracer need from one batch, gathered inside the batch-first
// kernels instead of by a per-sample replay. Filling it never changes
// detection state. A nil *Annotation is the hot path.
type Annotation struct {
	// Stats, when non-empty, receives the lead detector's per-counter
	// statistics (free, swap) as LastStats would have returned them after
	// each of the batch's last len(Stats) samples; Stats[len(Stats)-1]
	// belongs to the batch's last sample. len(Stats) must not exceed the
	// batch length.
	Stats [][2]float64
	// Tm, when non-nil, accumulates the stream-stage push time of the
	// batch (see StageNanos).
	Tm *StageNanos
}

// AddTraced is Add with per-stage timing: when tm is non-nil, the time
// spent in each stream-stage push is accumulated into it. The detection
// arithmetic is identical to Add — timing only reads the clock around
// the stage calls — so monitor state stays byte-for-byte equal to the
// untraced path (asserted by TestAddTracedParity).
func (m *Monitor) AddTraced(x float64, tm *StageNanos) (Jump, bool) {
	if m.met == nil {
		return m.addSampleT(x, tm)
	}
	start := time.Now()
	j, fired := m.addSampleT(x, tm)
	m.observeAdd(start, fired)
	return j, fired
}

// LastStat returns the latest detector-input statistic of the stream
// (the value pushed into the gated detector: the moving volatility, or
// its z-score for standardizing detectors). Zero until the detector
// baseline has calibrated. It is diagnostic state for the flight
// recorder and is deliberately not part of SaveState snapshots.
func (m *Monitor) LastStat() float64 { return m.lastStat }

// addSampleT pushes the sample through the stream stages in order and
// turns a detector alarm into a Jump. A non-nil tm times each stage
// push; the nil form is branch-only and is what every hot path compiles
// down to.
func (m *Monitor) addSampleT(x float64, tm *StageNanos) (Jump, bool) {
	m.seen++
	var t0 time.Time
	if tm != nil {
		t0 = time.Now()
	}
	alpha, ok := m.est.Push(x)
	if tm != nil {
		tm.Est += time.Since(t0).Nanoseconds()
	}
	if !ok {
		return Jump{}, false
	}
	m.alphasSeen++
	if tm != nil {
		t0 = time.Now()
	}
	vol, ok := m.vol.Push(alpha)
	if tm != nil {
		tm.Vol += time.Since(t0).Nanoseconds()
	}
	if !ok {
		return Jump{}, false
	}
	m.volsSeen++
	if tm != nil {
		t0 = time.Now()
	}
	stat, ok := m.std.Push(vol)
	if tm != nil {
		tm.Std += time.Since(t0).Nanoseconds()
	}
	if !ok {
		return Jump{}, false // still calibrating the baseline
	}
	m.lastStat = stat
	if tm != nil {
		t0 = time.Now()
	}
	alarm, fired := m.gate.Push(stat)
	if tm != nil {
		tm.Gate += time.Since(t0).Nanoseconds()
	}
	if !fired {
		return Jump{}, false
	}
	j := Jump{
		SampleIndex: m.seen - 1,
		VolIndex:    m.volsSeen - 1,
		Volatility:  vol,
		Score:       alarm.Score,
	}
	m.jumps = append(m.jumps, j)
	// Recalibrate the standardization baseline for the post-jump regime.
	m.std.Recalibrate()
	return j, true
}

// RecalibrateBaseline re-anchors the detection baseline on the current
// regime: the standardizer discards its baseline and re-estimates it from
// the next warmup window, and the jump detector restarts its own
// calibration. Callers invoke it after an external regime-change signal
// (e.g. a confirmed workload shift) so the monitor adapts to the new
// normal instead of alarming forever against a stale baseline. Detection
// state is otherwise untouched — counters and past jumps are preserved,
// and persisted snapshots round-trip the recalibrated state.
func (m *Monitor) RecalibrateBaseline() {
	m.std.Recalibrate()
	m.gate.Detector().Reset()
}

// Phase returns the monitor's current aging assessment.
func (m *Monitor) Phase() Phase {
	switch {
	case len(m.jumps) == 0:
		return PhaseHealthy
	case len(m.jumps) == 1:
		return PhaseAgingOnset
	default:
		return PhaseCrashImminent
	}
}

// Jumps returns all detected volatility jumps (copy).
func (m *Monitor) Jumps() []Jump {
	return append([]Jump(nil), m.jumps...)
}

// AnalysisResult is the offline batch analysis of a complete trace.
type AnalysisResult struct {
	// Holder is the pointwise Hölder trajectory.
	Holder series.Series
	// Volatility is the moving standard deviation of Holder.
	Volatility series.Series
	// Jumps are the detected volatility jumps.
	Jumps []Jump
	// FinalPhase is the phase after consuming the whole trace.
	FinalPhase Phase
}

// Analyze runs the monitor over a complete counter series and returns the
// derived series with timing metadata aligned to the input. It is the
// offline entry point of the same streaming kernel Add uses online, so
// the two agree exactly by construction: the monitor's trajectory sink
// collects the Hölder estimates, and a volatility window of the
// monitor's width over them reproduces the volatility stage's values.
func Analyze(s series.Series, cfg Config) (AnalysisResult, error) {
	mon, err := NewMonitor(cfg)
	if err != nil {
		return AnalysisResult{}, fmt.Errorf("analyze %q: %w", s.Name, err)
	}
	if s.Len() < 2*cfg.MaxRadius+cfg.VolatilityWindow+cfg.DetectorWarmup {
		return AnalysisResult{}, fmt.Errorf("analyze %q: %d samples: %w", s.Name, s.Len(), ErrNotReady)
	}
	if !s.IsFinite() {
		return AnalysisResult{}, fmt.Errorf("analyze %q: non-finite sample (NaN or Inf)", s.Name)
	}
	alphas := make([]float64, 0, s.Len())
	mon.traj = &alphas
	mon.AddColumns(s.Values)
	vw, err := stream.NewVolatilityWindow(cfg.VolatilityWindow)
	if err != nil {
		return AnalysisResult{}, fmt.Errorf("analyze %q: %w", s.Name, err)
	}
	vols := make([]float64, 0, len(alphas))
	for _, a := range alphas {
		if v, ok := vw.Push(a); ok {
			vols = append(vols, v)
		}
	}
	res := AnalysisResult{
		Jumps:      mon.Jumps(),
		FinalPhase: mon.Phase(),
	}
	res.Holder = series.Series{
		Name:   s.Name + ".holder",
		Start:  s.TimeAt(cfg.MaxRadius),
		Step:   s.Step,
		Values: alphas,
	}
	// The first volatility value summarizes alphas [0, w-1], i.e. raw
	// samples up to MaxRadius + w - 1.
	res.Volatility = series.Series{
		Name:   s.Name + ".holdervol",
		Start:  s.TimeAt(cfg.MaxRadius + cfg.VolatilityWindow - 1),
		Step:   s.Step,
		Values: vols,
	}
	return res, nil
}
