package aging

import (
	"fmt"
	"math"

	"agingmf/internal/stats"
)

// PredictorConfig parameterizes the hybrid crash predictor.
type PredictorConfig struct {
	// Monitor configures the underlying dual-counter monitor.
	Monitor Config
	// TrendWindow is the trailing sample count for the exhaustion fit.
	TrendWindow int
	// SwapCapacityBytes is the swap size; used swap reaching it is
	// exhaustion (0 disables the swap-side estimate).
	SwapCapacityBytes float64
	// MinPhase is the aging phase at which predictions are issued
	// (before it, trend estimates on a healthy system are noise).
	MinPhase Phase
}

// DefaultPredictorConfig uses the standard monitor, a 512-sample Sen fit
// and predictions from aging onset.
func DefaultPredictorConfig(swapCapacityBytes float64) PredictorConfig {
	return PredictorConfig{
		Monitor:           DefaultConfig(),
		TrendWindow:       512,
		SwapCapacityBytes: swapCapacityBytes,
		MinPhase:          PhaseAgingOnset,
	}
}

func (c PredictorConfig) validate() error {
	if c.TrendWindow < 8 {
		return fmt.Errorf("trend window %d: %w", c.TrendWindow, ErrBadConfig)
	}
	if c.SwapCapacityBytes < 0 {
		return fmt.Errorf("swap capacity %v: %w", c.SwapCapacityBytes, ErrBadConfig)
	}
	if c.MinPhase != PhaseAgingOnset && c.MinPhase != PhaseCrashImminent {
		return fmt.Errorf("min phase %v: %w", c.MinPhase, ErrBadConfig)
	}
	return nil
}

// Prediction is the predictor's current assessment.
type Prediction struct {
	// Phase is the monitor's aging phase.
	Phase Phase
	// RemainingTicks is the predicted time to exhaustion (+Inf when no
	// resource is on an exhaustion course).
	RemainingTicks float64
	// Source names the binding resource ("free-memory", "used-swap").
	Source CounterKind
}

// CrashPredictor is the extension the paper's discussion points toward:
// the non-parametric multifractal monitor decides *whether* the system is
// aging, and only then a robust trend fit estimates *when* exhaustion
// will occur. This avoids the trend baselines' premature extrapolation on
// healthy systems while retaining their quantitative lead-time estimate.
type CrashPredictor struct {
	cfg  PredictorConfig
	dual *DualMonitor

	free []float64
	swap []float64
	xs   []float64
}

// NewCrashPredictor creates a hybrid predictor.
func NewCrashPredictor(cfg PredictorConfig) (*CrashPredictor, error) {
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("new crash predictor: %w", err)
	}
	dual, err := NewDualMonitor(cfg.Monitor)
	if err != nil {
		return nil, fmt.Errorf("new crash predictor: %w", err)
	}
	xs := make([]float64, cfg.TrendWindow)
	for i := range xs {
		xs[i] = float64(i)
	}
	return &CrashPredictor{cfg: cfg, dual: dual, xs: xs}, nil
}

// Add consumes one sample pair.
func (p *CrashPredictor) Add(freeMemory, usedSwap float64) {
	p.dual.Add(freeMemory, usedSwap)
	p.free = append(p.free, freeMemory)
	p.swap = append(p.swap, usedSwap)
}

// Phase returns the monitor's current aging phase.
func (p *CrashPredictor) Phase() Phase { return p.dual.Phase() }

// Predict returns the current prediction. ok is false while the system is
// below the configured phase or while too few samples exist for the fit.
func (p *CrashPredictor) Predict() (Prediction, bool) {
	phase := p.dual.Phase()
	if phase < p.cfg.MinPhase || len(p.free) < p.cfg.TrendWindow {
		return Prediction{}, false
	}
	pred := Prediction{Phase: phase, RemainingTicks: math.Inf(1)}
	if ttl, ok := p.remaining(p.free, 0, false); ok && ttl < pred.RemainingTicks {
		pred.RemainingTicks = ttl
		pred.Source = CounterFreeMemory
	}
	if p.cfg.SwapCapacityBytes > 0 {
		if ttl, ok := p.remaining(p.swap, p.cfg.SwapCapacityBytes, true); ok && ttl < pred.RemainingTicks {
			pred.RemainingTicks = ttl
			pred.Source = CounterUsedSwap
		}
	}
	return pred, true
}

// remaining runs a Theil–Sen fit on the trailing window of values toward
// the exhaustion level.
func (p *CrashPredictor) remaining(values []float64, level float64, rising bool) (float64, bool) {
	window := values[len(values)-p.cfg.TrendWindow:]
	fit, err := stats.TheilSen(p.xs, window)
	if err != nil {
		return 0, false
	}
	current := window[len(window)-1]
	if rising {
		if current >= level {
			return 0, true
		}
		if fit.Slope <= 0 {
			return 0, false
		}
		return (level - current) / fit.Slope, true
	}
	if current <= level {
		return 0, true
	}
	if fit.Slope >= 0 {
		return 0, false
	}
	return (level - current) / fit.Slope, true
}
