// Package stream is the allocation-free streaming kernel of the aging
// detector: the per-sample pipeline the paper's method reduces to, cut
// into small composable stages. Each stage is a struct with a
// Push(x) (out, ok) method, performs zero heap allocations in steady
// state, and exposes a gob-encodable state mirror so long-running agents
// can snapshot and resume it.
//
// The pipeline, in order:
//
//		raw sample ──▶ OscillationEstimator ──▶ VolatilityWindow ──▶
//		              Standardizer ──▶ GatedDetector ──▶ jump alarms
//
//	  - OscillationEstimator turns the raw counter stream into the local
//	    Hölder exponent trajectory (log-log regression of window
//	    oscillation against a ladder of radii: monotonic ring deques per
//	    sample, a doubling-ladder extrema kernel per column batch).
//	  - VolatilityWindow tracks the moving standard deviation of that
//	    trajectory — the paper's "Hölder volatility".
//	  - Standardizer z-scores the volatility against a warmup baseline for
//	    detectors whose thresholds are defined in baseline-sigma units
//	    (CUSUM, Page–Hinkley); it is a pass-through otherwise.
//	  - GatedDetector runs a changepoint.Detector over the standardized
//	    stream with a refractory period after each alarm, so one physical
//	    change is not double counted.
//
// Both the online monitor (internal/aging.Monitor) and the offline
// trajectory estimator (internal/holder.Oscillation) are thin
// compositions of these stages, which makes their equivalence structural
// rather than test-enforced, and makes a new estimator (e.g. an online
// wavelet-leader stage) a drop-in replacement for the first stage.
package stream

import (
	"errors"
	"math"

	"agingmf/internal/stats"
)

// ErrBadConfig reports invalid stage parameters.
var ErrBadConfig = errors.New("stream: bad configuration")

// ErrBadState reports a state snapshot that cannot belong to the stage
// restoring it.
var ErrBadState = errors.New("stream: bad state")

// ClampAlpha restricts raw regression slopes to the meaningful Hölder
// range [0, 2]; estimates outside it are artefacts of degenerate windows.
func ClampAlpha(a float64) float64 {
	if math.IsNaN(a) {
		return 1
	}
	if a < 0 {
		return 0
	}
	if a > 2 {
		return 2
	}
	return a
}

// FitAlpha converts log-oscillation/log-radius points into a clamped
// Hölder estimate.
func FitAlpha(logR, logO []float64) float64 {
	fit, err := stats.OLS(logR, logO)
	if err != nil {
		return 1
	}
	return ClampAlpha(fit.Slope)
}
