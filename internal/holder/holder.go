// Package holder estimates the local (pointwise) Hölder exponent of a time
// series — the core analytic primitive of the DSN 2003 paper. A signal x
// has Hölder exponent alpha at t when its oscillation in a window of radius
// r around t scales like r^alpha: small alpha means locally rough/bursty,
// alpha near 1 means locally smooth.
//
// Two estimators are provided:
//
//   - Oscillation method: regress log(oscillation) against log(radius) over
//     a dyadic ladder of window radii around each point. Simple, local and
//     robust; this matches the construction used in the software-aging
//     literature.
//   - Wavelet-leader method: regress log2 of the wavelet leaders above a
//     point against the dyadic scale. Better behaved for signals with
//     superimposed smooth trends (the db4 wavelet kills linear drift).
package holder

import (
	"errors"
	"fmt"
	"math"
	"time"

	"agingmf/internal/dsp"
	"agingmf/internal/series"
	"agingmf/internal/stats"
	"agingmf/internal/stream"
)

// Errors returned by the estimators.
var (
	// ErrTooShort means the series cannot support the requested radii.
	ErrTooShort = errors.New("holder: series too short")
	// ErrBadConfig means an invalid estimator configuration.
	ErrBadConfig = errors.New("holder: bad configuration")
)

// Config parameterizes the oscillation estimator.
type Config struct {
	// MinRadius is the smallest window radius in samples (>= 1).
	MinRadius int
	// MaxRadius is the largest window radius in samples; it must exceed
	// MinRadius and fit inside the series.
	MaxRadius int
	// Stride evaluates the exponent every Stride samples (1 = every point).
	Stride int
}

// DefaultConfig returns the estimator configuration used throughout the
// experiments: dyadic radii 2..32, evaluated at every sample.
func DefaultConfig() Config {
	return Config{MinRadius: 2, MaxRadius: 32, Stride: 1}
}

func (c Config) validate(n int) error {
	if c.MinRadius < 1 {
		return fmt.Errorf("min radius %d: %w", c.MinRadius, ErrBadConfig)
	}
	if c.MaxRadius <= c.MinRadius {
		return fmt.Errorf("max radius %d <= min radius %d: %w", c.MaxRadius, c.MinRadius, ErrBadConfig)
	}
	if c.Stride < 1 {
		return fmt.Errorf("stride %d: %w", c.Stride, ErrBadConfig)
	}
	if n < 2*c.MaxRadius+1 {
		return fmt.Errorf("series of %d samples with max radius %d: %w", n, c.MaxRadius, ErrTooShort)
	}
	return nil
}

// radii returns the dyadic ladder of radii for the configuration.
func (c Config) radii() []int {
	var out []int
	for r := c.MinRadius; r <= c.MaxRadius; r *= 2 {
		out = append(out, r)
	}
	if len(out) < 3 {
		// Ensure at least three points for the regression by inserting
		// intermediate radii.
		out = out[:0]
		step := float64(c.MaxRadius-c.MinRadius) / 2
		for i := 0; i < 3; i++ {
			out = append(out, c.MinRadius+int(math.Round(step*float64(i))))
		}
	}
	return out
}

// oscillationChunk is how many samples Oscillation hands the estimator
// per PushColumns call: long enough that the batch kernel runs, short
// enough that its scratch stays small whatever the series length.
const oscillationChunk = 4096

// Oscillation estimates the Hölder trajectory of s with the oscillation
// method, by streaming the series through the same
// stream.OscillationEstimator kernel the online aging monitor runs, so
// offline trajectories and online detection agree by construction. The
// output series is aligned with the input (same Start/Step, shifted by
// MaxRadius at both ends) and holds one exponent per evaluated point.
// Runs in O(n * #radii) on the estimator's batch kernel.
func Oscillation(s series.Series, cfg Config) (series.Series, error) {
	n := s.Len()
	if err := cfg.validate(n); err != nil {
		return series.Series{}, fmt.Errorf("oscillation %q: %w", s.Name, err)
	}
	if !s.IsFinite() {
		return series.Series{}, fmt.Errorf("oscillation %q: non-finite sample (NaN or Inf)", s.Name)
	}
	est, err := stream.NewOscillationEstimator(cfg.radii())
	if err != nil {
		return series.Series{}, fmt.Errorf("oscillation %q: %w", s.Name, err)
	}
	lo, hi := cfg.MaxRadius, n-cfg.MaxRadius
	out := series.Series{
		Name:   s.Name + ".holder",
		Start:  s.TimeAt(lo),
		Step:   s.Step * time.Duration(cfg.Stride),
		Values: make([]float64, 0, (hi-lo+cfg.Stride-1)/cfg.Stride),
	}
	// The estimator emits consecutive centers, the last of a batch being
	// Seen()-1-Lag(); keep the interior centers the stride selects. (Lag
	// can be below MaxRadius when the dyadic ladder does not land on
	// MaxRadius exactly, hence the lower-bound check.)
	var alphas []float64
	for off := 0; off < n; off += oscillationChunk {
		alphas = est.PushColumns(s.Values[off:min(off+oscillationChunk, n)], alphas[:0])
		c0 := est.Seen() - est.Lag() - len(alphas)
		for i, alpha := range alphas {
			c := c0 + i
			if c < lo || c >= hi || (c-lo)%cfg.Stride != 0 {
				continue
			}
			out.Values = append(out.Values, alpha)
		}
	}
	return out, nil
}

// WaveletLeader estimates the Hölder trajectory using wavelet leaders of a
// db4 decomposition across levels..1 dyadic scales. The exponent at sample
// t is the slope of log2(leader) versus scale above t. levels <= 0 selects
// 5 scales (or as many as the length allows).
func WaveletLeader(s series.Series, levels int) (series.Series, error) {
	n := s.Len()
	if levels <= 0 {
		levels = 5
	}
	if n < 1<<uint(levels) || n < 16 {
		return series.Series{}, fmt.Errorf("wavelet leader %q: n=%d levels=%d: %w", s.Name, n, levels, ErrTooShort)
	}
	d, err := dsp.Decompose(s.Values, dsp.Daubechies4, levels)
	if err != nil {
		return series.Series{}, fmt.Errorf("wavelet leader %q: %w", s.Name, err)
	}
	leaders := d.Leaders()
	out := s.Clone()
	out.Name = s.Name + ".holder.wl"
	js := make([]float64, len(leaders))
	for j := range js {
		js[j] = float64(j + 1)
	}
	logL := make([]float64, len(leaders))
	for t := 0; t < n; t++ {
		usable := 0
		for j, lv := range leaders {
			pos := t >> uint(j+1)
			if pos >= len(lv.Detail) {
				break
			}
			l := lv.Detail[pos]
			if l <= 0 {
				break
			}
			logL[usable] = math.Log2(l)
			usable++
		}
		if usable < 3 {
			out.Values[t] = 1
			continue
		}
		fit, err := stats.OLS(js[:usable], logL[:usable])
		if err != nil {
			out.Values[t] = 1
			continue
		}
		// |d_{j}| ~ 2^{j(alpha+1/2)} for leaders of an alpha-Hölder point
		// (L1-normalized DWT uses alpha+1/2 with our orthonormal filters).
		out.Values[t] = stream.ClampAlpha(fit.Slope - 0.5)
	}
	return out, nil
}

// Mean of a trajectory restricted to the finite entries; convenience used
// by the experiments.
func MeanExponent(traj series.Series) float64 {
	sum, cnt := 0.0, 0
	for _, v := range traj.Values {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			sum += v
			cnt++
		}
	}
	if cnt == 0 {
		return math.NaN()
	}
	return sum / float64(cnt)
}
