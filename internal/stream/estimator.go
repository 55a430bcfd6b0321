package stream

import (
	"fmt"
	"math"
)

// OscillationEstimator is the first pipeline stage: it consumes raw
// counter samples and emits the pointwise Hölder exponent of the stream,
// estimated by regressing log window oscillation on log radius over a
// ladder of window radii. The estimate at center t needs samples up to
// t+maxR, so output lags input by Lag() = max(radii) samples.
//
// The stage owns one sliding-extrema tracker per radius — monotonic
// deques plus the oscillations of the centers not yet emitted — and a
// reusable regression scratch; consumed oscillations are trimmed
// eagerly, so steady-state Push allocates nothing and memory stays
// O(sum of radii) regardless of stream length. Push and short batches
// advance the deques sample by sample; PushColumns runs longer batches
// through the doubling-ladder kernel (ladder.go), which builds every
// rung's window extrema from the rung below and leaves the trackers in
// the same state.
type OscillationEstimator struct {
	radii []int
	logR  []float64
	maxR  int
	seen  int // total samples consumed (indices are absolute)
	trk   []*slidingExtrema

	// The batch kernel's rung chain (see ladderPlan): colOf maps each
	// ladder position to its oscillation column, colLead each column to
	// the first ladder position with that radius.
	plan           []ladderRung
	colOf, colLead []int

	// The regressor x-axis (log radii) is fixed for the life of the
	// stage, so its mean and centered sum of squares are computed once;
	// each Push then only accumulates the cross term. The per-iteration
	// arithmetic matches stats.OLS exactly, so estimates are bit-identical
	// to the full regression (persisted pre-refactor states depend on it).
	logRMean, sxx float64
	scratchO      []float64 // log-oscillation scratch, reused every Push

	// Memo of the last oscillation vector regressed by PushColumns.
	// alphaAt is a pure function of the per-rung oscillations, and window
	// extrema persist across many consecutive centers on real counter
	// streams, so the batch kernel caches the logarithms per rung and the
	// final slope for the whole vector, keyed on exact float64 equality.
	// A cache hit replays bit-identical results by construction; the memo
	// is not persisted state and never alters what alphaAt would return.
	memoOsc   []float64
	memoLog   []float64
	memoAlpha float64
	memoOK    bool

	// rawTail retains at least the most recent tailCap = 2*maxR raw
	// samples: the history the ladder kernel's first emitted center reads.
	// Derived state: it is never persisted, and after a restore
	// PushColumns falls back to the deques until the tail has refilled.
	rawTail []float64
	tailCap int
}

// NewOscillationEstimator creates an estimator over the given radius
// ladder. At least two radii are required for the regression to be
// defined; callers choose the ladder policy (the aging monitor insists
// on >= 3 dyadic rungs, the offline trajectory code allows a degenerate
// fallback ladder).
func NewOscillationEstimator(radii []int) (*OscillationEstimator, error) {
	if len(radii) < 2 {
		return nil, fmt.Errorf("oscillation estimator: ladder %v too short: %w", radii, ErrBadConfig)
	}
	e := &OscillationEstimator{
		scratchO: make([]float64, 0, len(radii)),
	}
	for _, r := range radii {
		if r < 1 {
			return nil, fmt.Errorf("oscillation estimator: radius %d: %w", r, ErrBadConfig)
		}
		if r > e.maxR {
			e.maxR = r
		}
		e.radii = append(e.radii, r)
		e.logR = append(e.logR, math.Log(float64(r)))
		e.trk = append(e.trk, newSlidingExtrema(r))
	}
	sum := 0.0
	for _, lr := range e.logR {
		sum += lr
	}
	e.logRMean = sum / float64(len(e.logR))
	for _, lr := range e.logR {
		dx := lr - e.logRMean
		e.sxx += dx * dx
	}
	e.plan, e.colOf, e.colLead = ladderPlan(e.radii)
	e.memoOsc = make([]float64, len(e.radii))
	e.memoLog = make([]float64, len(e.radii))
	for i := range e.memoOsc {
		e.memoOsc[i] = -1 // oscillations are >= 0, so no vector matches yet
	}
	e.tailCap = 2 * e.maxR
	e.rawTail = make([]float64, 0, 2*e.tailCap)
	return e, nil
}

// Lag returns the structural delay, in raw samples, between a sample
// arriving and the Hölder estimate centered on it: the estimator needs
// max(radii) samples of future context.
func (e *OscillationEstimator) Lag() int { return e.maxR }

// Seen returns how many raw samples have been consumed.
func (e *OscillationEstimator) Seen() int { return e.seen }

// Push consumes one raw sample. Once enough context has accumulated it
// returns the Hölder estimate for center seen-1-Lag() and true; the
// first estimate (center Lag()) is emitted by the 2*Lag()+1-th sample.
func (e *OscillationEstimator) Push(x float64) (float64, bool) {
	idx := e.seen
	e.seen++
	e.appendTail([]float64{x})
	for _, tr := range e.trk {
		tr.push(idx, x)
	}
	// The centered estimate at index t requires samples up to t+maxR, so
	// when sample n-1 arrives we can evaluate t = n-1-maxR.
	t := e.seen - 1 - e.maxR
	if t < e.maxR {
		return 0, false
	}
	alpha := e.alphaAt(t)
	// Oscillations at centers <= t are never read again.
	for _, tr := range e.trk {
		tr.trim(t + 1)
	}
	return alpha, true
}

// PushColumns consumes a whole column of raw samples and appends the
// Hölder estimates it completes to out, returning the extended slice.
// It is the batch-first form of Push — the state after PushColumns(xs)
// is byte-identical to len(xs) calls of Push (asserted by the parity
// tests). A batch at least one top-rung window long (2*maxR+1 samples)
// whose raw history is retained runs the doubling-ladder kernel
// (pushLadder). Shorter batches, and the first batch after a restore,
// advance the deques rung-major (pushRange) and emit through the memo
// center by center; both paths trim once per batch, and memoize the
// regression on the exact oscillation vector, so runs of unchanged
// window extrema — common on quantized memory counters — skip the
// math.Log calls entirely.
func (e *OscillationEstimator) PushColumns(xs []float64, out []float64) []float64 {
	if len(xs) == 0 {
		return out
	}
	idx0 := e.seen
	// Same emission rule as Push: sample n-1 completes center t = n-1-maxR,
	// which is evaluated once t >= maxR.
	tEnd := idx0 + len(xs) - 1 - e.maxR
	tStart := max(idx0-e.maxR, e.maxR)
	if len(xs) > 2*e.maxR && idx0-len(e.rawTail) <= tStart-e.maxR {
		return e.pushLadder(xs, tStart, tEnd, out)
	}
	for _, tr := range e.trk {
		tr.pushRange(idx0, xs)
	}
	e.appendTail(xs)
	e.seen += len(xs)
	if tEnd < tStart {
		return out
	}
	for t := tStart; t <= tEnd; t++ {
		out = append(out, e.alphaMemo(t))
	}
	for _, tr := range e.trk {
		tr.trim(tEnd + 1)
	}
	return out
}

// memoSlope recomputes the regression slope from the memoized
// oscillation vector and re-arms the memo. Shared tail of alphaMemo and
// emitColumns.
func (e *OscillationEstimator) memoSlope() float64 {
	alpha := 1.0 // locally constant: maximally smooth
	ok := true
	for _, osc := range e.memoOsc {
		if osc <= 0 {
			ok = false
			break
		}
	}
	if ok {
		alpha = e.slope(e.memoLog)
	}
	e.memoAlpha = alpha
	e.memoOK = true
	return alpha
}

// slope regresses the log oscillations ys (one per ladder position, all
// from positive oscillations) on the log radii. Only the y mean and the
// cross term are data-dependent; the per-iteration arithmetic matches
// stats.OLS exactly, so every caller gets the full regression's bits.
func (e *OscillationEstimator) slope(ys []float64) float64 {
	if e.sxx == 0 {
		return 1 // degenerate ladder of identical radii
	}
	sum := 0.0
	for _, y := range ys {
		sum += y
	}
	my := sum / float64(len(ys))
	var sxy float64
	for i, y := range ys {
		sxy += (e.logR[i] - e.logRMean) * (y - my)
	}
	return ClampAlpha(sxy / e.sxx)
}

// appendTail appends xs to the raw-sample tail, keeping at least the
// last tailCap samples with amortized O(1) copy-down per sample (the
// backing array holds twice the cap).
func (e *OscillationEstimator) appendTail(xs []float64) {
	if len(e.rawTail)+len(xs) > cap(e.rawTail) {
		keep := min(max(e.tailCap-len(xs), 0), len(e.rawTail))
		n := copy(e.rawTail, e.rawTail[len(e.rawTail)-keep:])
		e.rawTail = e.rawTail[:n]
		if len(xs) > e.tailCap {
			xs = xs[len(xs)-e.tailCap:]
		}
	}
	e.rawTail = append(e.rawTail, xs...)
}

// alphaMemo is alphaAt with the pure-function memo described on the
// struct fields: identical oscillation vector in, identical bits out.
func (e *OscillationEstimator) alphaMemo(t int) float64 {
	same := e.memoOK
	for i, tr := range e.trk {
		osc := tr.at(t)
		if osc != e.memoOsc[i] {
			same = false
			e.memoOsc[i] = osc
			if osc > 0 {
				e.memoLog[i] = math.Log(osc)
			}
		}
	}
	if same {
		return e.memoAlpha
	}
	return e.memoSlope()
}

// alphaAt computes the oscillation Hölder exponent at raw index t from
// the incrementally maintained window extrema. It is FitAlpha with the
// x-axis statistics hoisted out (see slope).
func (e *OscillationEstimator) alphaAt(t int) float64 {
	logO := e.scratchO[:0]
	for _, tr := range e.trk {
		osc := tr.at(t)
		if osc <= 0 {
			return 1 // locally constant: maximally smooth
		}
		logO = append(logO, math.Log(osc))
	}
	return e.slope(logO)
}

// OscillationEstimatorState is the persistable state of the stage.
type OscillationEstimatorState struct {
	Radii    []int
	Seen     int
	Trackers []ExtremaState
}

// State snapshots the stage.
func (e *OscillationEstimator) State() OscillationEstimatorState {
	st := OscillationEstimatorState{
		Radii: append([]int(nil), e.radii...),
		Seen:  e.seen,
	}
	for _, tr := range e.trk {
		st.Trackers = append(st.Trackers, tr.state())
	}
	return st
}

// RestoreOscillationEstimator rebuilds an estimator from a snapshot.
func RestoreOscillationEstimator(st OscillationEstimatorState) (*OscillationEstimator, error) {
	e, err := NewOscillationEstimator(st.Radii)
	if err != nil {
		return nil, err
	}
	if len(st.Trackers) != len(e.trk) || st.Seen < 0 {
		return nil, fmt.Errorf("oscillation estimator: %d tracker states for ladder %v: %w",
			len(st.Trackers), st.Radii, ErrBadState)
	}
	for i, ts := range st.Trackers {
		if ts.R != e.radii[i] {
			return nil, fmt.Errorf("oscillation estimator: tracker %d radius %d != %d: %w",
				i, ts.R, e.radii[i], ErrBadState)
		}
		tr, err := restoreExtrema(ts)
		if err != nil {
			return nil, fmt.Errorf("oscillation estimator: tracker %d: %w", i, err)
		}
		e.trk[i] = tr
	}
	e.seen = st.Seen
	return e, nil
}
