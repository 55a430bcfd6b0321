package stream

import (
	"fmt"
	"math"
	"slices"
)

// OscillationEstimator is the first pipeline stage: it consumes raw
// counter samples and emits the pointwise Hölder exponent of the stream,
// estimated by regressing log window oscillation on log radius over a
// ladder of window radii. The estimate at center t needs samples up to
// t+maxR, so output lags input by Lag() = max(radii) samples.
//
// Its only per-sample state is the raw tail: the last 2*maxR+1 samples,
// the top rung's window around the newest center. Push and short
// batches read each new center's oscillation for every rung from that
// window in one outward scan (alphaRaw); PushColumns runs longer batches
// through the doubling-ladder kernel (ladder.go). Both regress through a
// memo keyed on the exact oscillation vector, so steady-state pushes
// allocate nothing and pay math.Log only for rungs whose oscillation
// changed. The per-radius sliding-extrema trackers of the persisted
// state are a view State derives from the tail (trackerView); a restored
// estimator, whose tail starts empty, advances the restored trackers
// until the tail holds a whole window again and then drops them.
type OscillationEstimator struct {
	radii []int
	logR  []float64
	maxR  int
	seen  int // total samples consumed (indices are absolute)

	// trk holds a restored estimator's trackers until its raw tail has
	// refilled (see refill); nil on every other estimator.
	trk []*slidingExtrema

	// The batch kernel's rung chain (see ladderPlan): colOf maps each
	// ladder position to its oscillation column, colLead each column to
	// the first ladder position with that radius. scan lists the ladder
	// positions by ascending radius, the order alphaRaw widens its window.
	plan           []ladderRung
	colOf, colLead []int
	scan           []int

	// The regressor x-axis (log radii) is fixed for the life of the
	// stage, so its mean and centered sum of squares are computed once;
	// each estimate then only accumulates the cross term. The
	// per-iteration arithmetic matches stats.OLS exactly, so estimates are
	// bit-identical to the full regression (persisted pre-refactor states
	// depend on it).
	logRMean, sxx float64

	// Memo of the last oscillation vector regressed. The estimate is a
	// pure function of the per-rung oscillations, and window extrema
	// persist across many consecutive centers on real counter streams,
	// so every path caches the logarithms per rung and the final slope
	// for the whole vector, keyed on exact float64 equality. A cache hit
	// replays bit-identical results by construction; the memo is not
	// persisted state and never alters an estimate.
	memoOsc   []float64
	memoLog   []float64
	memoAlpha float64
	memoOK    bool

	// rawTail retains at least the most recent tailCap = 2*maxR+1 raw
	// samples (all of them while fewer have arrived). Derived state: it
	// is never persisted, so a restored estimator runs on its trackers
	// until the tail has refilled.
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
	e := &OscillationEstimator{}
	for _, r := range radii {
		if r < 1 {
			return nil, fmt.Errorf("oscillation estimator: radius %d: %w", r, ErrBadConfig)
		}
		if r > e.maxR {
			e.maxR = r
		}
		e.radii = append(e.radii, r)
		e.logR = append(e.logR, math.Log(float64(r)))
		e.scan = append(e.scan, len(e.scan))
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
	slices.SortStableFunc(e.scan, func(i, j int) int { return e.radii[i] - e.radii[j] })
	e.memoOsc = make([]float64, len(e.radii))
	e.memoLog = make([]float64, len(e.radii))
	for i := range e.memoOsc {
		e.memoOsc[i] = -1 // oscillations are >= 0, so no vector matches yet
	}
	e.tailCap = 2*e.maxR + 1
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
	if e.trk != nil {
		var one [1]float64
		if _, out := e.refill([]float64{x}, one[:0]); len(out) > 0 {
			return out[0], true
		}
		return 0, false
	}
	e.seen++
	e.appendTail([]float64{x})
	// The centered estimate at index t requires samples up to t+maxR, so
	// when sample n-1 arrives we can evaluate t = n-1-maxR.
	if e.seen-1-e.maxR < e.maxR {
		return 0, false
	}
	return e.alphaRaw(), true
}

// PushColumns consumes a whole column of raw samples and appends the
// Hölder estimates it completes to out, returning the extended slice.
// It is the batch-first form of Push — the estimates and the state after
// PushColumns(xs) are bit-identical to len(xs) calls of Push (asserted
// by the parity tests). A batch longer than 2*maxR samples runs the
// doubling-ladder kernel (pushLadder); shorter ones go sample by sample
// through Push's raw scan. A restored estimator first spends the batch
// refilling its tail (refill).
func (e *OscillationEstimator) PushColumns(xs []float64, out []float64) []float64 {
	if e.trk != nil {
		xs, out = e.refill(xs, out)
	}
	if len(xs) > 2*e.maxR {
		return e.pushLadder(xs, out)
	}
	for _, x := range xs {
		if a, ok := e.Push(x); ok {
			out = append(out, a)
		}
	}
	return out
}

// refill advances a restored estimator's trackers (pushRange) over the
// head of xs until the raw tail holds a whole top-rung window, emitting
// through the memo center by center, and then drops the trackers: from
// there on the tail holds every sample they summarise. It returns the
// samples it left unconsumed and the extended out.
func (e *OscillationEstimator) refill(xs, out []float64) ([]float64, []float64) {
	head := xs[:min(len(xs), e.tailCap-len(e.rawTail))]
	idx0 := e.seen
	for _, tr := range e.trk {
		tr.pushRange(idx0, head)
	}
	e.appendTail(head)
	e.seen += len(head)
	// Same emission rule as Push: sample n-1 completes center n-1-maxR,
	// which is evaluated once it is >= maxR.
	tStart, tEnd := max(idx0-e.maxR, e.maxR), e.seen-1-e.maxR
	for t := tStart; t <= tEnd; t++ {
		out = append(out, e.alphaMemo(t))
	}
	if tEnd >= tStart {
		// Oscillations at centers <= tEnd are never read again.
		for _, tr := range e.trk {
			tr.trim(tEnd + 1)
		}
	}
	if len(e.rawTail) >= e.tailCap {
		e.trk = nil
	}
	return xs[len(head):], out
}

// alphaRaw is the estimate for the newest center, seen-1-maxR, read from
// the top-rung window at the end of the raw tail. One outward scan
// widens the window extrema from each rung to the next in ascending
// radius order, so every sample is read once whatever the ladder's
// shape. Which of two equal samples an extremum takes cannot change an
// estimate: equal values differ at most in the sign of a zero, the
// difference of two zeros is a zero either way, and a zero oscillation
// regresses to 1 whatever its sign. Each oscillation is checked against
// the memo, and only a changed vector pays for logarithms and the
// regression.
func (e *OscillationEstimator) alphaRaw() float64 {
	win := e.rawTail[len(e.rawTail)-e.tailCap:]
	c := e.maxR
	older, newer := win[:c], win[c+1:]
	mx, mn := win[c], win[c]
	d := 0 // radius the extrema cover so far
	same := e.memoOK
	for _, i := range e.scan {
		if r := e.radii[i]; r > d {
			for _, v := range newer[d:r] {
				if v > mx {
					mx = v
				}
				if v < mn {
					mn = v
				}
			}
			for _, v := range older[c-r : c-d] {
				if v > mx {
					mx = v
				}
				if v < mn {
					mn = v
				}
			}
			d = r
		}
		if osc := mx - mn; osc != e.memoOsc[i] {
			same = false
			e.memoSet(i, osc)
		}
	}
	if same {
		return e.memoAlpha
	}
	return e.memoSlope()
}

// memoSet stores a changed oscillation for ladder position i in the
// memo, with its logarithm when it is positive (a zero oscillation
// regresses to 1 without one).
func (e *OscillationEstimator) memoSet(i int, osc float64) {
	e.memoOsc[i] = osc
	if osc > 0 {
		e.memoLog[i] = math.Log(osc)
	}
}

// memoSlope recomputes the regression slope from the memoized
// oscillation vector and re-arms the memo. Shared tail of alphaRaw,
// alphaMemo and emitColumns.
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
// backing array holds twice the cap). A batch of tailCap or more has
// read its history already (pushLadder), so only its own last tailCap
// samples stay.
func (e *OscillationEstimator) appendTail(xs []float64) {
	if len(xs) >= e.tailCap {
		e.rawTail = append(e.rawTail[:0], xs[len(xs)-e.tailCap:]...)
		return
	}
	if len(e.rawTail)+len(xs) > cap(e.rawTail) {
		n := copy(e.rawTail, e.rawTail[len(e.rawTail)-e.tailCap:])
		e.rawTail = e.rawTail[:n]
	}
	e.rawTail = append(e.rawTail, xs...)
}

// alphaMemo is the estimate at center t from the restored trackers'
// pending oscillations, through the same memo as alphaRaw.
func (e *OscillationEstimator) alphaMemo(t int) float64 {
	same := e.memoOK
	for i, tr := range e.trk {
		if osc := tr.at(t); osc != e.memoOsc[i] {
			same = false
			e.memoSet(i, osc)
		}
	}
	if same {
		return e.memoAlpha
	}
	return e.memoSlope()
}

// OscillationEstimatorState is the persistable state of the stage.
type OscillationEstimatorState struct {
	Radii    []int
	Seen     int
	Trackers []ExtremaState
}

// State snapshots the stage. A restored estimator still refilling its
// tail saves its trackers; every other one derives them from the tail.
func (e *OscillationEstimator) State() OscillationEstimatorState {
	st := OscillationEstimatorState{
		Radii: append([]int(nil), e.radii...),
		Seen:  e.seen,
	}
	if e.trk == nil {
		st.Trackers = e.trackerView()
		return st
	}
	for _, tr := range e.trk {
		st.Trackers = append(st.Trackers, tr.state())
	}
	return st
}

// RestoreOscillationEstimator rebuilds an estimator from a snapshot. It
// resumes on the snapshot's trackers until its raw tail refills.
func RestoreOscillationEstimator(st OscillationEstimatorState) (*OscillationEstimator, error) {
	e, err := NewOscillationEstimator(st.Radii)
	if err != nil {
		return nil, err
	}
	if len(st.Trackers) != len(e.radii) || st.Seen < 0 {
		return nil, fmt.Errorf("oscillation estimator: %d tracker states for ladder %v: %w",
			len(st.Trackers), st.Radii, ErrBadState)
	}
	e.trk = make([]*slidingExtrema, len(st.Trackers))
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
