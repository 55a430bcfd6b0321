package stream

import (
	"fmt"
	"math"
)

// VolatilityWindow is the second pipeline stage: it consumes the Hölder
// trajectory one estimate per Push and emits the moving standard
// deviation over the last W estimates — the paper's Hölder volatility.
// It keeps a W-slot ring of raw values plus running first and second
// moments, so Push is O(1) with zero allocations.
//
// The floating-point update order (add the new value, then subtract the
// one leaving the window) is load-bearing: it matches the historical
// monitor implementation bit for bit, which the cross-implementation
// parity and snapshot-compatibility tests rely on.
type VolatilityWindow struct {
	w          int
	ring       []float64 // last w pushes; slot count%w
	count      int       // total values pushed
	sum, sumSq float64
	// slot == count % w, maintained incrementally so the hot path has no
	// integer division. Derived state, reconstructed on restore.
	slot int
	// The standard deviation is a pure function of (sum, sumSq); caching
	// the last result skips the sqrt on runs of unchanged moments — the
	// steady case for memoized Hölder trajectories. Identical inputs
	// replay identical bits, so the memo never alters what Push returns.
	memoSum, memoSumSq, memoVol float64
	memoOK                      bool
}

// NewVolatilityWindow creates a window over w >= 2 values.
func NewVolatilityWindow(w int) (*VolatilityWindow, error) {
	if w < 2 {
		return nil, fmt.Errorf("volatility window %d: %w", w, ErrBadConfig)
	}
	return &VolatilityWindow{w: w, ring: make([]float64, w)}, nil
}

// Window returns the configured window length.
func (v *VolatilityWindow) Window() int { return v.w }

// Count returns how many values have been pushed.
func (v *VolatilityWindow) Count() int { return v.count }

// Push consumes one value. It returns the moving standard deviation and
// true once the window is full (from the w-th push onward).
func (v *VolatilityWindow) Push(x float64) (float64, bool) {
	slot := v.slot
	old := v.ring[slot] // the value leaving the window, w pushes ago
	v.ring[slot] = x
	slot++
	if slot == v.w {
		slot = 0
	}
	v.slot = slot
	v.count++
	v.sum += x
	v.sumSq += x * x
	if v.count > v.w {
		v.sum -= old
		v.sumSq -= old * old
	}
	if v.count < v.w {
		return 0, false
	}
	if v.memoOK && v.sum == v.memoSum && v.sumSq == v.memoSumSq {
		return v.memoVol, true
	}
	vol := v.std()
	v.memoSum, v.memoSumSq, v.memoVol, v.memoOK = v.sum, v.sumSq, vol, true
	return vol, true
}

// Value returns the moving standard deviation of the current window —
// what the last Push returned — recomputed from the running moments, and
// false until the window has filled. A restored window reports its
// volatility this way without a value history.
func (v *VolatilityWindow) Value() (float64, bool) {
	if v.count < v.w {
		return 0, false
	}
	return v.std(), true
}

// std is the standard deviation of the window from its running moments.
func (v *VolatilityWindow) std() float64 {
	fw := float64(v.w)
	mean := v.sum / fw
	va := v.sumSq/fw - mean*mean
	if va < 0 {
		va = 0
	}
	return math.Sqrt(va)
}

// VolatilityWindowState is the persistable state of the stage.
type VolatilityWindowState struct {
	W          int
	Ring       []float64
	Count      int
	Sum, SumSq float64
}

// State snapshots the stage.
func (v *VolatilityWindow) State() VolatilityWindowState {
	return VolatilityWindowState{
		W:     v.w,
		Ring:  append([]float64(nil), v.ring...),
		Count: v.count,
		Sum:   v.sum,
		SumSq: v.sumSq,
	}
}

// RestoreVolatilityWindow rebuilds a window from a snapshot. The running
// sums are restored verbatim (not recomputed) to preserve bit-exact
// continuation.
func RestoreVolatilityWindow(st VolatilityWindowState) (*VolatilityWindow, error) {
	v, err := NewVolatilityWindow(st.W)
	if err != nil {
		return nil, err
	}
	if len(st.Ring) != st.W || st.Count < 0 {
		return nil, fmt.Errorf("volatility window: ring %d != w %d: %w", len(st.Ring), st.W, ErrBadState)
	}
	copy(v.ring, st.Ring)
	v.count = st.Count
	v.sum = st.Sum
	v.sumSq = st.SumSq
	v.slot = st.Count % st.W
	return v, nil
}

// RebuildVolatilityRing reconstructs the ring layout from the tail of the
// value history: tail's last element is the most recent push. It is used
// to restore monitor snapshots, which persist the running sums and such a
// tail (the window's values, or in older snapshots a longer history) but
// no ring. The returned slice has length w.
func RebuildVolatilityRing(w, count int, tail []float64) ([]float64, error) {
	if w < 2 || count < 0 {
		return nil, ErrBadState
	}
	k := count
	if k > w {
		k = w
	}
	if len(tail) < k {
		return nil, fmt.Errorf("volatility window: need %d history values, have %d: %w", k, len(tail), ErrBadState)
	}
	ring := make([]float64, w)
	for i := 0; i < k; i++ {
		abs := count - k + i // absolute push index of this tail element
		ring[abs%w] = tail[len(tail)-k+i]
	}
	return ring, nil
}
