package stream

import "slices"

// idxVal is one deque entry of the sliding-extrema tracker.
type idxVal struct {
	idx int
	v   float64
}

// deque is a fixed-capacity ring double-ended queue of idxVal. A
// monotonic deque over a window of w samples never holds more than w
// entries, so the backing array is allocated once, at the tracker's
// restore, and reused while pushRange advances it.
type deque struct {
	buf  []idxVal
	head int // index of the front element
	n    int // number of elements
}

func newDeque(capacity int) deque {
	return deque{buf: make([]idxVal, capacity)}
}

func (d *deque) pushBack(e idxVal) {
	i := d.head + d.n
	if i >= len(d.buf) {
		i -= len(d.buf)
	}
	d.buf[i] = e
	d.n++
}

// slidingExtrema is one radius's tracker of the persisted estimator
// state: the monotonic ring deques over the latest window (the strict
// suffix maxima and minima, newest of equal values kept) and the
// oscillations of the centers not yet emitted, osc[k] for center
// oscBase+k. The oscillation for center c becomes available once sample
// c+r has been consumed. The estimator keeps no trackers while it runs:
// State derives them from the raw tail (trackerView). A restored
// estimator advances its restored trackers with pushRange until its tail
// has refilled, and the tests keep them as the reference the raw
// kernels must match.
type slidingExtrema struct {
	r, w int
	maxD deque // values decreasing
	minD deque // values increasing
	osc  []float64
	// oscBase is the center index of osc[0].
	oscBase int
}

func newSlidingExtrema(r int) *slidingExtrema {
	w := 2*r + 1
	// Capacity w+1: pushRange appends the new entry before evicting the
	// one that just left the window, so the deque transiently holds w+1.
	return &slidingExtrema{
		r:       r,
		w:       w,
		maxD:    newDeque(w + 1),
		minD:    newDeque(w + 1),
		oscBase: r,
	}
}

// at returns the oscillation for center t (t >= r, t+r consumed, and t
// not trimmed away).
func (s *slidingExtrema) at(t int) float64 {
	return s.osc[t-s.oscBase]
}

// pushRange consumes samples xs[0..] at consecutive indices starting at
// idx0 (the first call's idx0 is the tracker's next index). For each
// sample it pops the back entries the sample dominates (<= for the
// maxima, >= for the minima, so the newest of equals stays), appends
// it, evicts the front entries that left the window, and records the
// oscillation of the window the sample completes, if any. The deque
// cursors live in locals for the whole run, so the loop compiles to
// straight-line ring arithmetic; any split of a stream into calls leaves
// the same state (asserted by TestPushRangeParity).
func (s *slidingExtrema) pushRange(idx0 int, xs []float64) {
	maxBuf, minBuf := s.maxD.buf, s.minD.buf
	mh, mn := s.maxD.head, s.maxD.n
	nh, nn := s.minD.head, s.minD.n
	ringCap := len(maxBuf) // == len(minBuf) == w+1
	osc := s.osc
	w := s.w
	for i, x := range xs {
		idx := idx0 + i
		for mn > 0 {
			bi := mh + mn - 1
			if bi >= ringCap {
				bi -= ringCap
			}
			if maxBuf[bi].v > x {
				break
			}
			mn--
		}
		bi := mh + mn
		if bi >= ringCap {
			bi -= ringCap
		}
		maxBuf[bi] = idxVal{idx: idx, v: x}
		mn++
		for nn > 0 {
			bj := nh + nn - 1
			if bj >= ringCap {
				bj -= ringCap
			}
			if minBuf[bj].v < x {
				break
			}
			nn--
		}
		bj := nh + nn
		if bj >= ringCap {
			bj -= ringCap
		}
		minBuf[bj] = idxVal{idx: idx, v: x}
		nn++
		lo := idx - w + 1
		for maxBuf[mh].idx < lo {
			mh++
			if mh >= ringCap {
				mh = 0
			}
			mn--
		}
		for minBuf[nh].idx < lo {
			nh++
			if nh >= ringCap {
				nh = 0
			}
			nn--
		}
		if idx >= w-1 {
			osc = append(osc, maxBuf[mh].v-minBuf[nh].v)
		}
	}
	s.maxD.head, s.maxD.n = mh, mn
	s.minD.head, s.minD.n = nh, nn
	s.osc = osc
}

// trim discards oscillations for centers below minCenter, bounding the
// tracker's memory. The copy-down reuses the slice's capacity.
func (s *slidingExtrema) trim(minCenter int) {
	drop := minCenter - s.oscBase
	if drop <= 0 {
		return
	}
	if drop > len(s.osc) {
		drop = len(s.osc)
	}
	s.osc = append(s.osc[:0], s.osc[drop:]...)
	s.oscBase += drop
}

// ExtremaState is the persistable state of one radius tracker. The field
// layout matches the pre-stream `aging` tracker snapshot so legacy gob
// blobs map onto it directly.
type ExtremaState struct {
	R       int
	MaxIdx  []int
	MaxVal  []float64
	MinIdx  []int
	MinVal  []float64
	Osc     []float64
	OscBase int
}

// state snapshots the tracker.
func (s *slidingExtrema) state() ExtremaState {
	st := ExtremaState{
		R:       s.r,
		Osc:     append([]float64(nil), s.osc...),
		OscBase: s.oscBase,
	}
	for i := 0; i < s.maxD.n; i++ {
		e := s.maxD.buf[(s.maxD.head+i)%len(s.maxD.buf)]
		st.MaxIdx = append(st.MaxIdx, e.idx)
		st.MaxVal = append(st.MaxVal, e.v)
	}
	for i := 0; i < s.minD.n; i++ {
		e := s.minD.buf[(s.minD.head+i)%len(s.minD.buf)]
		st.MinIdx = append(st.MinIdx, e.idx)
		st.MinVal = append(st.MinVal, e.v)
	}
	return st
}

// restoreExtrema rebuilds a tracker from a snapshot.
func restoreExtrema(st ExtremaState) (*slidingExtrema, error) {
	if st.R < 1 || len(st.MaxIdx) != len(st.MaxVal) || len(st.MinIdx) != len(st.MinVal) {
		return nil, ErrBadState
	}
	s := newSlidingExtrema(st.R)
	if len(st.MaxIdx) > s.w || len(st.MinIdx) > s.w {
		return nil, ErrBadState
	}
	for i := range st.MaxIdx {
		s.maxD.pushBack(idxVal{idx: st.MaxIdx[i], v: st.MaxVal[i]})
	}
	for i := range st.MinIdx {
		s.minD.pushBack(idxVal{idx: st.MinIdx[i], v: st.MinVal[i]})
	}
	s.osc = append(s.osc, st.Osc...)
	s.oscBase = st.OscBase
	return s, nil
}

// trackerView derives the estimator's trackers from its raw tail: for
// each ladder radius, the state pushRange and trim would leave after
// the samples consumed so far. The deques are dequeView's. The pending
// oscillations are those of centers (t, seen-1-r] once center t =
// seen-1-maxR has been emitted, with OscBase t+1, or of [r, seen-1-r]
// before the first emission, with OscBase r. They are read off the
// batch kernel's rung chain, built once over the tail, so the view costs
// linear time per rung and its values (ties to the newest sample) are
// bit-identical to the trackers'.
func (e *OscillationEstimator) trackerView() []ExtremaState {
	raw := e.rawTail[max(len(e.rawTail)-e.tailCap, 0):]
	a0 := e.seen - len(raw) // absolute index of raw[0]
	emitted := e.seen-1-e.maxR >= e.maxR
	sts := make([]ExtremaState, len(e.radii))
	for i, r := range e.radii {
		sts[i] = dequeView(raw, a0, r)
		sts[i].OscBase = r
		if emitted {
			sts[i].OscBase = e.seen - e.maxR
		}
	}
	sc := ladderPool.Get().(*ladderScratch)
	wmax, wmin := grown(sc.wmax, len(raw)), grown(sc.wmin, len(raw))
	sc.wmax, sc.wmin = wmax, wmin
	for _, g := range e.plan {
		// Window j of this rung covers raw[j..j+2r], center a0+j+r.
		n := len(raw) - 2*g.r
		if n <= 0 {
			break // too few samples for this rung and those above it
		}
		if g.step == 0 {
			baseExtrema(raw[:n+2], wmax[:n], wmin[:n])
		} else {
			stepExtrema(wmax[:n], wmin[:n], wmax[g.step:], wmin[g.step:])
		}
		if g.col < 0 {
			continue
		}
		var osc []float64
		for j := sts[e.colLead[g.col]].OscBase - g.r - a0; j < n; j++ {
			osc = append(osc, wmax[j]-wmin[j])
		}
		for i, c := range e.colOf {
			if c == g.col {
				sts[i].Osc = slices.Clone(osc)
			}
		}
	}
	ladderPool.Put(sc)
	return sts
}

// dequeView is the ExtremaState of radius r's deques after the samples
// raw (raw[0] at absolute index a0; the last is the newest sample): the
// strict suffix maxima and minima of the window of 2r+1 samples ending
// there, clamped at index 0 for a young stream, oldest first. Scanning
// newest to oldest and keeping strict improvements leaves the newest of
// equal values, exactly the chains pushRange's back-pops leave. Osc and
// OscBase are left to the caller.
func dequeView(raw []float64, a0, r int) ExtremaState {
	st := ExtremaState{R: r}
	end := a0 + len(raw) - 1
	var curMax, curMin float64
	for j := end; j >= max(end-2*r, 0); j-- {
		v := raw[j-a0]
		if len(st.MaxIdx) == 0 || v > curMax {
			st.MaxIdx, st.MaxVal = append(st.MaxIdx, j), append(st.MaxVal, v)
			curMax = v
		}
		if len(st.MinIdx) == 0 || v < curMin {
			st.MinIdx, st.MinVal = append(st.MinIdx, j), append(st.MinVal, v)
			curMin = v
		}
	}
	slices.Reverse(st.MaxIdx)
	slices.Reverse(st.MaxVal)
	slices.Reverse(st.MinIdx)
	slices.Reverse(st.MinVal)
	return st
}
