package stream

import "math"

// idxVal is one deque entry of the sliding-extrema tracker.
type idxVal struct {
	idx int
	v   float64
}

// deque is a fixed-capacity ring double-ended queue of idxVal. A
// monotonic deque over a window of w samples never holds more than w
// entries, so the backing array is allocated once and reused forever —
// unlike slicing (`d = d[1:]`), which leaks front capacity and forces
// amortized reallocations on the hot path.
type deque struct {
	buf  []idxVal
	head int // index of the front element
	n    int // number of elements
}

func newDeque(capacity int) deque {
	return deque{buf: make([]idxVal, capacity)}
}

func (d *deque) front() idxVal { return d.buf[d.head] }

func (d *deque) back() idxVal {
	i := d.head + d.n - 1
	if i >= len(d.buf) {
		i -= len(d.buf)
	}
	return d.buf[i]
}

func (d *deque) pushBack(e idxVal) {
	i := d.head + d.n
	if i >= len(d.buf) {
		i -= len(d.buf)
	}
	d.buf[i] = e
	d.n++
}

func (d *deque) popBack() { d.n-- }

func (d *deque) popFront() {
	d.head++
	if d.head >= len(d.buf) {
		d.head = 0
	}
	d.n--
}

// slidingExtrema is the per-radius state of the oscillation estimator:
// the monotonic ring deques over the latest window of one radius (the
// strict suffix maxima and minima, amortized O(1) per sample and zero
// steady-state allocations) and the oscillations of the centers not yet
// emitted. The oscillation for center c becomes available once sample
// c+r has been consumed. Entries are self-contained (index + value), so
// per-sample pushes need no raw history and memory stays bounded via
// trim. The batch kernel (pushLadder) computes oscillations without the
// deques and rebuilds them afterwards (rebuild), so both paths leave the
// same state.
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
	// Capacity w+1: push appends the new entry before evicting the one
	// that just left the window, so the deque transiently holds w+1.
	return &slidingExtrema{
		r:       r,
		w:       w,
		maxD:    newDeque(w + 1),
		minD:    newDeque(w + 1),
		oscBase: r,
	}
}

// push consumes sample (idx, x); idx must increase by one per call. It
// records the oscillation of the newly completed window, if any.
func (s *slidingExtrema) push(idx int, x float64) {
	for s.maxD.n > 0 && s.maxD.back().v <= x {
		s.maxD.popBack()
	}
	s.maxD.pushBack(idxVal{idx: idx, v: x})
	for s.minD.n > 0 && s.minD.back().v >= x {
		s.minD.popBack()
	}
	s.minD.pushBack(idxVal{idx: idx, v: x})
	// Evict entries that fell out of the window ending at idx.
	lo := idx - s.w + 1
	for s.maxD.front().idx < lo {
		s.maxD.popFront()
	}
	for s.minD.front().idx < lo {
		s.minD.popFront()
	}
	if idx >= s.w-1 {
		// Window [idx-w+1, idx] is complete; center idx-r.
		s.osc = append(s.osc, s.maxD.front().v-s.minD.front().v)
	}
}

// at returns the oscillation for center t (t >= r, t+r consumed, and t
// not trimmed away).
func (s *slidingExtrema) at(t int) float64 {
	return s.osc[t-s.oscBase]
}

// pushRange consumes samples xs[0..] at consecutive indices starting at
// idx0. It is the batch form of push: the deque cursors live in locals
// for the whole run, so the per-sample loop compiles to straight-line
// ring arithmetic with no method-call layering. The pops, evictions and
// oscillation appends happen in exactly the order repeated push would
// perform them, so the tracker state after pushRange is identical
// (asserted by TestPushRangeParity).
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

// rebuild resets the deques to the window ending at absolute index end,
// read from the raw view a (a[0] is absolute index a0): scanning newest
// to oldest and keeping strict improvements leaves the newest of equal
// values, exactly the chains repeated push's `<=`/`>=` back-pops leave.
func (s *slidingExtrema) rebuild(a []float64, a0, end int) {
	mb, nb := s.maxD.buf, s.minD.buf
	mp, np := len(mb), len(nb)
	curMax, curMin := math.Inf(-1), math.Inf(1)
	for j := end; j > end-s.w; j-- {
		v := a[j-a0]
		if v > curMax {
			mp--
			mb[mp] = idxVal{idx: j, v: v}
			curMax = v
		}
		if v < curMin {
			np--
			nb[np] = idxVal{idx: j, v: v}
			curMin = v
		}
	}
	s.maxD.head, s.maxD.n = mp, len(mb)-mp
	s.minD.head, s.minD.n = np, len(nb)-np
}

// trim discards oscillations for centers below minCenter, bounding the
// tracker's memory. The copy-down reuses the slice's capacity, so after
// the first few trims push/trim cycles allocate nothing.
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
