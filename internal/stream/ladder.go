package stream

import (
	"slices"
	"sync"
)

// ladderRung is one step of the doubling ladder the batch kernel builds.
// Windows are indexed by their first sample: rung r holds, for each
// window start j, the extrema of raw[j..j+2r]. A rung is built from the
// rung below it (radius p) as
//
//	M_r(j) = max(M_p(j), M_p(j+step)),  step = 2(r-p),
//
// which covers [j, j+2p] ∪ [j+2r-2p, j+2r] = [j, j+2r] exactly whenever
// 2p >= r. In centered terms this is M_r(c) = max(M_p(c-(r-p)),
// M_p(c+(r-p))); for a dyadic ladder (r = 2p) it is the doubling
// recurrence M_2p(c) = max(M_p(c-p), M_p(c+p)).
type ladderRung struct {
	r    int
	step int // offset of the partner window in the rung below; 0 for the base rung
	col  int // oscillation column this rung fills, or -1 for an inserted rung
}

// ladderPlan turns a radius ladder (any order, repeats allowed) into the
// rung chain the kernel builds, starting from radius 1, which is taken
// directly from the raw samples. Every ladder radius gets a column, in
// ascending radius order; where the next radius is more than double the
// current rung, doubling rungs are inserted so every step satisfies
// 2p >= r and one kernel serves dyadic, odd-based and irregular ladders
// alike. colOf maps each ladder position to its column and colLead each
// column to the first ladder position with that radius.
func ladderPlan(radii []int) (plan []ladderRung, colOf, colLead []int) {
	uniq := slices.Clone(radii)
	slices.Sort(uniq)
	uniq = slices.Compact(uniq)
	plan = []ladderRung{{r: 1, col: -1}}
	for c, r := range uniq {
		if r == 1 {
			plan[0].col = c
			continue
		}
		p := plan[len(plan)-1].r
		for 2*p < r {
			plan = append(plan, ladderRung{r: 2 * p, step: 2 * p, col: -1})
			p *= 2
		}
		plan = append(plan, ladderRung{r: r, step: 2 * (r - p), col: c})
	}
	colOf = make([]int, len(radii))
	for i, r := range radii {
		colOf[i], _ = slices.BinarySearch(uniq, r)
	}
	colLead = make([]int, len(uniq))
	for c, r := range uniq {
		colLead[c] = slices.Index(radii, r)
	}
	return plan, colOf, colLead
}

// ladderScratch is the batch kernel's working memory. It is needed only
// for the duration of one PushColumns call, so estimators share it
// through ladderPool instead of each holding batch-sized buffers per
// source.
type ladderScratch struct {
	raw        []float64 // contiguous raw view: history + batch
	wmax, wmin []float64 // current rung's window extrema, by window start
	osc        []float64 // one oscillation column per ladder radius, back to back
	offs       []int     // per ladder position, the start of its column in osc
	changed    []uint8   // per center: does any rung's oscillation change here
}

var ladderPool = sync.Pool{New: func() any { return new(ladderScratch) }}

// grown returns s resliced to n elements, reallocating if needed.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/4)
	}
	return s[:n]
}

// pushLadder is PushColumns' batch kernel for a batch of more than
// 2*maxR samples. It emits the estimates for the centers the batch
// completes, [tStart, tEnd], reading the raw tail back to tStart-maxR,
// the first sample the top rung's first window reads.
//
// One pass up the ladder computes every rung's window extrema from the
// rung below, writing the oscillation columns of the ladder's radii and,
// in the same loop, flagging the centers where any rung's oscillation
// differs from the previous center's (or from the memo, at the first).
// Max and min are exact, and ties resolve to the newest sample as the
// deques' back-pops do, so the columns hold bit-identical values to the
// trackers' osc. The emission loop then replays the memoized slope
// between flags and recomputes only at them, exactly as alphaRaw would
// center by center.
func (e *OscillationEstimator) pushLadder(xs []float64, out []float64) []float64 {
	sc := ladderPool.Get().(*ladderScratch)
	idx0, maxR := e.seen, e.maxR
	end := idx0 + len(xs) - 1
	tStart, tEnd := max(idx0-maxR, maxR), end-maxR
	base := tStart - maxR // absolute index of raw[0]
	hist := e.rawTail[len(e.rawTail)-(idx0-base):]
	raw := append(append(sc.raw[:0], hist...), xs...)
	sc.raw = raw
	nT := tEnd - tStart + 1
	stride := nT + maxR // longest column: radius-1 centers [tStart, end-1]
	sc.osc = grown(sc.osc, len(e.colLead)*stride)
	sc.changed = grown(sc.changed, stride)
	clear(sc.changed)
	if !e.memoOK {
		sc.changed[0] = 1
	}
	e.ladderColumns(sc, stride)
	sc.offs = grown(sc.offs, len(e.radii))
	for i, c := range e.colOf {
		sc.offs[i] = c * stride
	}
	out = e.emitColumns(sc, nT, out)
	e.appendTail(xs)
	e.seen = end + 1
	ladderPool.Put(sc)
	return out
}

// ladderColumns runs the rung chain over sc.raw, filling the oscillation
// column of every ladder radius and sc.changed. Column c (radius r)
// holds centers [tStart, end-r] from index c*stride: the emitted centers
// and, after them, the maxR-r the next batch completes, which the
// emission never reads.
func (e *OscillationEstimator) ladderColumns(sc *ladderScratch, stride int) {
	raw, maxR := sc.raw, e.maxR
	wmax, wmin := grown(sc.wmax, len(raw)-2), grown(sc.wmin, len(raw)-2)
	sc.wmax, sc.wmin = wmax, wmin
	for _, g := range e.plan {
		n := len(raw) - 2*g.r
		// Window starts before skip serve only higher rungs; from skip on,
		// a ladder radius's window is centered on an emitted or pending
		// center.
		skip := n
		if g.col >= 0 {
			skip = maxR - g.r
		}
		if g.step == 0 {
			baseExtrema(raw[:n+2], wmax[:n], wmin[:n])
		} else {
			stepExtrema(wmax[:skip], wmin[:skip], wmax[g.step:], wmin[g.step:])
		}
		if g.col < 0 {
			continue
		}
		col := sc.osc[g.col*stride : g.col*stride+n-skip]
		changed := sc.changed[:len(col)]
		prev := e.memoOsc[e.colLead[g.col]]
		if g.step == 0 {
			flagOscillations(wmax[skip:n], wmin[skip:n], col, changed, prev)
		} else {
			stepOscillations(wmax[skip:n], wmin[skip:n], wmax[g.step+skip:], wmin[g.step+skip:], col, changed, prev)
		}
	}
}

// baseExtrema fills the radius-1 rung: the extrema of raw[j..j+2], ties
// going to the newest sample.
func baseExtrema(raw, wmax, wmin []float64) {
	raw = raw[:len(wmax)+2]
	wmin = wmin[:len(wmax)]
	for j := range wmax {
		a, b, c := raw[j], raw[j+1], raw[j+2]
		mx, mn := a, a
		if b >= mx {
			mx = b
		}
		if b <= mn {
			mn = b
		}
		if c >= mx {
			mx = c
		}
		if c <= mn {
			mn = c
		}
		wmax[j], wmin[j] = mx, mn
	}
}

// stepExtrema builds a rung in place from the rung below: maxA/minA hold
// the lower rung at window start j and are overwritten with this rung's
// extrema; maxB/minB hold the lower rung at j+step, not yet overwritten
// since step > 0. Ties go to the right-hand window, which holds the
// newer samples, as the deques' back-pops do.
func stepExtrema(maxA, minA, maxB, minB []float64) {
	minA, maxB, minB = minA[:len(maxA)], maxB[:len(maxA)], minB[:len(maxA)]
	for j, mx := range maxA {
		mn := minA[j]
		if v := maxB[j]; v >= mx {
			mx = v
		}
		if v := minB[j]; v <= mn {
			mn = v
		}
		maxA[j], minA[j] = mx, mn
	}
}

// stepOscillations is stepExtrema fused with the rung's oscillation
// column: it also writes each window's max-min to col and flags, into
// changed, every position whose oscillation differs from the one before
// it (prev for the first).
func stepOscillations(maxA, minA, maxB, minB, col []float64, changed []uint8, prev float64) {
	n := len(maxA)
	minA, maxB, minB, col, changed = minA[:n], maxB[:n], minB[:n], col[:n], changed[:n]
	for k, mx := range maxA {
		mn := minA[k]
		if v := maxB[k]; v >= mx {
			mx = v
		}
		if v := minB[k]; v <= mn {
			mn = v
		}
		maxA[k], minA[k] = mx, mn
		o := mx - mn
		col[k] = o
		if o != prev {
			changed[k] = 1
			prev = o
		}
	}
}

// flagOscillations is the oscillation half of stepOscillations, for the
// base rung, whose extrema baseExtrema has already built.
func flagOscillations(wmax, wmin, col []float64, changed []uint8, prev float64) {
	wmin, col, changed = wmin[:len(wmax)], col[:len(wmax)], changed[:len(wmax)]
	for k, mx := range wmax {
		o := mx - wmin[k]
		col[k] = o
		if o != prev {
			changed[k] = 1
			prev = o
		}
	}
}

// emitColumns appends one estimate per emitted center: the memoized
// slope between change flags, a reload of every rung plus memoSlope at
// them. The recompute points, memo updates and arithmetic match
// alphaRaw center by center, so the emitted values — and the memo left
// behind — are bit-identical.
func (e *OscillationEstimator) emitColumns(sc *ladderScratch, nT int, out []float64) []float64 {
	osc, offs, memoOsc := sc.osc, sc.offs, e.memoOsc
	alpha := e.memoAlpha
	for k, ch := range sc.changed[:nT] {
		if ch != 0 {
			for i, off := range offs {
				if v := osc[off+k]; v != memoOsc[i] {
					e.memoSet(i, v)
				}
			}
			alpha = e.memoSlope()
		}
		out = append(out, alpha)
	}
	return out
}
