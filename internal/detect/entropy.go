package detect

import (
	"fmt"
	"math"
	"math/bits"

	"agingmf/internal/aging"
	"agingmf/internal/obs"
)

// EntropyConfig parameterizes the multiscale sample-entropy detector.
// All fields are value types so configurations compare and gob-encode
// trivially.
type EntropyConfig struct {
	// Window is the sliding window of raw samples per counter over which
	// entropy is evaluated.
	Window int
	// Stride is how many raw samples elapse between entropy evaluations
	// once the window is full; it amortizes the O(Window²) SampEn cost.
	Stride int
	// MaxScale is the coarsest coarse-graining scale: the multiscale
	// entropy sums SampEn over scales 1..MaxScale (Costa et al.).
	MaxScale int
	// M is the SampEn template length.
	M int
	// RFraction sets the match tolerance r = RFraction * std(window).
	RFraction float64
	// BaselineEvals is how many entropy evaluations are frozen into the
	// healthy baseline before thresholding starts.
	BaselineEvals int
	// K is the alarm threshold in baseline standard deviations.
	K float64
	// TwoSided also alarms on entropy rising above the baseline when
	// true. The default is one-sided (collapse only): aging turns the
	// resource series deterministic — trends, saturation, periodic
	// thrashing — which drives entropy down, while the sample-entropy
	// estimator's no-match ceiling makes its upper tail heavy on healthy
	// noise.
	TwoSided bool
	// Refractory suppresses further alarms for this many entropy
	// evaluations after each alarm.
	Refractory int
}

// DefaultEntropyConfig returns the CHAOS-style defaults: SampEn(m=2,
// r=0.3σ) over a 64-sample window at scales 1..2, evaluated every 16
// samples, alarming 4 baseline sigmas below a 24-evaluation frozen
// baseline.
func DefaultEntropyConfig() EntropyConfig {
	return EntropyConfig{
		Window:        64,
		Stride:        16,
		MaxScale:      2,
		M:             2,
		RFraction:     0.3,
		BaselineEvals: 24,
		K:             4,
		Refractory:    8,
	}
}

func (c EntropyConfig) validate() error {
	switch {
	case c.Window < 8:
		return fmt.Errorf("entropy window %d: %w (need >= 8)", c.Window, ErrBadConfig)
	case c.Stride < 1:
		return fmt.Errorf("entropy stride %d: %w", c.Stride, ErrBadConfig)
	case c.MaxScale < 1:
		return fmt.Errorf("entropy max scale %d: %w", c.MaxScale, ErrBadConfig)
	case c.M < 1:
		return fmt.Errorf("entropy template length %d: %w", c.M, ErrBadConfig)
	case c.Window/c.MaxScale < c.M+2:
		return fmt.Errorf("entropy window %d too short for scale %d with m=%d: %w",
			c.Window, c.MaxScale, c.M, ErrBadConfig)
	case c.RFraction <= 0:
		return fmt.Errorf("entropy r fraction %v: %w", c.RFraction, ErrBadConfig)
	case c.BaselineEvals < 2:
		return fmt.Errorf("entropy baseline evals %d: %w (need >= 2)", c.BaselineEvals, ErrBadConfig)
	case c.K <= 0:
		return fmt.Errorf("entropy k %v: %w", c.K, ErrBadConfig)
	case c.Refractory < 0:
		return fmt.Errorf("entropy refractory %d: %w", c.Refractory, ErrBadConfig)
	}
	return nil
}

// entropyStream is the per-counter state of the entropy detector.
type entropyStream struct {
	counter aging.CounterKind

	ring  []float64 // last Window samples, ring[n % Window] overwritten
	n     int       // total samples consumed
	evals int       // total entropy evaluations produced

	// Derived cursors, maintained so the per-sample path divides nothing:
	// head is n % Window (the slot the next sample overwrites once the
	// ring is full) and sinceEval counts pushes down to the next
	// evaluation. Both are recomputed from n on restore, never serialized.
	head      int
	sinceEval int

	// Frozen healthy baseline over the first BaselineEvals evaluations.
	baseN              int
	baseSum, baseSqSum float64
	mean, std          float64
	calibrated         bool

	refractory  int // evaluations left in the current refractory period
	lastEntropy float64
	lastScore   float64
	jumps       int

	// Preallocated scratch so steady-state pushes allocate nothing.
	window []float64
	coarse []float64
	sc     sampEnScratch
}

func newEntropyStream(counter aging.CounterKind, w int) *entropyStream {
	return &entropyStream{
		counter: counter,
		ring:    make([]float64, 0, w),
		window:  make([]float64, w),
		coarse:  make([]float64, w),
		sc:      newSampEnScratch(w),
	}
}

// Entropy is a CHAOS-style aging detector: multiscale sample entropy of
// each counter's sliding window, compared against a frozen baseline of
// the stream's healthy start. Aging shows up as the window's complexity
// collapsing below the baseline — exhaustion trends, saturation floors
// and thrashing cycles are all more deterministic than healthy noise —
// so the default threshold is one-sided (TwoSided also catches upward
// excursions).
type Entropy struct {
	cfg  EntropyConfig
	free *entropyStream
	swap *entropyStream
}

// NewEntropy creates an entropy detector.
func NewEntropy(cfg EntropyConfig) (*Entropy, error) {
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("detect: new entropy: %w", err)
	}
	return &Entropy{
		cfg:  cfg,
		free: newEntropyStream(aging.CounterFreeMemory, cfg.Window),
		swap: newEntropyStream(aging.CounterUsedSwap, cfg.Window),
	}, nil
}

// Config returns the detector configuration.
func (e *Entropy) Config() EntropyConfig { return e.cfg }

// Kind implements Detector.
func (e *Entropy) Kind() string { return KindEntropy }

// Push implements Detector. The tm parameter is accepted for interface
// parity but unused: the entropy window has no analogue of the Hölder
// pipeline's stage decomposition, so the sampled tracer attributes the
// whole push to the detect span instead.
func (e *Entropy) Push(s Sample, _ *aging.StageNanos) Verdict {
	evFree, okFree := e.free.push(s.Free, e.cfg)
	evSwap, okSwap := e.swap.push(s.Swap, e.cfg)
	v := Verdict{Phase: e.Phase()}
	if !okFree && !okSwap {
		return v
	}
	v.Events = make([]Event, 0, 2)
	if okFree {
		v.Events = append(v.Events, evFree)
	}
	if okSwap {
		v.Events = append(v.Events, evSwap)
	}
	return v
}

// PushColumns implements ColumnPusher. Entropy evaluation is cadenced on
// the per-stream sample counter, so the kernel is inherently sequential:
// the columnar form is a faithful per-pair loop that only removes the
// per-sample Sample construction and interface dispatch of the set path.
// Like Push, it has no stages to time; annotated statistics are the
// per-counter z-scores.
func (e *Entropy) PushColumns(free, swap []float64, ann ...*aging.Annotation) Verdict {
	a := annotation(ann)
	tail0, _ := tailSplit(a, len(free))
	events := e.pushPairs(free[:tail0], swap[:tail0], nil)
	for i := tail0; i < len(free); i++ {
		events = e.pushPairs(free[i:i+1], swap[i:i+1], events)
		a.Stats[i-tail0] = [2]float64{e.free.lastScore, e.swap.lastScore}
	}
	return Verdict{Events: events, Phase: e.Phase()}
}

// pushPairs pushes the pairs in order, appending fired events to events.
func (e *Entropy) pushPairs(free, swap []float64, events []Event) []Event {
	for i := range free {
		if ev, ok := e.free.push(free[i], e.cfg); ok {
			events = append(events, ev)
		}
		if ev, ok := e.swap.push(swap[i], e.cfg); ok {
			events = append(events, ev)
		}
	}
	return events
}

// push consumes one sample; it returns a jump event when this sample's
// entropy evaluation crosses the baseline threshold.
func (st *entropyStream) push(x float64, cfg EntropyConfig) (Event, bool) {
	if len(st.ring) < cfg.Window {
		st.ring = append(st.ring, x)
		st.n++
		if st.n < cfg.Window {
			return Event{}, false
		}
		// Ring just filled: first evaluation fires now, head stays 0.
		st.sinceEval = cfg.Stride
	} else {
		st.ring[st.head] = x
		st.n++
		st.head++
		if st.head == cfg.Window {
			st.head = 0
		}
		st.sinceEval--
		if st.sinceEval != 0 {
			return Event{}, false
		}
		st.sinceEval = cfg.Stride
	}
	e := st.evaluate(cfg)
	st.evals++
	st.lastEntropy = e
	if !st.calibrated {
		st.baseN++
		st.baseSum += e
		st.baseSqSum += e * e
		if st.baseN >= cfg.BaselineEvals {
			st.mean = st.baseSum / float64(st.baseN)
			v := st.baseSqSum/float64(st.baseN) - st.mean*st.mean
			if v < 0 {
				v = 0
			}
			st.std = math.Sqrt(v)
			st.calibrated = true
		}
		return Event{}, false
	}
	var score float64
	if st.std == 0 {
		// Degenerate constant baseline (e.g. a flat counter): any real
		// entropy deviation is a change; the tolerance absorbs float noise.
		tol := 1e-9 * math.Max(1, math.Abs(st.mean))
		switch {
		case e-st.mean < -tol:
			score = math.Inf(-1)
		case e-st.mean > tol:
			score = math.Inf(1)
		}
	} else {
		score = (e - st.mean) / st.std
	}
	st.lastScore = score
	if st.refractory > 0 {
		st.refractory--
		return Event{}, false
	}
	if score >= -cfg.K && (!cfg.TwoSided || score <= cfg.K) {
		return Event{}, false
	}
	st.refractory = cfg.Refractory
	st.jumps++
	return Event{
		Detector: KindEntropy,
		Kind:     EventJump,
		Counter:  st.counter,
		Sample:   st.n - 1,
		Value:    e,
		Score:    math.Abs(score),
	}, true
}

// evaluate computes the multiscale sample entropy of the current window:
// the sum of SampEn(M, RFraction*σ) over coarse-graining scales
// 1..MaxScale, with σ the scale-1 window standard deviation (the MSE
// convention of keeping r fixed across scales).
func (st *entropyStream) evaluate(cfg EntropyConfig) float64 {
	// Unroll the ring into chronological order: oldest..end, then the
	// wrapped prefix.
	w := cfg.Window
	head := st.head // index of the oldest sample once the ring is full
	copy(st.window, st.ring[head:w])
	copy(st.window[w-head:], st.ring[:head])
	var sum, sqSum float64
	for _, v := range st.window[:w] {
		sum += v
		sqSum += v * v
	}
	mean := sum / float64(w)
	varr := sqSum/float64(w) - mean*mean
	if varr <= 0 {
		return 0 // constant window: perfectly regular at every scale
	}
	r := cfg.RFraction * math.Sqrt(varr)
	total := sampEnPruned(st.window[:w], cfg.M, r, &st.sc)
	for scale := 2; scale <= cfg.MaxScale; scale++ {
		cn := w / scale
		if scale == 2 {
			// The default MaxScale stops here; *0.5 is exact (power of
			// two), bit-identical to the generic /scale below.
			for i := 0; i < cn; i++ {
				st.coarse[i] = (st.window[2*i] + st.window[2*i+1]) * 0.5
			}
		} else {
			for i := 0; i < cn; i++ {
				var s float64
				for j := i * scale; j < (i+1)*scale; j++ {
					s += st.window[j]
				}
				st.coarse[i] = s / float64(scale)
			}
		}
		total += sampEnPruned(st.coarse[:cn], cfg.M, r, &st.sc)
	}
	return total
}

// sampEn computes sample entropy (Richman & Moorman 2000): -ln(A/B)
// where B counts pairs of matching m-length templates and A pairs whose
// (m+1)-length extensions also match, under the Chebyshev distance with
// tolerance r. When no matches exist at either length the conventional
// ceiling ln((n-m)(n-m-1)) is returned, keeping the statistic finite and
// deterministic.
func sampEn(x []float64, m int, r float64) float64 {
	sc := newSampEnScratch(len(x))
	return sampEnPruned(x, m, r, &sc)
}

// sampEnScratch is the reusable sort workspace of sampEnPruned: template
// start indices and their first-coordinate keys, sorted together, plus
// the bucket-sort bin tables.
type sampEnScratch struct {
	key   []float64
	idx   []int32
	s1    []float64 // x[idx[p]+1] in sorted order (m=2, n>64 fast path)
	s2    []float64 // x[idx[p]+2] in sorted order (m=2, n>64 fast path)
	binOf []int32   // bin of each template start
	off   []int32   // per-bin scatter cursor (prefix sums)
	end   []int32   // per-bin end boundary

	// rows[i] bit j holds |x[i]-x[j]| <= r for the bitset counting path
	// (m=2, n <= 64): series that fit a machine word count template
	// matches with shifts and popcounts instead of data-dependent
	// branches.
	rows [64]uint64
}

func newSampEnScratch(n int) sampEnScratch {
	return sampEnScratch{
		key:   make([]float64, n),
		idx:   make([]int32, n),
		s1:    make([]float64, n),
		s2:    make([]float64, n),
		binOf: make([]int32, n),
		off:   make([]int32, 4*n+1),
		end:   make([]int32, 4*n+1),
	}
}

// sampEnPruned is sampEn with a sort-based prune: template pairs must
// match on their first coordinate, so only pairs within an r-band of the
// key-sorted order are fully compared. Counts — and therefore every
// detector verdict and snapshot byte — are identical to the quadratic
// reference (a differential test asserts this); only the constant factor
// changes: on healthy noise the band holds a small fraction of the
// (n-m)² pairs, which is what keeps the two-detector set inside the
// 2.5× budget asserted in bench-smoke.
func sampEnPruned(x []float64, m int, r float64, sc *sampEnScratch) float64 {
	n := len(x)
	if n < m+2 {
		return 0
	}
	// One pass finds the value range for the bucket sort and screens for
	// NaN/Inf: non-finite values sort and subtract differently than they
	// pairwise-compare, so corrupted windows take the reference path —
	// the prune must never change a verdict, only its cost. A NaN fails
	// both ordering tests and lands in the v != v arm; a NaN at x[0]
	// poisons lo instead and is caught by the lo != lo check below.
	lo, hi := x[0], x[0]
	for _, v := range x[1:] {
		if v < lo {
			lo = v
		} else if v > hi {
			hi = v
		} else if v != v {
			return sampEnNaive(x, m, r)
		}
	}
	if lo != lo || math.IsInf(lo, 0) || math.IsInf(hi, 0) || math.IsNaN(r) || math.IsInf(r, 0) {
		return sampEnNaive(x, m, r)
	}
	starts := n - m
	if len(sc.key) < n {
		sc.key = make([]float64, n)
		sc.idx = make([]int32, n)
		sc.s1 = make([]float64, n)
		sc.s2 = make([]float64, n)
		sc.binOf = make([]int32, n)
		sc.off = make([]int32, 4*n+1)
		sc.end = make([]int32, 4*n+1)
	}
	if m == 2 && n <= 64 {
		// Bitset counting: sort every sample (extensions need the last m
		// values too), mark each single-sample match |x[i]-x[j]| <= r as
		// a bit, then read off template matches as
		// rows[i] & rows[i+1]>>1 (and rows[i+2]>>2 for the extension) —
		// the Richman-Moorman counts with no data-dependent branches.
		key, idx := sc.key[:n], sc.idx[:n]
		sortTemplates(x, key, idx, r, lo, hi, false, sc)
		rows := &sc.rows
		for i := 0; i < n; i++ {
			rows[i] = 0
		}
		for p := 0; p < n; p++ {
			kp, ip := key[p], uint(idx[p])
			bi := uint64(1) << ip
			ri := rows[ip]
			for q := p + 1; q < n && key[q]-kp <= r; q++ {
				j := uint(idx[q])
				ri |= uint64(1) << j
				rows[j] |= bi
			}
			rows[ip] = ri
		}
		// Bits 0..n-3 are template starts; pairs need j > i.
		startsMask := (uint64(1) << uint(n-2)) - 1
		var a, b int
		for i := 0; i < n-2; i++ {
			t := rows[i] & (rows[i+1] >> 1) & startsMask & (^uint64(0) << uint(i+1))
			b += bits.OnesCount64(t)
			a += bits.OnesCount64(t & (rows[i+2] >> 2))
		}
		if a == 0 || b == 0 {
			return math.Log(float64((n - m) * (n - m - 1)))
		}
		return -math.Log(float64(a) / float64(b))
	}
	key, idx := sc.key[:starts], sc.idx[:starts]
	coords := sortTemplates(x, key, idx, r, lo, hi, m == 2, sc)
	var a, b int
	if m == 2 {
		// The detector default. Counting needs no template indices, so
		// the second and third coordinates ride along in key order and
		// the band loop runs over three parallel arrays — sequential
		// loads, no indirection, bounds checks elided. The bucket sort
		// fills them during its scatter; the heapsort fallback leaves
		// them to this gather.
		s1, s2 := sc.s1[:starts], sc.s2[:starts]
		if !coords {
			for p := 0; p < starts; p++ {
				ip := int(idx[p])
				s1[p] = x[ip+1]
				s2[p] = x[ip+2]
			}
		}
		for p := 0; p < starts; p++ {
			kp, s1p, s2p := key[p], s1[p], s2[p]
			for q := p + 1; q < starts && key[q]-kp <= r; q++ {
				if math.Abs(s1[q]-s1p) > r {
					continue
				}
				b++
				if math.Abs(s2[q]-s2p) <= r {
					a++
				}
			}
		}
	} else {
		for p := 0; p < starts; p++ {
			kp := key[p]
			for q := p + 1; q < starts && key[q]-kp <= r; q++ {
				i, j := int(idx[p]), int(idx[q])
				match := true
				for k := 1; k < m; k++ {
					if math.Abs(x[i+k]-x[j+k]) > r {
						match = false
						break
					}
				}
				if !match {
					continue
				}
				b++
				if math.Abs(x[i+m]-x[j+m]) <= r {
					a++
				}
			}
		}
	}
	if a == 0 || b == 0 {
		return math.Log(float64((n - m) * (n - m - 1)))
	}
	return -math.Log(float64(a) / float64(b))
}

// sampEnNaive is the quadratic reference implementation: every template
// pair compared coordinate by coordinate. sampEnPruned must agree with it
// on every input (differential test), and falls back to it on non-finite
// inputs.
func sampEnNaive(x []float64, m int, r float64) float64 {
	n := len(x)
	if n < m+2 {
		return 0
	}
	var a, b int
	for i := 0; i < n-m; i++ {
		for j := i + 1; j < n-m; j++ {
			match := true
			for k := 0; k < m; k++ {
				if math.Abs(x[i+k]-x[j+k]) > r {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			b++
			if math.Abs(x[i+m]-x[j+m]) <= r {
				a++
			}
		}
	}
	if a == 0 || b == 0 {
		return math.Log(float64((n - m) * (n - m - 1)))
	}
	return -math.Log(float64(a) / float64(b))
}

// sortTemplates fills key/idx with each template start's first
// coordinate and index, sorted ascending by key. On well-conditioned
// windows it bucket-sorts into bins of width r — counting sort plus tiny
// per-bin insertion sorts, O(starts + bins) instead of the heapsort's
// O(starts log starts) with its branch-hostile comparisons. IEEE
// subtraction and multiplication are monotone, so bucket order is a
// correct sort order no matter how bin-boundary values round; windows
// whose range spans more bins than the scratch holds (spiky outliers,
// tiny r) fall back to the heapsort. lo/hi bound all of x (the caller's
// range pass), which bounds the keys x[:starts]. With coords set (the
// m=2 fast path) the bucket scatter also carries x[i+1]/x[i+2] into
// sc.s1/sc.s2 in key order; the returned bool reports whether it did.
func sortTemplates(x []float64, key []float64, idx []int32, r, lo, hi float64, coords bool, sc *sampEnScratch) bool {
	starts := len(key)
	span := hi - lo
	maxBins := len(sc.end) - 1 // off needs nbins+1 slots
	// Bins of r/4, not r: with ~one element per bin the per-bin insertion
	// sorts degenerate to predictable no-ops, trading branch misses on
	// random-data compares for branch-free counting-sort bookkeeping.
	binW := 4 / r
	if r <= 0 || !(span*binW < float64(maxBins)) {
		for i := 0; i < starts; i++ {
			key[i] = x[i]
			idx[i] = int32(i)
		}
		sortByKey(key, idx)
		return false
	}
	nbins := int(span*binW) + 1
	off, end, binOf := sc.off[:nbins+1], sc.end[:nbins], sc.binOf[:starts]
	for i := range off {
		off[i] = 0
	}
	for i := 0; i < starts; i++ {
		b := int32((x[i] - lo) * binW)
		binOf[i] = b
		off[b+1]++
	}
	for b := 1; b <= nbins; b++ {
		off[b] += off[b-1]
	}
	copy(end, off[1:nbins+1])
	s1, s2 := sc.s1[:starts], sc.s2[:starts]
	if coords {
		for i := 0; i < starts; i++ {
			b := binOf[i]
			p := off[b]
			off[b] = p + 1
			key[p] = x[i]
			idx[p] = int32(i)
			s1[p] = x[i+1]
			s2[p] = x[i+2]
		}
	} else {
		for i := 0; i < starts; i++ {
			b := binOf[i]
			p := off[b]
			off[b] = p + 1
			key[p] = x[i]
			idx[p] = int32(i)
		}
	}
	var binLo int32
	for b := 0; b < nbins; b++ {
		binHi := end[b]
		if binHi-binLo > 1 {
			if coords {
				insertionSortByKeyCoords(key[binLo:binHi], idx[binLo:binHi], s1[binLo:binHi], s2[binLo:binHi])
			} else {
				insertionSortByKey(key[binLo:binHi], idx[binLo:binHi])
			}
		}
		binLo = binHi
	}
	return coords
}

// insertionSortByKeyCoords is insertionSortByKey carrying the gathered
// second and third template coordinates through the same permutation.
func insertionSortByKeyCoords(key []float64, idx []int32, s1, s2 []float64) {
	for i := 1; i < len(key); i++ {
		k, id, v1, v2 := key[i], idx[i], s1[i], s2[i]
		j := i - 1
		for j >= 0 && key[j] > k {
			key[j+1] = key[j]
			idx[j+1] = idx[j]
			s1[j+1] = s1[j]
			s2[j+1] = s2[j]
			j--
		}
		key[j+1] = k
		idx[j+1] = id
		s1[j+1] = v1
		s2[j+1] = v2
	}
}

// insertionSortByKey sorts a single bucket's key/idx pair ascending;
// buckets hold a handful of elements, where insertion sort's sequential,
// branch-predictable scan beats anything asymptotically clever.
func insertionSortByKey(key []float64, idx []int32) {
	for i := 1; i < len(key); i++ {
		k, id := key[i], idx[i]
		j := i - 1
		for j >= 0 && key[j] > k {
			key[j+1] = key[j]
			idx[j+1] = idx[j]
			j--
		}
		key[j+1] = k
		idx[j+1] = id
	}
}

// sortByKey heap-sorts idx by key (kept in step), ascending. Hand-rolled
// so the entropy hot path stays closure- and allocation-free; order among
// equal keys is irrelevant to the band enumeration.
func sortByKey(key []float64, idx []int32) {
	n := len(key)
	for root := n/2 - 1; root >= 0; root-- {
		siftDown(key, idx, root, n)
	}
	for end := n - 1; end > 0; end-- {
		key[0], key[end] = key[end], key[0]
		idx[0], idx[end] = idx[end], idx[0]
		siftDown(key, idx, 0, end)
	}
}

func siftDown(key []float64, idx []int32, root, end int) {
	for {
		child := 2*root + 1
		if child >= end {
			return
		}
		if child+1 < end && key[child+1] > key[child] {
			child++
		}
		if key[root] >= key[child] {
			return
		}
		key[root], key[child] = key[child], key[root]
		idx[root], idx[child] = idx[child], idx[root]
		root = child
	}
}

// Phase implements Detector: per-counter phases from emitted jumps, the
// more advanced of the two reported (mirroring the dual monitor).
func (e *Entropy) Phase() aging.Phase {
	return maxPhase(phaseOfJumps(e.free.jumps), phaseOfJumps(e.swap.jumps))
}

// SamplesSeen implements Detector.
func (e *Entropy) SamplesSeen() int { return e.free.n }

// Jumps implements Detector.
func (e *Entropy) Jumps() int { return e.free.jumps + e.swap.jumps }

// Recalibrations implements Detector: the entropy baseline is frozen by
// design.
func (e *Entropy) Recalibrations() int { return 0 }

// LastStats implements Detector: the latest per-counter entropy z-scores.
func (e *Entropy) LastStats() (freeStat, swapStat float64) {
	return e.free.lastScore, e.swap.lastScore
}

// Instrument implements Detector (nil-safe). The entropy detector keeps
// no dedicated metric families; set-level counters cover it.
func (e *Entropy) Instrument(reg *obs.Registry) {}

// CounterPhases implements Detector.
func (e *Entropy) CounterPhases() (free, swap aging.Phase) {
	return phaseOfJumps(e.free.jumps), phaseOfJumps(e.swap.jumps)
}

var _ Detector = (*Entropy)(nil)
