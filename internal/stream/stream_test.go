package stream

import (
	"math"
	"math/rand"
	"testing"

	"agingmf/internal/changepoint"
)

func TestSlidingExtremaMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	raw := make([]float64, 0, 500)
	tr := newSlidingExtrema(7)
	for i := 0; i < 500; i++ {
		raw = append(raw, rng.NormFloat64())
		tr.pushRange(i, raw[i:])
	}
	for c := 7; c+7 < 500; c++ {
		lo, hi := raw[c-7], raw[c-7]
		for k := c - 7; k <= c+7; k++ {
			if raw[k] < lo {
				lo = raw[k]
			}
			if raw[k] > hi {
				hi = raw[k]
			}
		}
		if got := tr.at(c); got != hi-lo {
			t.Fatalf("osc at %d = %v, naive %v", c, got, hi-lo)
		}
	}
}

func TestSlidingExtremaConstantInput(t *testing.T) {
	tr := newSlidingExtrema(3)
	for i := 0; i < 100; i++ {
		tr.pushRange(i, []float64{5})
	}
	for c := 3; c+3 < 100; c++ {
		if got := tr.at(c); got != 0 {
			t.Fatalf("constant oscillation at %d = %v", c, got)
		}
	}
}

func TestSlidingExtremaStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := newSlidingExtrema(5)
	b := newSlidingExtrema(5)
	for i := 0; i < 137; i++ {
		x := []float64{rng.NormFloat64()}
		a.pushRange(i, x)
		b.pushRange(i, x)
	}
	a.trim(120)
	b.trim(120)
	restored, err := restoreExtrema(a.state())
	if err != nil {
		t.Fatal(err)
	}
	for i := 137; i < 300; i++ {
		x := []float64{rng.NormFloat64()}
		restored.pushRange(i, x)
		b.pushRange(i, x)
		if got, want := restored.at(i-5), b.at(i-5); got != want {
			t.Fatalf("osc divergence at center %d: %v vs %v", i-5, got, want)
		}
	}
}

// scanAlpha is the direct-scan reference for the estimator: rescan the
// raw window at every radius and refit.
func scanAlpha(raw []float64, radii []int, t int) float64 {
	logO := make([]float64, 0, len(radii))
	logR := make([]float64, 0, len(radii))
	for _, r := range radii {
		minV, maxV := math.Inf(1), math.Inf(-1)
		for k := t - r; k <= t+r; k++ {
			if raw[k] < minV {
				minV = raw[k]
			}
			if raw[k] > maxV {
				maxV = raw[k]
			}
		}
		osc := maxV - minV
		if osc <= 0 {
			return 1
		}
		logO = append(logO, math.Log(osc))
		logR = append(logR, math.Log(float64(r)))
	}
	return FitAlpha(logR, logO)
}

func TestOscillationEstimatorMatchesScanReference(t *testing.T) {
	radii := []int{2, 4, 8, 16, 32}
	est, err := NewOscillationEstimator(radii)
	if err != nil {
		t.Fatal(err)
	}
	if est.Lag() != 32 {
		t.Fatalf("lag = %d, want 32", est.Lag())
	}
	rng := rand.New(rand.NewSource(2))
	level := 0.0
	n := 3000
	raw := make([]float64, 0, n)
	var centers int
	for i := 0; i < n; i++ {
		// Mixed smooth/rough input exercises both the constant-window and
		// the regression branch.
		if (i/100)%2 == 0 {
			level += 0.01
		} else {
			level += rng.NormFloat64()
		}
		raw = append(raw, level)
		alpha, ok := est.Push(level)
		if c := i - est.Lag(); c >= est.Lag() {
			if !ok {
				t.Fatalf("no estimate at sample %d (center %d)", i, c)
			}
			if want := scanAlpha(raw, radii, c); alpha != want {
				t.Fatalf("alpha mismatch at center %d: incremental %v, scan %v", c, alpha, want)
			}
			centers++
		} else if ok {
			t.Fatalf("unexpected estimate at sample %d", i)
		}
	}
	if want := n - 2*est.Lag(); centers != want {
		t.Fatalf("emitted %d estimates, want %d", centers, want)
	}
}

func TestOscillationEstimatorDuplicateRadii(t *testing.T) {
	// The offline trajectory code can produce a degenerate ladder with
	// repeated radii; the estimator must accept it.
	est, err := NewOscillationEstimator([]int{2, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		alpha, ok := est.Push(rng.NormFloat64())
		if ok && (math.IsNaN(alpha) || alpha < 0 || alpha > 2) {
			t.Fatalf("alpha %v out of range", alpha)
		}
	}
}

func TestOscillationEstimatorBadLadder(t *testing.T) {
	for _, radii := range [][]int{nil, {5}, {0, 2, 4}, {-1, 2, 4}} {
		if _, err := NewOscillationEstimator(radii); err == nil {
			t.Errorf("ladder %v should fail", radii)
		}
	}
}

func TestOscillationEstimatorStateRoundTrip(t *testing.T) {
	radii := []int{2, 4, 8}
	full, err := NewOscillationEstimator(radii)
	if err != nil {
		t.Fatal(err)
	}
	half, err := NewOscillationEstimator(radii)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	for _, x := range xs[:250] {
		half.Push(x)
	}
	restored, err := RestoreOscillationEstimator(half.State())
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		a, aok := full.Push(x)
		if i < 250 {
			continue
		}
		b, bok := restored.Push(x)
		if a != b || aok != bok {
			t.Fatalf("restored divergence at sample %d: (%v,%v) vs (%v,%v)", i, a, aok, b, bok)
		}
	}
	if _, err := RestoreOscillationEstimator(OscillationEstimatorState{Radii: radii}); err == nil {
		t.Error("restore with missing trackers should fail")
	}
}

func TestVolatilityWindowMatchesNaive(t *testing.T) {
	const w = 16
	vw, err := NewVolatilityWindow(w)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	hist := make([]float64, 0, 300)
	for i := 0; i < 300; i++ {
		x := rng.NormFloat64()
		hist = append(hist, x)
		got, ok := vw.Push(x)
		if (i+1 >= w) != ok {
			t.Fatalf("ok=%v at push %d", ok, i)
		}
		if !ok {
			continue
		}
		var sum, sumSq float64
		for _, v := range hist[len(hist)-w:] {
			sum += v
			sumSq += v * v
		}
		mean := sum / w
		want := math.Sqrt(math.Max(0, sumSq/w-mean*mean))
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("vol at %d = %v, naive %v", i, got, want)
		}
	}
}

func TestVolatilityWindowStateRoundTrip(t *testing.T) {
	const w = 8
	a, _ := NewVolatilityWindow(w)
	b, _ := NewVolatilityWindow(w)
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	hist := xs[:37]
	for _, x := range hist {
		a.Push(x)
	}
	// Direct ring restore.
	restored, err := RestoreVolatilityWindow(a.State())
	if err != nil {
		t.Fatal(err)
	}
	// History-tail restore (the legacy-snapshot path).
	st := a.State()
	ring, err := RebuildVolatilityRing(w, st.Count, hist)
	if err != nil {
		t.Fatal(err)
	}
	st.Ring = ring
	rebuilt, err := RestoreVolatilityWindow(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range hist {
		b.Push(x)
	}
	for _, x := range xs[37:] {
		want, wok := b.Push(x)
		got1, ok1 := restored.Push(x)
		got2, ok2 := rebuilt.Push(x)
		if got1 != want || ok1 != wok || got2 != want || ok2 != wok {
			t.Fatalf("restore divergence: want (%v,%v), ring (%v,%v), rebuilt (%v,%v)",
				want, wok, got1, ok1, got2, ok2)
		}
	}
}

func TestStandardizer(t *testing.T) {
	s, err := NewStandardizer(4, true)
	if err != nil {
		t.Fatal(err)
	}
	baseline := []float64{1, 2, 3, 2}
	for i, x := range baseline {
		if _, ok := s.Push(x); ok {
			t.Fatalf("emitted during warmup at %d", i)
		}
	}
	// Baseline: mean 2, var (1+4+9+4)/4 - 4 = 0.5.
	std := math.Sqrt(0.5)
	got, ok := s.Push(3)
	if !ok || math.Abs(got-(3-2)/std) > 1e-12 {
		t.Fatalf("z(3) = (%v,%v)", got, ok)
	}
	s.Recalibrate()
	if _, ok := s.Push(10); ok {
		t.Fatal("emitted right after recalibration")
	}
	// A disabled standardizer is the identity.
	id, err := NewStandardizer(4, false)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := id.Push(42); !ok || got != 42 {
		t.Fatalf("disabled push = (%v,%v)", got, ok)
	}
	// Zero-variance baseline must not divide by zero.
	z, _ := NewStandardizer(2, true)
	z.Push(1)
	z.Push(1)
	if got, ok := z.Push(1); !ok || math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("degenerate baseline push = (%v,%v)", got, ok)
	}
}

func TestStandardizerStateRoundTrip(t *testing.T) {
	a, _ := NewStandardizer(8, true)
	b, _ := NewStandardizer(8, true)
	rng := rand.New(rand.NewSource(8))
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	for _, x := range xs[:13] {
		a.Push(x)
	}
	restored, err := RestoreStandardizer(a.State())
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		want, wok := b.Push(x)
		if i < 13 {
			continue
		}
		got, ok := restored.Push(x)
		if got != want || ok != wok {
			t.Fatalf("restore divergence at %d: (%v,%v) vs (%v,%v)", i, got, ok, want, wok)
		}
	}
}

func TestGatedDetectorRefractory(t *testing.T) {
	det, err := changepoint.NewShewhart(3, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGatedDetector(det, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	fires := []int{}
	for i := 0; i < 400; i++ {
		x := rng.NormFloat64()
		if i >= 100 {
			x += 50 // gross shift: the detector wants to fire continuously
		}
		if _, fired := g.Push(x); fired {
			fires = append(fires, i)
		}
	}
	if len(fires) == 0 {
		t.Fatal("never fired")
	}
	for i := 1; i < len(fires); i++ {
		if fires[i]-fires[i-1] <= 5 {
			t.Fatalf("fires %d and %d within refractory window", fires[i-1], fires[i])
		}
	}
	if g.Remaining() < 0 {
		t.Fatalf("remaining = %d", g.Remaining())
	}
	if err := g.SetRemaining(-1); err == nil {
		t.Error("negative remaining should fail")
	}
	if _, err := NewGatedDetector(nil, 1); err == nil {
		t.Error("nil detector should fail")
	}
}

// TestPipelineSteadyStateAllocs locks in the kernel's zero-allocation
// guarantee at the stage level (the aging package asserts it again for
// the composed monitor).
func TestPipelineSteadyStateAllocs(t *testing.T) {
	est, err := NewOscillationEstimator([]int{2, 4, 8, 16})
	if err != nil {
		t.Fatal(err)
	}
	vw, err := NewVolatilityWindow(32)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := NewStandardizer(64, true)
	if err != nil {
		t.Fatal(err)
	}
	det, err := changepoint.NewShewhart(1e9, 8, false) // never fires
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGatedDetector(det, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	i := 0
	step := func() {
		x := xs[i%len(xs)]
		i++
		alpha, ok := est.Push(x)
		if !ok {
			return
		}
		vol, ok := vw.Push(alpha)
		if !ok {
			return
		}
		stat, ok := sd.Push(vol)
		if !ok {
			return
		}
		g.Push(stat)
	}
	for j := 0; j < 2048; j++ { // warm up: fill windows, settle capacities
		step()
	}
	if avg := testing.AllocsPerRun(2000, step); avg != 0 {
		t.Fatalf("steady-state pipeline allocates %v per push", avg)
	}
}
