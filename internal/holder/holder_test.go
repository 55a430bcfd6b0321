package holder

import (
	"math"
	"math/rand"
	"testing"

	"agingmf/internal/gen"
	"agingmf/internal/series"
	"agingmf/internal/stats"
	"agingmf/internal/stream"
)

func fbmSeries(t *testing.T, n int, h float64, seed int64) series.Series {
	t.Helper()
	xs, err := gen.FBM(n, h, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("FBM: %v", err)
	}
	return series.FromValues("fbm", xs)
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
		n    int
		ok   bool
	}{
		{name: "default", cfg: DefaultConfig(), n: 1000, ok: true},
		{name: "min radius 0", cfg: Config{MinRadius: 0, MaxRadius: 8, Stride: 1}, n: 1000, ok: false},
		{name: "max below min", cfg: Config{MinRadius: 8, MaxRadius: 4, Stride: 1}, n: 1000, ok: false},
		{name: "stride 0", cfg: Config{MinRadius: 2, MaxRadius: 8, Stride: 0}, n: 1000, ok: false},
		{name: "too short", cfg: DefaultConfig(), n: 40, ok: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.validate(tt.n)
			if (err == nil) != tt.ok {
				t.Errorf("validate(n=%d) err=%v, want ok=%v", tt.n, err, tt.ok)
			}
		})
	}
}

func TestRadiiLadder(t *testing.T) {
	cfg := Config{MinRadius: 2, MaxRadius: 32, Stride: 1}
	radii := cfg.radii()
	want := []int{2, 4, 8, 16, 32}
	if len(radii) != len(want) {
		t.Fatalf("radii = %v, want %v", radii, want)
	}
	for i := range want {
		if radii[i] != want[i] {
			t.Fatalf("radii = %v, want %v", radii, want)
		}
	}
	// Narrow band still yields >= 3 points for the regression.
	narrow := Config{MinRadius: 3, MaxRadius: 5, Stride: 1}
	if got := narrow.radii(); len(got) < 3 {
		t.Errorf("narrow radii = %v, want at least 3 entries", got)
	}
}

func TestOscillationMatchesNaiveScan(t *testing.T) {
	// The streaming-kernel implementation must reproduce the textbook
	// construction exactly: rescan every centered window at every radius
	// and regress log oscillation on log radius.
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 300)
	level := 0.0
	for i := range xs {
		if (i/50)%2 == 0 {
			level += 0.01 // smooth blocks exercise the zero-oscillation branch
		} else {
			level += rng.NormFloat64()
		}
		xs[i] = level
	}
	cfg := Config{MinRadius: 2, MaxRadius: 16, Stride: 3}
	traj, err := Oscillation(series.FromValues("scan", xs), cfg)
	if err != nil {
		t.Fatal(err)
	}
	radii := cfg.radii()
	idx := 0
	for c := cfg.MaxRadius; c < len(xs)-cfg.MaxRadius; c += cfg.Stride {
		logR := make([]float64, 0, len(radii))
		logO := make([]float64, 0, len(radii))
		want := 1.0
		for _, r := range radii {
			lo, hi := math.Inf(1), math.Inf(-1)
			for k := c - r; k <= c+r; k++ {
				if xs[k] < lo {
					lo = xs[k]
				}
				if xs[k] > hi {
					hi = xs[k]
				}
			}
			if hi-lo <= 0 {
				logO = nil
				break
			}
			logR = append(logR, math.Log(float64(r)))
			logO = append(logO, math.Log(hi-lo))
		}
		if logO != nil {
			want = stream.FitAlpha(logR, logO)
		}
		if idx >= len(traj.Values) {
			t.Fatalf("trajectory too short: %d values", len(traj.Values))
		}
		if got := traj.Values[idx]; got != want {
			t.Fatalf("alpha at center %d = %v, naive %v", c, got, want)
		}
		idx++
	}
	if idx != len(traj.Values) {
		t.Fatalf("trajectory has %d values, naive scan evaluated %d centers", len(traj.Values), idx)
	}
}

// perSampleOscillation is the per-sample form of Oscillation: every
// sample through Push, keeping the centers the stride selects.
func perSampleOscillation(t *testing.T, xs []float64, cfg Config) []float64 {
	t.Helper()
	est, err := stream.NewOscillationEstimator(cfg.radii())
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := cfg.MaxRadius, len(xs)-cfg.MaxRadius
	var out []float64
	for _, v := range xs {
		alpha, ok := est.Push(v)
		if !ok {
			continue
		}
		if c := est.Seen() - 1 - est.Lag(); c >= lo && c < hi && (c-lo)%cfg.Stride == 0 {
			out = append(out, alpha)
		}
	}
	return out
}

func TestOscillationChunkedMatchesPerSample(t *testing.T) {
	// Oscillation feeds the estimator in oscillationChunk batches; its
	// trajectory must be bit-identical to the per-sample loop across
	// chunk boundaries, strides, and dyadic and fallback ladders.
	const n = 2*oscillationChunk + 777
	rng := rand.New(rand.NewSource(9))
	fbm, err := gen.FBM(n, 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	weier, err := gen.Weierstrass(n, 0.6, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	cascade, err := gen.BinomialCascade(14, 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	walk, err := gen.RandomWalk(n, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := range walk {
		walk[i] = math.Round(walk[i]) // plateaus and ties
	}
	signals := map[string][]float64{"fbm": fbm, "weierstrass": weier, "cascade": cascade, "walk": walk}
	for name, xs := range signals {
		for _, cfg := range []Config{DefaultConfig(), {MinRadius: 2, MaxRadius: 16, Stride: 3}, {MinRadius: 4, MaxRadius: 10, Stride: 2}} {
			traj, err := Oscillation(series.FromValues(name, xs), cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := perSampleOscillation(t, xs, cfg)
			if len(traj.Values) != len(want) {
				t.Fatalf("%s %+v: %d values, per-sample %d", name, cfg, len(traj.Values), len(want))
			}
			for i := range want {
				if math.Float64bits(traj.Values[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s %+v: value %d = %v, per-sample %v", name, cfg, i, traj.Values[i], want[i])
				}
			}
		}
	}
}

func TestOscillationRecoversFBMExponent(t *testing.T) {
	// Mean Hölder exponent of fBm is its Hurst index. The oscillation
	// method on finite windows is biased but must land in a band around H
	// and preserve ordering.
	// Larger radii reduce the discretization bias of max-min oscillation
	// on rough paths (small windows under-sample the true oscillation).
	cfg := Config{MinRadius: 8, MaxRadius: 256, Stride: 4}
	var got []float64
	for _, h := range []float64{0.3, 0.5, 0.7} {
		s := fbmSeries(t, 1<<14, h, int64(100*h))
		traj, err := Oscillation(s, cfg)
		if err != nil {
			t.Fatalf("Oscillation(H=%v): %v", h, err)
		}
		mean := MeanExponent(traj)
		if math.Abs(mean-h) > 0.15 {
			t.Errorf("mean exponent for H=%v is %v", h, mean)
		}
		got = append(got, mean)
	}
	if !(got[0] < got[1] && got[1] < got[2]) {
		t.Errorf("oscillation estimates not ordered: %v", got)
	}
}

func TestOscillationOnSmoothSignal(t *testing.T) {
	// A slowly varying smooth sinusoid must score near the smooth end
	// (alpha ~ 1), far above a rough fBm.
	n := 4096
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Sin(2 * math.Pi * float64(i) / float64(n))
	}
	traj, err := Oscillation(series.FromValues("sine", vals), DefaultConfig())
	if err != nil {
		t.Fatalf("Oscillation: %v", err)
	}
	if m := MeanExponent(traj); m < 0.85 {
		t.Errorf("smooth signal mean exponent = %v, want ~1", m)
	}
}

func TestOscillationConstantSignal(t *testing.T) {
	vals := make([]float64, 512)
	traj, err := Oscillation(series.FromValues("const", vals), DefaultConfig())
	if err != nil {
		t.Fatalf("Oscillation: %v", err)
	}
	for i, v := range traj.Values {
		if v != 1 {
			t.Fatalf("constant signal alpha[%d] = %v, want 1 (maximally smooth)", i, v)
		}
	}
}

func TestOscillationAlignmentAndStride(t *testing.T) {
	s := fbmSeries(t, 2048, 0.5, 9)
	cfg := Config{MinRadius: 2, MaxRadius: 16, Stride: 4}
	traj, err := Oscillation(s, cfg)
	if err != nil {
		t.Fatalf("Oscillation: %v", err)
	}
	wantLen := (2048 - 2*16 + 3) / 4
	if traj.Len() != wantLen {
		t.Errorf("trajectory length = %d, want %d", traj.Len(), wantLen)
	}
	if !traj.Start.Equal(s.TimeAt(16)) {
		t.Errorf("trajectory start = %v, want %v", traj.Start, s.TimeAt(16))
	}
	if traj.Step != s.Step*4 {
		t.Errorf("trajectory step = %v, want %v", traj.Step, s.Step*4)
	}
}

func TestOscillationDetectsLocalRoughnessChange(t *testing.T) {
	// First half smooth (integrated noise), second half rough (white
	// noise): the mean exponent must drop in the second half.
	rng := rand.New(rand.NewSource(10))
	n := 8192
	vals := make([]float64, n)
	sum := 0.0
	for i := 0; i < n/2; i++ {
		sum += rng.NormFloat64()
		vals[i] = sum
	}
	for i := n / 2; i < n; i++ {
		vals[i] = sum + 30*rng.NormFloat64()
	}
	traj, err := Oscillation(series.FromValues("mix", vals), DefaultConfig())
	if err != nil {
		t.Fatalf("Oscillation: %v", err)
	}
	half := traj.Len() / 2
	smoothMean := stats.Mean(traj.Values[:half])
	roughMean := stats.Mean(traj.Values[half:])
	if smoothMean-roughMean < 0.2 {
		t.Errorf("no roughness contrast: smooth %v rough %v", smoothMean, roughMean)
	}
}

func TestOscillationErrors(t *testing.T) {
	s := series.FromValues("x", make([]float64, 10))
	if _, err := Oscillation(s, DefaultConfig()); err == nil {
		t.Error("short series should fail")
	}
}

func TestOscillationRejectsNonFinite(t *testing.T) {
	// NaN has no ordering, so the estimator's raw scan and its ladder
	// kernel would resolve it differently; the offline path must refuse
	// it, as ingestion does, instead of returning a trajectory.
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 9000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		if i%500 == 499 {
			xs[i] = math.NaN()
		}
	}
	if _, err := Oscillation(series.FromValues("nan", xs), DefaultConfig()); err == nil {
		t.Error("series with a NaN every 500 samples accepted")
	}
	xs = xs[:1000]
	for i := range xs {
		if math.IsNaN(xs[i]) {
			xs[i] = 0
		}
	}
	xs[600] = math.Inf(-1)
	if _, err := Oscillation(series.FromValues("inf", xs), DefaultConfig()); err == nil {
		t.Error("series with an infinite sample accepted")
	}
}

func TestWaveletLeaderOrdersRoughness(t *testing.T) {
	var got []float64
	for _, h := range []float64{0.3, 0.7} {
		s := fbmSeries(t, 1<<13, h, int64(1000*h))
		traj, err := WaveletLeader(s, 5)
		if err != nil {
			t.Fatalf("WaveletLeader(H=%v): %v", h, err)
		}
		if traj.Len() != s.Len() {
			t.Fatalf("trajectory length %d != input %d", traj.Len(), s.Len())
		}
		got = append(got, MeanExponent(traj))
	}
	if got[0] >= got[1] {
		t.Errorf("wavelet-leader estimates not ordered: H=0.3 -> %v, H=0.7 -> %v", got[0], got[1])
	}
}

func TestWaveletLeaderErrors(t *testing.T) {
	s := series.FromValues("x", make([]float64, 8))
	if _, err := WaveletLeader(s, 5); err == nil {
		t.Error("short series should fail")
	}
}

func TestClampAlpha(t *testing.T) {
	tests := []struct {
		in   float64
		want float64
	}{
		{in: -0.5, want: 0},
		{in: 0.5, want: 0.5},
		{in: 2.5, want: 2},
		{in: math.NaN(), want: 1},
	}
	for _, tt := range tests {
		if got := stream.ClampAlpha(tt.in); got != tt.want {
			t.Errorf("ClampAlpha(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestMeanExponentSkipsNonFinite(t *testing.T) {
	traj := series.FromValues("a", []float64{0.5, math.NaN(), 1.5, math.Inf(1)})
	if got := MeanExponent(traj); got != 1 {
		t.Errorf("MeanExponent = %v, want 1", got)
	}
	empty := series.FromValues("e", nil)
	if !math.IsNaN(MeanExponent(empty)) {
		t.Error("MeanExponent of empty series should be NaN")
	}
}
