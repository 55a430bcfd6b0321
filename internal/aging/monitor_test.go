package aging

import (
	"math"
	"math/rand"
	"testing"

	"agingmf/internal/gen"
	"agingmf/internal/series"
)

// regimeChangeSignal builds a signal whose local regularity is uniform for
// the first half (fBm) and wildly alternating in the second half (blocks
// of smooth ramps and amplified white noise). The Hölder volatility is low
// then high: the monitor must flag the transition.
func regimeChangeSignal(t *testing.T, n int, seed int64) []float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	half := n / 2
	base, err := gen.FBM(half, 0.6, rng)
	if err != nil {
		t.Fatalf("FBM: %v", err)
	}
	out := make([]float64, 0, n)
	out = append(out, base...)
	level := base[len(base)-1]
	scale := 0.0
	for _, v := range base {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	if scale == 0 {
		scale = 1
	}
	block := 64
	for len(out) < n {
		if (len(out)/block)%2 == 0 {
			// Smooth ramp block.
			for i := 0; i < block && len(out) < n; i++ {
				level += 0.01 * scale / float64(block)
				out = append(out, level)
			}
		} else {
			// Rough noisy block.
			for i := 0; i < block && len(out) < n; i++ {
				out = append(out, level+0.5*scale*rng.NormFloat64())
			}
		}
	}
	return out
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{name: "default", mutate: func(*Config) {}, ok: true},
		{name: "min radius", mutate: func(c *Config) { c.MinRadius = 0 }, ok: false},
		{name: "max radius", mutate: func(c *Config) { c.MaxRadius = c.MinRadius }, ok: false},
		{name: "vol window", mutate: func(c *Config) { c.VolatilityWindow = 4 }, ok: false},
		{name: "warmup", mutate: func(c *Config) { c.DetectorWarmup = 1 }, ok: false},
		{name: "refractory", mutate: func(c *Config) { c.Refractory = -1 }, ok: false},
		{name: "bad detector", mutate: func(c *Config) { c.Detector = DetectorKind(99) }, ok: false},
		{name: "shewhart k", mutate: func(c *Config) { c.ShewhartK = 0 }, ok: false},
		{name: "cusum", mutate: func(c *Config) { c.Detector = DetectCUSUM; c.CUSUMThreshold = 0 }, ok: false},
		{name: "cusum ok", mutate: func(c *Config) { c.Detector = DetectCUSUM }, ok: true},
		{name: "ph", mutate: func(c *Config) { c.Detector = DetectPageHinkley; c.PHLambda = 0 }, ok: false},
		{name: "ph ok", mutate: func(c *Config) { c.Detector = DetectPageHinkley }, ok: true},
		{name: "ewma", mutate: func(c *Config) { c.Detector = DetectEWMA; c.EWMALambda = 2 }, ok: false},
		{name: "ewma ok", mutate: func(c *Config) { c.Detector = DetectEWMA }, ok: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			_, err := NewMonitor(cfg)
			if (err == nil) != tt.ok {
				t.Errorf("NewMonitor err=%v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestMonitorLagAndSeriesLengths(t *testing.T) {
	cfg := DefaultConfig()
	mon, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mon.Lag() != cfg.MaxRadius {
		t.Errorf("Lag = %d, want %d", mon.Lag(), cfg.MaxRadius)
	}
	n := 2000
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		mon.Add(xs[i])
	}
	if mon.SamplesSeen() != n {
		t.Errorf("SamplesSeen = %d", mon.SamplesSeen())
	}
	res, err := Analyze(series.FromValues("x", xs), cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantAlphas := n - 2*cfg.MaxRadius
	if got := len(res.Holder.Values); got != wantAlphas || mon.alphasSeen != wantAlphas {
		t.Errorf("alphas = %d (monitor counted %d), want %d", got, mon.alphasSeen, wantAlphas)
	}
	wantVols := wantAlphas - cfg.VolatilityWindow + 1
	if got := len(res.Volatility.Values); got != wantVols || mon.volsSeen != wantVols {
		t.Errorf("vols = %d (monitor counted %d), want %d", got, mon.volsSeen, wantVols)
	}
}

func TestMonitorQuietOnStationarySignal(t *testing.T) {
	// A homogeneous fBm has a stationary Hölder trajectory: volatility is
	// flat and the monitor must remain healthy.
	xs, err := gen.FBM(8192, 0.6, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	mon, err := NewMonitor(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range xs {
		mon.Add(v)
	}
	if got := mon.Phase(); got != PhaseHealthy {
		t.Errorf("phase = %v with %d jumps on stationary signal", got, len(mon.Jumps()))
	}
}

func TestMonitorDetectsRegularityRegimeChange(t *testing.T) {
	n := 16384
	xs := regimeChangeSignal(t, n, 3)
	mon, err := NewMonitor(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var firstJump *Jump
	for _, v := range xs {
		if j, fired := mon.Add(v); fired && firstJump == nil {
			jc := j
			firstJump = &jc
		}
	}
	if firstJump == nil {
		t.Fatal("no jump detected across a regularity regime change")
	}
	// The change happens at n/2; the alarm must come after it (no false
	// alarm in the first half) but within a reasonable delay.
	if firstJump.SampleIndex < n/2-256 {
		t.Errorf("jump at %d precedes the regime change at %d", firstJump.SampleIndex, n/2)
	}
	if firstJump.SampleIndex > n/2+2048 {
		t.Errorf("jump at %d: detection delay too large", firstJump.SampleIndex)
	}
	if mon.Phase() == PhaseHealthy {
		t.Error("phase still healthy after detected jump")
	}
}

func TestMonitorPhaseProgression(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Refractory = 64
	// The second transition is a sustained moderate volatility shift, the
	// regime CUSUM is designed for (a Shewhart chart needs a larger step).
	cfg.Detector = DetectCUSUM
	mon, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mon.Phase() != PhaseHealthy {
		t.Errorf("initial phase = %v", mon.Phase())
	}
	// Build a signal with two separated regularity-pattern changes. The
	// Hölder exponent is amplitude-blind, so each stage must change the
	// *pattern* of local regularity: smooth (alpha ~ 1 everywhere), then
	// smooth alternating with random-walk blocks (alpha flips 1 <-> ~0.5),
	// then smooth alternating with white-noise blocks (alpha flips
	// 1 <-> ~0). Each transition raises the alpha volatility.
	rng := rand.New(rand.NewSource(4))
	var xs []float64
	level := 0.0
	appendSmooth := func(k int) {
		for i := 0; i < k; i++ {
			level += 0.001
			xs = append(xs, level)
		}
	}
	appendMix := func(k int, rough func() float64) {
		for i := 0; i < k; i++ {
			if (i/32)%2 == 0 {
				level += 0.001
				xs = append(xs, level)
			} else {
				xs = append(xs, rough())
			}
		}
	}
	appendSmooth(4000)
	appendMix(5000, func() float64 { // random-walk blocks: alpha ~ 0.5
		level += 0.05 * rng.NormFloat64()
		return level
	})
	appendMix(5000, func() float64 { // white-noise blocks: alpha ~ 0
		return level + 2*rng.NormFloat64()
	})
	for _, v := range xs {
		mon.Add(v)
	}
	if len(mon.Jumps()) < 2 {
		t.Fatalf("only %d jumps detected, want >= 2", len(mon.Jumps()))
	}
	if mon.Phase() != PhaseCrashImminent {
		t.Errorf("phase = %v, want crash-imminent", mon.Phase())
	}
	jumps := mon.Jumps()
	for i := 1; i < len(jumps); i++ {
		if jumps[i].VolIndex-jumps[i-1].VolIndex < cfg.Refractory {
			t.Errorf("jumps %d and %d within refractory window", i-1, i)
		}
	}
}

func TestMonitorConstantInput(t *testing.T) {
	mon, err := NewMonitor(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = 42
		if _, fired := mon.Add(42); fired {
			t.Fatal("jump on constant input")
		}
	}
	res, err := Analyze(series.FromValues("const", xs), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Holder.Values {
		if a != 1 {
			t.Fatalf("alpha = %v on constant input, want 1", a)
		}
	}
	for _, v := range res.Volatility.Values {
		if v != 0 {
			t.Fatalf("volatility = %v on constant input, want 0", v)
		}
	}
}

func TestAnalyzeAlignment(t *testing.T) {
	xs := regimeChangeSignal(t, 8192, 5)
	s := series.FromValues("free_memory_bytes", xs)
	cfg := DefaultConfig()
	res, err := Analyze(s, cfg)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if res.Holder.Len() != s.Len()-2*cfg.MaxRadius {
		t.Errorf("holder length = %d", res.Holder.Len())
	}
	if !res.Holder.Start.Equal(s.TimeAt(cfg.MaxRadius)) {
		t.Errorf("holder start misaligned")
	}
	wantVolStart := s.TimeAt(cfg.MaxRadius + cfg.VolatilityWindow - 1)
	if !res.Volatility.Start.Equal(wantVolStart) {
		t.Errorf("volatility start = %v, want %v", res.Volatility.Start, wantVolStart)
	}
	if res.FinalPhase == PhaseHealthy {
		t.Error("regime change not reflected in final phase")
	}
	if len(res.Jumps) == 0 {
		t.Error("no jumps in analysis result")
	}
}

func TestAnalyzeTooShort(t *testing.T) {
	s := series.FromValues("x", make([]float64, 100))
	if _, err := Analyze(s, DefaultConfig()); err == nil {
		t.Error("short series should fail")
	}
}

func TestPhaseAndDetectorStrings(t *testing.T) {
	if PhaseHealthy.String() != "healthy" ||
		PhaseAgingOnset.String() != "aging-onset" ||
		PhaseCrashImminent.String() != "crash-imminent" {
		t.Error("phase strings wrong")
	}
	if Phase(0).String() == "" {
		t.Error("unknown phase string empty")
	}
	if DetectShewhart.String() != "shewhart" || DetectCUSUM.String() != "cusum" ||
		DetectPageHinkley.String() != "page-hinkley" {
		t.Error("detector strings wrong")
	}
	if DetectorKind(0).String() == "" {
		t.Error("unknown detector string empty")
	}
	if TrendOLS.String() != "ols" || TrendSen.String() != "sen" {
		t.Error("trend method strings wrong")
	}
	if TrendMethod(0).String() == "" {
		t.Error("unknown trend method string empty")
	}
}

func TestMonitorDetectorVariantsAllDetect(t *testing.T) {
	xs := regimeChangeSignal(t, 16384, 6)
	for _, kind := range []DetectorKind{DetectShewhart, DetectCUSUM, DetectPageHinkley, DetectEWMA} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Detector = kind
			mon, err := NewMonitor(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range xs {
				mon.Add(v)
			}
			jumps := mon.Jumps()
			if len(jumps) == 0 {
				t.Fatalf("%v: no jumps detected", kind)
			}
			if jumps[0].SampleIndex < 16384/2-512 {
				t.Errorf("%v: first jump at %d precedes the regime change", kind, jumps[0].SampleIndex)
			}
		})
	}
}
