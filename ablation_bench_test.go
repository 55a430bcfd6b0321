package agingmf_test

import (
	"testing"

	"agingmf"
)

// Ablation benchmarks for the design choices called out in DESIGN.md §5:
// each pair lets `go test -bench` quantify the cost side of a design
// trade whose quality side is covered by the tests and experiments.

// BenchmarkWaveletLeaderTrajectory is the ablation partner of
// BenchmarkOscillationTrajectory (estimator choice for the Hölder
// trajectory).
func BenchmarkWaveletLeaderTrajectory(b *testing.B) {
	xs, err := agingmf.FBM(1<<14, 0.5, agingmf.NewRand(11))
	if err != nil {
		b.Fatal(err)
	}
	s := agingmf.SeriesFromValues("bench", xs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agingmf.WaveletLeaderTrajectory(s, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMFDFAOrder2 is the ablation partner of BenchmarkMFDFA
// (detrending order 1 vs 2).
func BenchmarkMFDFAOrder2(b *testing.B) {
	xs, err := agingmf.LognormalCascadeNoise(14, 0.4, agingmf.NewRand(12))
	if err != nil {
		b.Fatal(err)
	}
	cfg := agingmf.DefaultMFDFAConfig()
	cfg.Order = 2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agingmf.MFDFA(xs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStructureFunction benches the positive-moment alternative to
// MF-DFA.
func BenchmarkStructureFunction(b *testing.B) {
	xs, err := agingmf.FBM(1<<14, 0.6, agingmf.NewRand(13))
	if err != nil {
		b.Fatal(err)
	}
	qs := []float64{0.5, 1, 2, 3, 4, 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agingmf.StructureFunction(xs, qs); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMonitorDetector measures the online monitor under each jump
// detector (Shewhart vs CUSUM vs Page–Hinkley).
func benchMonitorDetector(b *testing.B, kind agingmf.DetectorKind) {
	b.Helper()
	cfg := agingmf.DefaultMonitorConfig()
	cfg.Detector = kind
	mon, err := agingmf.NewMonitor(cfg)
	if err != nil {
		b.Fatal(err)
	}
	xs, err := agingmf.FBM(1<<16, 0.6, agingmf.NewRand(14))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mon.Add(xs[i%len(xs)])
	}
}

// BenchmarkMonitorAddCUSUM is the CUSUM ablation of BenchmarkMonitorAdd.
func BenchmarkMonitorAddCUSUM(b *testing.B) { benchMonitorDetector(b, agingmf.DetectCUSUM) }

// BenchmarkMonitorAddPageHinkley is the Page–Hinkley ablation.
func BenchmarkMonitorAddPageHinkley(b *testing.B) { benchMonitorDetector(b, agingmf.DetectPageHinkley) }

// BenchmarkHiguchi benches the Higuchi dimension estimator (cross-check
// of the Hurst family).
func BenchmarkHiguchi(b *testing.B) {
	xs, err := agingmf.FBM(1<<14, 0.5, agingmf.NewRand(15))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agingmf.Higuchi(xs, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHurstPeriodogram benches the spectral Hurst estimator.
func BenchmarkHurstPeriodogram(b *testing.B) {
	xs, err := agingmf.FGNDaviesHarte(1<<14, 0.7, agingmf.NewRand(16))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agingmf.HurstPeriodogram(xs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCrashPredictorAdd measures the hybrid predictor's per-sample
// cost (dual monitor + deferred trend fits).
func BenchmarkCrashPredictorAdd(b *testing.B) {
	p, err := agingmf.NewCrashPredictor(agingmf.DefaultPredictorConfig(1 << 30))
	if err != nil {
		b.Fatal(err)
	}
	free, err := agingmf.FBM(1<<16, 0.6, agingmf.NewRand(17))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Add(free[i%len(free)], float64(i))
	}
}
