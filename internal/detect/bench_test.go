package detect

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchSet builds a set over the scaled-down test configs.
func benchSet(b testing.TB, kinds ...string) *MonitorSet {
	set, err := New(kinds, testConfig())
	if err != nil {
		b.Fatal(err)
	}
	return set
}

// BenchmarkMonitorSetAdd measures the per-sample cost of the set across
// suite shapes on the per-sample path. The ≤2.5× two-detector budget is
// asserted on the daemon's column path, by TestMonitorSetOverheadBudget
// in internal/ingest.
func BenchmarkMonitorSetAdd(b *testing.B) {
	shapes := [][]string{
		{KindHolder},
		{KindHolder, KindEntropy},
		{KindHolder, KindEntropy, KindAdaptive},
	}
	for _, kinds := range shapes {
		b.Run(fmt.Sprintf("detectors=%d", len(kinds)), func(b *testing.B) {
			set := benchSet(b, kinds...)
			rng := rand.New(rand.NewSource(1))
			next := func() (float64, float64) {
				return 100 + rng.Float64() - 0.5, 5 + 0.05*(rng.Float64()-0.5)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				free, swap := next()
				set.Add(free, swap)
			}
		})
	}
}

// TestMonitorSetSteadyStateAllocs pins the hot path: a quiet stream
// through the full suite allocates nothing per sample.
func TestMonitorSetSteadyStateAllocs(t *testing.T) {
	set := benchSet(t, KindHolder, KindEntropy, KindAdaptive)
	rng := rand.New(rand.NewSource(2))
	// Warm past every warmup boundary so ring growth is done.
	for i := 0; i < 4000; i++ {
		set.Add(100+rng.Float64()-0.5, 5+0.05*(rng.Float64()-0.5))
	}
	if avg := testing.AllocsPerRun(5000, func() {
		set.Add(100+rng.Float64()-0.5, 5+0.05*(rng.Float64()-0.5))
	}); avg != 0 {
		t.Fatalf("steady-state Add allocates %v times per sample, want 0", avg)
	}
}
