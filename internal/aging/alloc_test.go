package aging

import (
	"math/rand"
	"testing"
)

// TestMonitorAddSteadyStateAllocs locks in the hot-path guarantee the
// fleet daemon relies on: once the pipeline is warm, Monitor.Add
// performs zero heap allocations per sample. (Jumps allocate — they append to the jump
// history — so the probe signal is stationary and the control limit is
// set high enough that no alarm fires during measurement.)
func TestMonitorAddSteadyStateAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ShewhartK = 100 // never fires on a stationary stream
	mon, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	xs := make([]float64, 8192)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	i := 0
	next := func() float64 {
		x := xs[i%len(xs)]
		i++
		return x
	}
	// Warm past the estimator/volatility/detector warmups so every stage
	// has reached its steady capacity.
	for j := 0; j < 6*len(xs); j++ {
		mon.Add(next())
	}
	if avg := testing.AllocsPerRun(5000, func() { mon.Add(next()) }); avg != 0 {
		t.Fatalf("steady-state Monitor.Add allocates %v per sample", avg)
	}
	if mon.Phase() != PhaseHealthy {
		t.Fatalf("probe signal unexpectedly jumped (phase %v); raise the control limit", mon.Phase())
	}
}
