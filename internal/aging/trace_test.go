package aging

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestAddTracedParity is the safety property the traced fleet path rests
// on: AddTraced must leave the monitor in byte-for-byte the same state
// as Add over the same stream — stage timing reads the clock and nothing
// else. A drift here would break the agingd self-test's parity check the
// moment the flight recorder is enabled.
func TestAddTracedParity(t *testing.T) {
	cfg := DefaultConfig()
	plain, err := NewDualMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := NewDualMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	free, swap := 2e9, 0.0
	var tm StageNanos
	jumpsPlain, jumpsTraced := 0, 0
	for i := 0; i < 4000; i++ {
		free -= rng.Float64() * 2e5
		swap += rng.Float64() * 1e4
		jumpsPlain += len(plain.Add(free, swap))
		jumpsTraced += len(traced.AddTraced(free, swap, &tm))
	}
	if jumpsPlain != jumpsTraced {
		t.Fatalf("jump counts diverged: plain %d, traced %d", jumpsPlain, jumpsTraced)
	}
	want, err := plain.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	got, err := traced.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("AddTraced state differs from Add state over the same stream")
	}
	if tm.Est == 0 || tm.Vol == 0 || tm.Std == 0 || tm.Gate == 0 {
		t.Errorf("stage timings not accumulated: %+v", tm)
	}

	traced.AddTraced(free, swap, nil) // nil timings: the recorder-only path
	fStat, sStat := traced.LastStats()
	if fStat == 0 && sStat == 0 {
		t.Error("LastStats still zero after 4000 samples (detector baseline should be calibrated)")
	}
}

// TestAddTracedNilTimingsNoAllocs mirrors the steady-state alloc
// guarantee for the traced entry point with timing disabled — the form
// the fleet daemon uses whenever a unit is not sampled but the flight
// recorder is on.
func TestAddTracedNilTimingsNoAllocs(t *testing.T) {
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
	for j := 0; j < 6*len(xs); j++ {
		mon.AddTraced(next(), nil)
	}
	if avg := testing.AllocsPerRun(5000, func() { mon.AddTraced(next(), nil) }); avg != 0 {
		t.Fatalf("steady-state AddTraced(x, nil) allocates %v per sample", avg)
	}
}
