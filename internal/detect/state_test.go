package detect

import (
	"math/rand"
	"testing"

	"agingmf/internal/aging"
	"agingmf/internal/memsim"
	"agingmf/internal/workload"
)

// memsimPairs simulates one memsim machine at the default hardware and
// stress workload, its server leaking leak pages per tick, and returns up
// to n (free, swap) samples (fewer if the machine crashes).
func memsimPairs(t testing.TB, seed int64, leak float64, n int) (free, swap []float64) {
	t.Helper()
	m, err := memsim.New(memsim.DefaultConfig(), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	wcfg := workload.DefaultDriverConfig()
	server := *wcfg.Server
	server.LeakPagesPerTick = leak
	wcfg.Server = &server
	d, err := workload.NewDriver(m, wcfg, nil, rand.New(rand.NewSource(seed+1e6)))
	if err != nil {
		t.Fatal(err)
	}
	for len(free) < n {
		c, err := d.Step()
		if err != nil {
			break // crash is the machine's natural endpoint
		}
		free = append(free, c.FreeMemoryBytes)
		swap = append(swap, c.UsedSwapBytes)
	}
	return free, swap
}

// TestAdaptiveInheritsSetMonitorConfig: a set config that leaves
// Adaptive zero runs the adaptive detector on the set's monitor config,
// not on aging.DefaultConfig.
func TestAdaptiveInheritsSetMonitorConfig(t *testing.T) {
	mon := aging.DefaultConfig()
	mon.HistoryLimit = 4096
	mon.MaxRadius = 16
	set, err := New([]string{KindAdaptive}, Config{Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	got := set.Lookup(KindAdaptive).(*Adaptive).Config()
	if got.Monitor != mon {
		t.Fatalf("adaptive monitor config %+v, want the set's %+v", got.Monitor, mon)
	}
	want := DefaultAdaptiveConfig()
	want.Monitor = mon
	if got != want {
		t.Fatalf("adaptive config %+v, want the adaptive defaults on the set's monitor %+v", got, want)
	}
}

// TestMonitorSetStateStaysConstant is the deterministic state-size
// guard: a holder+entropy+adaptive set at the default configuration,
// fed a memsim trace in 256-sample column units, saves a blob of at most
// 32 KiB whose length after 40,960 samples is within 64 B of its length
// after 4,096. It counts bytes, not time.
func TestMonitorSetStateStaysConstant(t *testing.T) {
	const (
		unit    = 256
		early   = 4096
		samples = 40960
		maxBlob = 32 << 10
		slack   = 64
	)
	free, swap := memsimPairs(t, 7, 0, samples)
	if len(free) != samples {
		t.Fatalf("memsim trace ended after %d samples, want %d", len(free), samples)
	}
	set, err := New([]string{KindHolder, KindEntropy, KindAdaptive}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var earlyLen int
	for off := 0; off < samples; off += unit {
		set.AddColumns(free[off:off+unit], swap[off:off+unit])
		if off+unit == early {
			blob, err := set.SaveState()
			if err != nil {
				t.Fatal(err)
			}
			earlyLen = len(blob)
		}
	}
	blob, err := set.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("set state: %d B after %d samples, %d B after %d", earlyLen, early, len(blob), samples)
	if len(blob) > maxBlob {
		t.Errorf("set state is %d B after %d samples, budget %d B", len(blob), samples, maxBlob)
	}
	if d := len(blob) - earlyLen; d > slack || d < -slack {
		t.Errorf("set state changed %d B between %d and %d samples, allowed ±%d", d, early, samples, slack)
	}
}
