package source_test

import (
	"context"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"

	"agingmf/internal/memsim"
	"agingmf/internal/source"
	"agingmf/internal/workload"
)

// newRig builds the fast-aging machine+driver pair the collector and
// chaos suites use: small memory, aggressive leak, crashes in well under
// 5000 ticks.
func newRig(t testing.TB, seed int64) (*memsim.Machine, *workload.Driver) {
	return newRigLeak(t, seed, 6)
}

// newRigLeak is newRig with a chosen leak rate (pages/tick).
func newRigLeak(t testing.TB, seed int64, leak float64) (*memsim.Machine, *workload.Driver) {
	t.Helper()
	mcfg := memsim.DefaultConfig()
	mcfg.RAMPages = 8192
	mcfg.SwapPages = 8192
	mcfg.LowWatermark = 256
	m, err := memsim.New(mcfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("memsim.New: %v", err)
	}
	wcfg := workload.DefaultDriverConfig()
	wcfg.Server.LeakPagesPerTick = leak
	d, err := workload.NewDriver(m, wcfg, nil, rand.New(rand.NewSource(seed+1)))
	if err != nil {
		t.Fatalf("NewDriver: %v", err)
	}
	return m, d
}

func TestSimSourceRunsToEOF(t *testing.T) {
	m, d := newRig(t, 1)
	src := source.NewSimFromParts(m, d, 100, 1)
	ctx := context.Background()
	n := 0
	for {
		it, err := src.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if it.Crash != memsim.CrashNone {
			t.Fatalf("unexpected crash at tick %d", it.CrashTick)
		}
		if len(it.Pairs) != 1 || len(it.Counters) != 1 {
			t.Fatalf("item shape %+v", it)
		}
		n++
	}
	if n != 100 {
		t.Fatalf("got %d items over 100 ticks, want 100", n)
	}
	if src.Ticks() != 100 {
		t.Fatalf("Ticks() = %d, want 100", src.Ticks())
	}
}

func TestSimSourceSampleEvery(t *testing.T) {
	m, d := newRig(t, 1)
	src := source.NewSimFromParts(m, d, 100, 10)
	ctx := context.Background()
	n := 0
	for {
		_, err := src.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		n++
	}
	if n != 10 {
		t.Fatalf("got %d items over 100 ticks every 10, want 10", n)
	}
}

func TestSimSourceCrashThenReboot(t *testing.T) {
	m, d := newRig(t, 1)
	src := source.NewSimFromParts(m, d, 20000, 1)
	ctx := context.Background()
	var crashItem source.Item
	for {
		it, err := src.Next(ctx)
		if err != nil {
			t.Fatalf("Next before crash: %v", err)
		}
		if it.Crash != memsim.CrashNone {
			crashItem = it
			break
		}
	}
	if crashItem.CrashTick < 1 || len(crashItem.Pairs) != 1 || len(crashItem.Counters) != 1 {
		t.Fatalf("crash item %+v: want terminal counters attached", crashItem)
	}
	// After the crash item, Next reports the crash until a reboot.
	var ce *source.CrashError
	if _, err := src.Next(ctx); !errors.As(err, &ce) {
		t.Fatalf("post-crash Next err = %T, want *CrashError", err)
	}
	if ce.Kind != crashItem.Crash || ce.Tick != crashItem.CrashTick {
		t.Fatalf("CrashError %+v does not match crash item %v@%d", ce, crashItem.Crash, crashItem.CrashTick)
	}
	if err := src.Reboot(); err != nil {
		t.Fatalf("Reboot: %v", err)
	}
	it, err := src.Next(ctx)
	if err != nil || it.Crash != memsim.CrashNone {
		t.Fatalf("post-reboot Next: item %+v, err %v", it, err)
	}
	// Reboot on a live machine is a no-op.
	if err := src.Reboot(); err != nil {
		t.Fatalf("no-op Reboot: %v", err)
	}
}

func TestSimSourceOnStepSeesEveryTick(t *testing.T) {
	m, d := newRig(t, 1)
	src := source.NewSimFromParts(m, d, 50, 10)
	var ticks []int
	src.OnStep = func(tick int, c memsim.Counters) {
		ticks = append(ticks, tick)
		if c.FreeMemoryBytes < 0 {
			t.Errorf("tick %d: negative free memory", tick)
		}
	}
	ctx := context.Background()
	for {
		if _, err := src.Next(ctx); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("Next: %v", err)
		}
	}
	if len(ticks) != 50 {
		t.Fatalf("OnStep saw %d ticks, want all 50 despite 10x decimation", len(ticks))
	}
	for i, tk := range ticks {
		if tk != i {
			t.Fatalf("OnStep tick %d at position %d", tk, i)
		}
	}
}

func TestSimSourceCancel(t *testing.T) {
	m, d := newRig(t, 1)
	src := source.NewSimFromParts(m, d, 1000, 1)
	cause := errors.New("interrupted")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	if _, err := src.Next(ctx); !errors.Is(err, cause) {
		t.Fatalf("cancelled Next err = %v, want cause %v", err, cause)
	}
}

func TestSimSourceBadConfig(t *testing.T) {
	m, d := newRig(t, 1)
	if src := source.NewSimFromParts(m, d, 0, 1); src != nil {
		t.Fatal("NewSimFromParts with maxTicks 0 should be nil")
	}
	if src := source.NewSimFromParts(nil, nil, 10, 1); src != nil {
		t.Fatal("NewSimFromParts without machine/driver should be nil")
	}
	if _, err := source.NewSim(source.SimConfig{Seed: 1, MaxTicks: 0}); !errors.Is(err, source.ErrBadConfig) {
		t.Fatalf("NewSim with MaxTicks 0 err = %v, want ErrBadConfig", err)
	}
}

func TestNewSimDefaults(t *testing.T) {
	src, err := source.NewSim(source.SimConfig{Seed: 1, MaxTicks: 10})
	if err != nil {
		t.Fatalf("NewSim: %v", err)
	}
	if src.Machine() == nil || src.Driver() == nil {
		t.Fatal("NewSim did not build machine and driver")
	}
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, err := src.Next(ctx); err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
	}
	if _, err := src.Next(ctx); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF after MaxTicks", err)
	}
}

func TestFaultSourcePassthrough(t *testing.T) {
	src := source.NewFault(newMemory(
		source.Item{Pairs: [][2]float64{{1, 2}, {3, 4}}},
	), source.FaultConfig{})
	it, err := src.Next(context.Background())
	if err != nil || len(it.Pairs) != 2 {
		t.Fatalf("passthrough item %+v, err %v", it, err)
	}
	if _, err := src.Next(context.Background()); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

func TestFaultSourceDropAll(t *testing.T) {
	drops := 0
	src := source.NewFault(newMemory(
		source.Item{Pairs: [][2]float64{{1, 2}, {3, 4}}, Counters: make([]memsim.Counters, 2)},
	), source.FaultConfig{
		RNG:      rand.New(rand.NewSource(7)),
		DropRate: 1,
		OnDrop:   func() { drops++ },
	})
	it, err := src.Next(context.Background())
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if len(it.Pairs) != 0 || drops != 2 {
		t.Fatalf("kept %d pairs, %d drops; want 0 kept, 2 dropped", len(it.Pairs), drops)
	}
	if it.Counters != nil {
		t.Fatal("counters should be discarded once pairs no longer line up")
	}
}

func TestFaultSourceCorruptAll(t *testing.T) {
	corrupts := 0
	src := source.NewFault(newMemory(
		source.Item{Pairs: [][2]float64{{1, 2}}},
	), source.FaultConfig{
		RNG:         rand.New(rand.NewSource(7)),
		CorruptRate: 1,
		OnCorrupt:   func() { corrupts++ },
	})
	it, err := src.Next(context.Background())
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if corrupts != 1 || len(it.Pairs) != 1 {
		t.Fatalf("corrupts %d, pairs %v", corrupts, it.Pairs)
	}
	if !math.IsNaN(it.Pairs[0][0]) {
		t.Fatalf("default corruption should NaN the free counter, got %v", it.Pairs[0])
	}
}

func TestFaultSourceDeterministic(t *testing.T) {
	run := func(seed int64) [][2]float64 {
		items := make([]source.Item, 50)
		for i := range items {
			items[i] = source.Item{Pairs: [][2]float64{{float64(i), float64(2 * i)}}}
		}
		src := source.NewFault(newMemory(items...), source.FaultConfig{
			RNG:         rand.New(rand.NewSource(seed)),
			DropRate:    0.2,
			CorruptRate: 0.2,
			Corrupt: func(rng *rand.Rand, p [2]float64) [2]float64 {
				p[0] = float64(rng.Intn(1000))
				return p
			},
		})
		var out [][2]float64
		for {
			it, err := src.Next(context.Background())
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("Next: %v", err)
			}
			out = append(out, it.Pairs...)
		}
		return out
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("same seed, different survivor counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, pair %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	if len(a) == 50 {
		t.Fatal("no faults injected at 20%/20% rates over 50 pairs")
	}
}
