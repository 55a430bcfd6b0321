package aging

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// columnarTestConfig is a small-window configuration (the ingest test
// config) so warmup, jumps and refractory all happen within a few
// hundred samples.
func columnarTestConfig() Config {
	cfg := DefaultConfig()
	cfg.MinRadius = 2
	cfg.MaxRadius = 8
	cfg.VolatilityWindow = 8
	cfg.DetectorWarmup = 8
	cfg.Refractory = 4
	return cfg
}

// volatileTrace is a noisy decaying counter whose noise amplitude steps
// up twice, so the monitor fires jumps (and, for standardizing
// detectors, recalibrates) during the run.
func volatileTrace(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	amp := 10.0
	for i := range xs {
		if i == n/3 || i == 2*n/3 {
			amp *= 8
		}
		xs[i] = 1e9 - 500*float64(i) + amp*rng.NormFloat64()
	}
	return xs
}

// addColumnsChunked drives AddColumns in fixed-size chunks, collecting
// every fired jump.
func addColumnsChunked(m *Monitor, xs []float64, chunk int) []Jump {
	var fired []Jump
	for off := 0; off < len(xs); off += chunk {
		end := off + chunk
		if end > len(xs) {
			end = len(xs)
		}
		fired = append(fired, m.AddColumns(xs[off:end])...)
	}
	return fired
}

// TestAddColumnsParity is the core tentpole invariant: AddColumns must
// leave the monitor byte-for-byte identical to per-sample Add — same
// SaveState blob, same jumps, same phase — for every chunking and
// detector family (Shewhart self-calibrates, CUSUM exercises the
// standardizer recalibration path).
func TestAddColumnsParity(t *testing.T) {
	xs := volatileTrace(3, 1200)
	for _, det := range []DetectorKind{DetectShewhart, DetectCUSUM} {
		cfg := columnarTestConfig()
		cfg.Detector = det
		ref, err := NewMonitor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var want []Jump
		for _, x := range xs {
			if j, ok := ref.Add(x); ok {
				want = append(want, j)
			}
		}
		if len(want) == 0 {
			t.Fatalf("det=%v: reference fired no jumps; trace too tame", det)
		}
		refState, err := ref.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range []int{1, 7, 64, 256, len(xs)} {
			m, err := NewMonitor(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := addColumnsChunked(m, xs, chunk)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("det=%v chunk=%d: jumps %v, want %v", det, chunk, got, want)
			}
			gotState, err := m.SaveState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotState, refState) {
				t.Fatalf("det=%v chunk=%d: SaveState diverged from per-sample Add", det, chunk)
			}
		}
	}
}

// TestAddColumnsInterleaved mixes Add, AddTraced and AddColumns on one
// monitor and requires the same final state as pure per-sample feeding.
func TestAddColumnsInterleaved(t *testing.T) {
	cfg := columnarTestConfig()
	xs := volatileTrace(11, 1000)
	ref, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range xs {
		ref.Add(x)
	}
	m, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(xs); {
		switch n := len(xs) - off; {
		case off%3 == 0:
			m.Add(xs[off])
			off++
		case off%3 == 1 && n >= 10:
			var tm StageNanos
			for _, x := range xs[off : off+10] {
				m.AddTraced(x, &tm)
			}
			off += 10
		default:
			end := off + 31
			if end > len(xs) {
				end = len(xs)
			}
			m.AddColumns(xs[off:end])
			off = end
		}
	}
	refState, _ := ref.SaveState()
	gotState, _ := m.SaveState()
	if !bytes.Equal(gotState, refState) {
		t.Fatal("interleaved Add/AddTraced/AddColumns diverged from per-sample Add")
	}
}

// TestDualAddColumnsParity pins the jump-merge ordering: the dual
// columnar path must report jumps in per-pair free-then-swap arrival
// order and keep SaveState identical to the per-pair Add loop.
func TestDualAddColumnsParity(t *testing.T) {
	cfg := columnarTestConfig()
	free := volatileTrace(21, 1200)
	swap := volatileTrace(22, 1200)
	ref, err := NewDualMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([][2]float64, len(free))
	for i := range pairs {
		pairs[i] = [2]float64{free[i], swap[i]}
	}
	var want []DualJump
	for _, p := range pairs {
		want = append(want, ref.Add(p[0], p[1])...)
	}
	if len(want) < 2 {
		t.Fatalf("reference fired %d jumps; need at least 2 to exercise the merge", len(want))
	}
	refState, err := ref.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 97, len(free)} {
		m, err := NewDualMonitor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var got []DualJump
		for off := 0; off < len(free); off += chunk {
			end := off + chunk
			if end > len(free) {
				end = len(free)
			}
			got = append(got, m.AddColumns(free[off:end], swap[off:end])...)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("chunk=%d: dual jumps %v, want %v", chunk, got, want)
		}
		gotState, err := m.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotState, refState) {
			t.Fatalf("chunk=%d: dual SaveState diverged", chunk)
		}
	}
}
