package stream

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"agingmf/internal/memsim"
	"agingmf/internal/workload"
)

// columnarTraces are the waveforms the columnar-kernel parity tests run:
// each stresses a different branch of the batch estimator (memo hits on
// plateaus, memo misses on noise, the osc<=0 locally-constant path, and
// denormal-scale values).
func columnarTraces() map[string][]float64 {
	rng := rand.New(rand.NewSource(7))
	noisy := make([]float64, 800)
	for i := range noisy {
		noisy[i] = 1e9 - 1000*float64(i) + 50*rng.NormFloat64()
	}
	ramp := make([]float64, 800)
	for i := range ramp {
		ramp[i] = float64(i) * 4096
	}
	steps := make([]float64, 800)
	for i := range steps {
		steps[i] = float64((i / 37) * 1 << 20)
	}
	flat := make([]float64, 800)
	for i := range flat {
		flat[i] = 42
	}
	tiny := make([]float64, 800)
	for i := range tiny {
		tiny[i] = 1e-300 * (1 + rng.Float64())
	}
	return map[string][]float64{
		"noisy": noisy, "ramp": ramp, "steps": steps, "flat": flat, "tiny": tiny,
	}
}

// TestPushRangeParity drives one tracker through push and pushRange in
// every batch-split pattern and requires identical state.
func TestPushRangeParity(t *testing.T) {
	for name, xs := range columnarTraces() {
		for _, r := range []int{1, 2, 8} {
			ref := newSlidingExtrema(r)
			for i, x := range xs {
				ref.push(i, x)
			}
			for _, chunk := range []int{1, 3, 64, len(xs)} {
				got := newSlidingExtrema(r)
				for off := 0; off < len(xs); off += chunk {
					end := off + chunk
					if end > len(xs) {
						end = len(xs)
					}
					got.pushRange(off, xs[off:end])
				}
				if !reflect.DeepEqual(got.state(), ref.state()) {
					t.Fatalf("%s r=%d chunk=%d: pushRange state diverged from push", name, r, chunk)
				}
			}
		}
	}
}

// parityLadders are the ladders the kernel parity tests run: the shipped
// dyadic 2..32, dyadic ladders from radius 1 and from 4, an odd base
// (inserted radius-2 rung), and the non-dyadic shapes holder's fallback
// builds for (min, max) = (2, 6), (4, 10) and (1, 2), repeats included.
func parityLadders() []paritySpec {
	return []paritySpec{
		{"2..32", []int{2, 4, 8, 16, 32}},
		{"1..16", []int{1, 2, 4, 8, 16}},
		{"4..64", []int{4, 8, 16, 32, 64}},
		{"3,6,12,24", []int{3, 6, 12, 24}},
		{"fallback2..6", []int{2, 4, 6}},
		{"fallback4..10", []int{4, 7, 10}},
		{"fallback1..2", []int{1, 2, 2}},
	}
}

type paritySpec struct {
	name  string
	radii []int
}

// parityInputs extends columnarTraces with memsim counters and the
// inputs that stress tie resolution: long plateaus, values drawn from a
// handful of levels, and signed zeros (whose bits a tie decides).
func parityInputs(t testing.TB) map[string][]float64 {
	in := columnarTraces()
	free, swap := memsimColumns(t, 3000)
	in["memsim-free"], in["memsim-swap"] = free, swap
	rng := rand.New(rand.NewSource(11))
	plateaus := make([]float64, 1500)
	levels := make([]float64, 1500)
	zeros := make([]float64, 1500)
	level := 0.0
	for i := range plateaus {
		if rng.Intn(40) == 0 {
			level += float64(rng.Intn(7) - 3)
		}
		plateaus[i] = level
		levels[i] = float64(rng.Intn(3)) * 4096
		zeros[i] = []float64{0, math.Copysign(0, -1), 0, math.Copysign(0, -1), 1, -1}[rng.Intn(6)]
	}
	in["plateaus"], in["levels"], in["signed-zeros"] = plateaus, levels, zeros
	return in
}

// memsimColumns simulates one machine leaking memory under the default
// stress workload and returns up to n samples of its free-memory and
// used-swap counters.
func memsimColumns(t testing.TB, n int) (free, swap []float64) {
	t.Helper()
	m, err := memsim.New(memsim.DefaultConfig(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	wcfg := workload.DefaultDriverConfig()
	server := *wcfg.Server
	server.LeakPagesPerTick = 0.6
	wcfg.Server = &server
	d, err := workload.NewDriver(m, wcfg, nil, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		c, err := d.Step()
		if err != nil {
			break
		}
		free = append(free, c.FreeMemoryBytes)
		swap = append(swap, c.UsedSwapBytes)
	}
	if len(free) < n/2 {
		t.Fatalf("memsim trace too short: %d samples", len(free))
	}
	return free, swap
}

// parityChunks is the batch sizes the kernel parity tests split a
// stream into, around the top-rung window w = 2*maxR+1 (below it the
// deques run; from it on, the ladder kernel) and around multiples of
// the shipped 64-sample window.
func parityChunks(radii []int, n int) []int {
	w := 2*slices.Max(radii) + 1
	return []int{1, w - 1, w, w + 1, 64, 65, 129, 130, 131, 256, 1000, n}
}

// perSample is the oracle: every sample through Push.
func perSample(t testing.TB, radii []int, xs []float64) ([]float64, *OscillationEstimator) {
	t.Helper()
	ref, err := NewOscillationEstimator(radii)
	if err != nil {
		t.Fatal(err)
	}
	var want []float64
	for _, x := range xs {
		if a, ok := ref.Push(x); ok {
			want = append(want, a)
		}
	}
	return want, ref
}

// pushChunks feeds xs through PushColumns in chunk-sized batches.
func pushChunks(e *OscillationEstimator, xs []float64, chunk int, out []float64) []float64 {
	for off := 0; off < len(xs); off += chunk {
		out = e.PushColumns(xs[off:min(off+chunk, len(xs))], out)
	}
	return out
}

// sameBits reports the first position where two alpha columns differ in
// length or bits, or "" when they agree.
func sameBits(have, want []float64) string {
	if len(have) != len(want) {
		return fmt.Sprintf("%d alphas, want %d", len(have), len(want))
	}
	for i := range have {
		if math.Float64bits(have[i]) != math.Float64bits(want[i]) {
			return fmt.Sprintf("alpha[%d] = %v, want %v", i, have[i], want[i])
		}
	}
	return ""
}

// sameState requires deep-equal states with equal gob encodings: gob
// keeps float bits, so a -0 where the oracle holds +0 fails too.
func sameState(t testing.TB, got, want OscillationEstimatorState) bool {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		return false
	}
	var a, b bytes.Buffer
	if err := gob.NewEncoder(&a).Encode(got); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(&b).Encode(want); err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(a.Bytes(), b.Bytes())
}

// TestPushColumnsParity requires PushColumns to emit bit-identical
// estimates and leave bit-identical estimator state versus per-sample
// Push, for every parity ladder, input and chunking: batches that split
// warm-up, stay on the deques, or run the ladder kernel.
func TestPushColumnsParity(t *testing.T) {
	inputs := parityInputs(t)
	for _, ld := range parityLadders() {
		lname, radii := ld.name, ld.radii
		for name, xs := range inputs {
			want, ref := perSample(t, radii, xs)
			for _, chunk := range parityChunks(radii, len(xs)) {
				got, err := NewOscillationEstimator(radii)
				if err != nil {
					t.Fatal(err)
				}
				have := pushChunks(got, xs, chunk, nil)
				if d := sameBits(have, want); d != "" {
					t.Fatalf("%s %s chunk=%d: %s", lname, name, chunk, d)
				}
				if !sameState(t, got.State(), ref.State()) {
					t.Fatalf("%s %s chunk=%d: estimator state diverged", lname, name, chunk)
				}
			}
		}
	}
}

// TestPushColumnsRestoreParity cuts each stream at random points,
// restores a fresh estimator from State() there (the restored one has
// no raw tail, so its first batch takes the deques), and requires the
// resumed run to match the per-sample oracle bit for bit.
func TestPushColumnsRestoreParity(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	inputs := parityInputs(t)
	for _, ld := range parityLadders() {
		lname, radii := ld.name, ld.radii
		for name, xs := range inputs {
			want, ref := perSample(t, radii, xs)
			chunks := parityChunks(radii, len(xs))
			for trial := 0; trial < 4; trial++ {
				cut := rng.Intn(len(xs) + 1)
				before, after := chunks[rng.Intn(len(chunks))], chunks[rng.Intn(len(chunks))]
				first, err := NewOscillationEstimator(radii)
				if err != nil {
					t.Fatal(err)
				}
				have := pushChunks(first, xs[:cut], before, nil)
				resumed, err := RestoreOscillationEstimator(first.State())
				if err != nil {
					t.Fatal(err)
				}
				have = pushChunks(resumed, xs[cut:], after, have)
				if d := sameBits(have, want); d != "" {
					t.Fatalf("%s %s cut=%d chunks %d/%d: %s", lname, name, cut, before, after, d)
				}
				if !sameState(t, resumed.State(), ref.State()) {
					t.Fatalf("%s %s cut=%d chunks %d/%d: estimator state diverged", lname, name, cut, before, after)
				}
			}
		}
	}
}

// TestPushColumnsConcurrent runs estimators on several goroutines at
// once, as shards do: they share the kernel's pooled scratch, and each
// must still match its own per-sample oracle.
func TestPushColumnsConcurrent(t *testing.T) {
	free, swap := memsimColumns(t, 3000)
	radii := []int{2, 4, 8, 16, 32}
	inputs := [][]float64{free, swap}
	wants := make([][]float64, len(inputs))
	refs := make([]OscillationEstimatorState, len(inputs))
	for i, xs := range inputs {
		want, ref := perSample(t, radii, xs)
		wants[i], refs[i] = want, ref.State()
	}
	start := make(chan struct{})
	errs := make(chan string, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(in, chunk int) {
			defer wg.Done()
			<-start
			got, err := NewOscillationEstimator(radii)
			if err != nil {
				errs <- err.Error()
				return
			}
			if d := sameBits(pushChunks(got, inputs[in], chunk, nil), wants[in]); d != "" {
				errs <- fmt.Sprintf("chunk=%d: %s", chunk, d)
			} else if !reflect.DeepEqual(got.State(), refs[in]) {
				errs <- fmt.Sprintf("chunk=%d: estimator state diverged", chunk)
			}
		}(g%2, 65+64*g)
	}
	close(start)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// FuzzPushColumnsParity drives arbitrary small-integer streams (byte
// 0x80 encodes -0) through PushColumns in arbitrary chunk sizes on each
// parity ladder, restoring from State() midway, against per-sample
// Push: alphas bit for bit, states deep-equal and gob-identical.
func FuzzPushColumnsParity(f *testing.F) {
	f.Add([]byte{1, 2, 3, 250, 0x80, 0, 7, 7, 7, 9}, uint8(0), uint16(65), uint16(3))
	f.Add(bytes.Repeat([]byte{5, 5, 0x80, 0, 200, 1}, 60), uint8(3), uint16(130), uint16(100))
	f.Add(bytes.Repeat([]byte{0, 1, 2, 3, 4, 5, 6, 7}, 80), uint8(6), uint16(256), uint16(9))
	ladders := parityLadders()
	f.Fuzz(func(t *testing.T, data []byte, ladder uint8, chunk, cut uint16) {
		radii := ladders[int(ladder)%len(ladders)].radii
		xs := make([]float64, len(data))
		for i, b := range data {
			if b == 0x80 {
				xs[i] = math.Copysign(0, -1)
			} else {
				xs[i] = float64(int8(b))
			}
		}
		want, ref := perSample(t, radii, xs)
		c := 1 + int(chunk)%300
		k := int(cut) % (len(xs) + 1)
		got, err := NewOscillationEstimator(radii)
		if err != nil {
			t.Fatal(err)
		}
		have := pushChunks(got, xs[:k], c, nil)
		if got, err = RestoreOscillationEstimator(got.State()); err != nil {
			t.Fatal(err)
		}
		have = pushChunks(got, xs[k:], c, have)
		if d := sameBits(have, want); d != "" {
			t.Fatalf("ladder %v chunk=%d cut=%d: %s", radii, c, k, d)
		}
		if !sameState(t, got.State(), ref.State()) {
			t.Fatalf("ladder %v chunk=%d cut=%d: estimator state diverged", radii, c, k)
		}
	})
}

// TestPushColumnsInterleaved mixes Push and PushColumns on one estimator:
// the memo must never go stale when per-sample pushes run between
// batches.
func TestPushColumnsInterleaved(t *testing.T) {
	radii := []int{2, 4, 8}
	xs := columnarTraces()["noisy"]
	ref, _ := NewOscillationEstimator(radii)
	var want []float64
	for _, x := range xs {
		if a, ok := ref.Push(x); ok {
			want = append(want, a)
		}
	}
	got, _ := NewOscillationEstimator(radii)
	var have []float64
	for off := 0; off < len(xs); {
		if (off/10)%2 == 0 && off < len(xs) {
			if a, ok := got.Push(xs[off]); ok {
				have = append(have, a)
			}
			off++
			continue
		}
		end := off + 23
		if end > len(xs) {
			end = len(xs)
		}
		have = got.PushColumns(xs[off:end], have)
		off = end
	}
	if !reflect.DeepEqual(have, want) {
		t.Fatalf("interleaved Push/PushColumns diverged: %d vs %d alphas", len(have), len(want))
	}
	if !reflect.DeepEqual(got.State(), ref.State()) {
		t.Fatal("interleaved estimator state diverged")
	}
}

// BenchmarkPushColumns times the batch kernel on a memsim machine's free
// and used-swap counters, at the shipped ladder and in the daemon's
// 256-sample units; ns/sample counts both counters' samples.
func BenchmarkPushColumns(b *testing.B) {
	free, swap := memsimColumns(b, 40960)
	radii := []int{2, 4, 8, 16, 32}
	var out []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, xs := range [][]float64{free, swap} {
			e, err := NewOscillationEstimator(radii)
			if err != nil {
				b.Fatal(err)
			}
			for off := 0; off < len(xs); off += 256 {
				out = e.PushColumns(xs[off:min(off+256, len(xs))], out[:0])
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(len(free)+len(swap))), "ns/sample")
}
