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

// TestPushRangeParity drives one tracker through pushRange in every
// batch-split pattern and requires the state the raw view derives: the
// deques dequeView reads off the last window and, with nothing trimmed,
// the oscillation of every complete window by direct scan.
func TestPushRangeParity(t *testing.T) {
	for name, xs := range columnarTraces() {
		for _, r := range []int{1, 2, 8} {
			want := dequeView(xs, 0, r)
			want.OscBase = r
			for c := r; c+r < len(xs); c++ {
				win := xs[c-r : c+r+1]
				want.Osc = append(want.Osc, slices.Max(win)-slices.Min(win))
			}
			for _, chunk := range []int{1, 3, 64, len(xs)} {
				got := newSlidingExtrema(r)
				for off := 0; off < len(xs); off += chunk {
					got.pushRange(off, xs[off:min(off+chunk, len(xs))])
				}
				if !reflect.DeepEqual(got.state(), want) {
					t.Fatalf("%s r=%d chunk=%d: pushRange state diverged from the raw view", name, r, chunk)
				}
			}
		}
	}
}

// dequeRef is the deque reference the raw kernels must match: trackers
// advanced with pushRange sample by sample and kept for good, each
// estimate regressed from their pending oscillations, and the estimator
// state read off them.
type dequeRef struct {
	e    *OscillationEstimator // for the ladder and the regression
	trk  []*slidingExtrema
	seen int
}

func newDequeRef(t testing.TB, radii []int) *dequeRef {
	t.Helper()
	e, err := NewOscillationEstimator(radii)
	if err != nil {
		t.Fatal(err)
	}
	d := &dequeRef{e: e}
	for _, r := range radii {
		d.trk = append(d.trk, newSlidingExtrema(r))
	}
	return d
}

func (d *dequeRef) push(x float64) (float64, bool) {
	for _, tr := range d.trk {
		tr.pushRange(d.seen, []float64{x})
	}
	d.seen++
	c := d.seen - 1 - d.e.maxR
	if c < d.e.maxR {
		return 0, false
	}
	alpha := 1.0
	logs := make([]float64, len(d.trk))
	for i, tr := range d.trk {
		osc := tr.at(c)
		if osc <= 0 {
			logs = nil
			break
		}
		logs[i] = math.Log(osc)
	}
	if logs != nil {
		alpha = d.e.slope(logs)
	}
	for _, tr := range d.trk {
		tr.trim(c + 1)
	}
	return alpha, true
}

func (d *dequeRef) state() OscillationEstimatorState {
	st := OscillationEstimatorState{Radii: slices.Clone(d.e.radii), Seen: d.seen}
	for _, tr := range d.trk {
		st.Trackers = append(st.Trackers, tr.state())
	}
	return st
}

// viewLadders are the ladders the derived-view tests run: the shipped
// dyadic 2..32, an odd one, an irregular one, and repeated and unsorted
// radii.
func viewLadders() []paritySpec {
	return []paritySpec{
		{"2..32", []int{2, 4, 8, 16, 32}},
		{"odd", []int{3, 5, 7}},
		{"irregular", []int{2, 3, 7, 20}},
		{"repeated-unsorted", []int{8, 2, 4, 4, 1, 8}},
	}
}

// TestRawKernelMatchesDequeReference pushes each input one sample at a
// time through the raw kernel and the deque reference, and at every
// prefix length 0...3*maxR+2 requires bit-identical alphas and states
// that gob-encode identically. It then restores from the state at every
// one of those prefix lengths, so the refill crosses into the raw kernel
// at every offset, continues, and requires the same alphas after every
// sample and the same states through the refill and at the end.
func TestRawKernelMatchesDequeReference(t *testing.T) {
	inputs := parityInputs(t)
	// One encoder per side for the whole test, so each state after the
	// first costs its values only, not gob's type descriptors again.
	var gotBuf, wantBuf bytes.Buffer
	gotEnc, wantEnc := gob.NewEncoder(&gotBuf), gob.NewEncoder(&wantBuf)
	sameState := func(got, want OscillationEstimatorState) bool {
		gotBuf.Reset()
		wantBuf.Reset()
		if err := gotEnc.Encode(got); err != nil {
			t.Fatal(err)
		}
		if err := wantEnc.Encode(want); err != nil {
			t.Fatal(err)
		}
		return reflect.DeepEqual(got, want) && bytes.Equal(gotBuf.Bytes(), wantBuf.Bytes())
	}
	for _, ld := range viewLadders() {
		maxR := slices.Max(ld.radii)
		n := 3*maxR + 3
		for _, name := range []string{"memsim-free", "levels", "signed-zeros", "noisy"} {
			xs := inputs[name][:2*n]
			ref := newDequeRef(t, ld.radii)
			var want []float64
			var states []OscillationEstimatorState
			for _, x := range xs {
				states = append(states, ref.state())
				if a, ok := ref.push(x); ok {
					want = append(want, a)
				}
			}
			states = append(states, ref.state())
			got, err := NewOscillationEstimator(ld.radii)
			if err != nil {
				t.Fatal(err)
			}
			var have []float64
			for k := 0; k < n; k++ {
				if !sameState(got.State(), states[k]) {
					t.Fatalf("%s %s prefix %d: state diverged from the deque reference", ld.name, name, k)
				}
				if a, ok := got.Push(xs[k]); ok {
					have = append(have, a)
				}
			}
			if d := sameBits(have, want[:len(have)]); d != "" {
				t.Fatalf("%s %s: %s", ld.name, name, d)
			}
			for cut := 0; cut < n; cut++ {
				resumed, err := RestoreOscillationEstimator(states[cut])
				if err != nil {
					t.Fatal(err)
				}
				emitted := max(cut-2*maxR, 0)
				for k := cut; k < len(xs); k++ {
					a, ok := resumed.Push(xs[k])
					if ok != (k >= 2*maxR) || (ok && math.Float64bits(a) != math.Float64bits(want[emitted])) {
						t.Fatalf("%s %s cut %d: sample %d diverged from the deque reference", ld.name, name, cut, k)
					}
					if ok {
						emitted++
					}
					// States through the refill and one past it, then the last.
					if k > cut+2*maxR+2 && k < len(xs)-1 {
						continue
					}
					if !sameState(resumed.State(), states[k+1]) {
						t.Fatalf("%s %s cut %d: state after sample %d diverged from the deque reference", ld.name, name, cut, k)
					}
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
// parity and view ladder, restoring from State() at two points (the
// second may fall inside the first restore's refill), against
// per-sample Push and the deque reference: alphas bit for bit, states
// deep-equal and gob-identical.
func FuzzPushColumnsParity(f *testing.F) {
	f.Add([]byte{1, 2, 3, 250, 0x80, 0, 7, 7, 7, 9}, uint8(0), uint16(65), uint16(3), uint16(2))
	f.Add(bytes.Repeat([]byte{5, 5, 0x80, 0, 200, 1}, 60), uint8(3), uint16(130), uint16(100), uint16(30))
	f.Add(bytes.Repeat([]byte{0, 1, 2, 3, 4, 5, 6, 7}, 80), uint8(6), uint16(256), uint16(9), uint16(70))
	f.Add(bytes.Repeat([]byte{9, 0x80, 3, 3, 0, 250, 4}, 40), uint8(9), uint16(1), uint16(50), uint16(20))
	ladders := append(parityLadders(), viewLadders()...)
	f.Fuzz(func(t *testing.T, data []byte, ladder uint8, chunk, cut, cut2 uint16) {
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
		dref := newDequeRef(t, radii)
		var dwant []float64
		for _, x := range xs {
			if a, ok := dref.push(x); ok {
				dwant = append(dwant, a)
			}
		}
		if d := sameBits(want, dwant); d != "" {
			t.Fatalf("ladder %v: Push vs deque reference: %s", radii, d)
		}
		if !sameState(t, ref.State(), dref.state()) {
			t.Fatalf("ladder %v: Push state diverged from the deque reference", radii)
		}
		c := 1 + int(chunk)%300
		k1 := int(cut) % (len(xs) + 1)
		k2 := k1 + int(cut2)%(len(xs)-k1+1)
		got, err := NewOscillationEstimator(radii)
		if err != nil {
			t.Fatal(err)
		}
		var have []float64
		for _, seg := range [][]float64{xs[:k1], xs[k1:k2], xs[k2:]} {
			if got, err = RestoreOscillationEstimator(got.State()); err != nil {
				t.Fatal(err)
			}
			have = pushChunks(got, seg, c, have)
		}
		if d := sameBits(have, want); d != "" {
			t.Fatalf("ladder %v chunk=%d cuts=%d,%d: %s", radii, c, k1, k2, d)
		}
		if !sameState(t, got.State(), ref.State()) {
			t.Fatalf("ladder %v chunk=%d cuts=%d,%d: estimator state diverged", radii, c, k1, k2)
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

// TestPushAllocatesNothing gates the per-sample path at zero heap
// allocations: over a fresh estimator's first 2*maxR+1 samples, where
// the tail fills and the first estimate is emitted, and in steady state.
func TestPushAllocatesNothing(t *testing.T) {
	free, _ := memsimColumns(t, 3000)
	radii := []int{2, 4, 8, 16, 32}
	const runs = 20
	fresh := make([]*OscillationEstimator, runs+1)
	for i := range fresh {
		e, err := NewOscillationEstimator(radii)
		if err != nil {
			t.Fatal(err)
		}
		fresh[i] = e
	}
	warm := fresh[0]
	next := 0
	if a := testing.AllocsPerRun(runs, func() {
		e := fresh[next]
		next++
		for _, x := range free[:2*32+1] {
			e.Push(x)
		}
	}); a != 0 {
		t.Errorf("fresh estimator: %v allocs per %d Push calls, want 0", a, 2*32+1)
	}
	off := 0
	if a := testing.AllocsPerRun(runs, func() {
		if off+100 > len(free) {
			off = 0
		}
		for _, x := range free[off : off+100] {
			warm.Push(x)
		}
		off += 100
	}); a != 0 {
		t.Errorf("steady state: %v allocs per 100 Push calls, want 0", a)
	}
}
