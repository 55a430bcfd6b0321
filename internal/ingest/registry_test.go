package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"agingmf/internal/aging"
	"agingmf/internal/control"
)

// testMonitorConfig is a small-window detector configuration so tests
// exercise the full pipeline (warmup, jumps, phases) in tens of samples
// instead of the production config's tens of thousands.
func testMonitorConfig() aging.Config {
	cfg := aging.DefaultConfig()
	cfg.MinRadius = 2
	cfg.MaxRadius = 8 // ladder {2,4,8}, the minimum the estimator accepts
	cfg.VolatilityWindow = 8
	cfg.DetectorWarmup = 8
	cfg.Refractory = 4
	return cfg
}

// testTrace is source i's deterministic counter trace: a noisy decaying
// free-memory counter and a noisy growing swap counter, unique per
// source so cross-source bleed cannot cancel out.
func testTrace(i, n int) [][2]float64 {
	rng := rand.New(rand.NewSource(int64(1000 + i)))
	tr := make([][2]float64, n)
	free, swap := 1e9+float64(i)*1e6, float64(i)
	for k := range tr {
		free -= rng.Float64() * 1e5
		swap += rng.Float64() * 1e4
		tr[k] = [2]float64{free, swap}
	}
	return tr
}

// referenceState replays a trace into a fresh single-process monitor and
// returns its gob state — the ground truth the sharded registry must
// match byte-for-byte.
func referenceState(t *testing.T, cfg aging.Config, tr [][2]float64) []byte {
	t.Helper()
	mon, err := aging.NewDualMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tr {
		mon.Add(s[0], s[1])
	}
	blob, err := mon.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestRegistryParallelSourcesNoBleed is the core isolation test: 64
// sources, each written by its own goroutine, all racing through the
// shared shards. Every source's monitor must come out byte-for-byte
// identical to a single-process monitor fed the same trace, and the
// per-shard/per-source accounting must be exact. Run under -race this
// also proves the no-locks hot path has no data races.
func TestRegistryParallelSourcesNoBleed(t *testing.T) {
	const nSources, nSamples = 64, 200
	r, err := NewRegistry(Config{Shards: 4, QueueSize: 64, Monitor: testMonitorConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	traces := make([][][2]float64, nSources)
	for i := range traces {
		traces[i] = testTrace(i, nSamples)
	}
	var wg sync.WaitGroup
	for i := 0; i < nSources; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("src-%03d", i)
			for _, s := range traces[i] {
				if err := r.Ingest(Sample{Source: id, Free: s[0], Swap: s[1]}); err != nil {
					t.Errorf("ingest %s: %v", id, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if err := r.Close(); err != nil { // drains every queued sample
		t.Fatal(err)
	}

	if got, want := r.Accepted(), uint64(nSources*nSamples); got != want {
		t.Errorf("accepted = %d, want %d", got, want)
	}
	if r.Dropped() != 0 {
		t.Errorf("dropped = %d, want 0", r.Dropped())
	}
	if r.NumSources() != nSources {
		t.Errorf("sources = %d, want %d", r.NumSources(), nSources)
	}

	// Exact per-shard accounting: each shard accepted exactly the samples
	// of the sources hashed onto it, and the totals add up.
	wantPerShard := make(map[int]uint64)
	for i := 0; i < nSources; i++ {
		wantPerShard[r.shardIndex(fmt.Sprintf("src-%03d", i))] += nSamples
	}
	var sum uint64
	for _, st := range r.ShardStats() {
		if st.Accepted != wantPerShard[st.ID] {
			t.Errorf("shard %d accepted = %d, want %d", st.ID, st.Accepted, wantPerShard[st.ID])
		}
		if st.Depth != 0 {
			t.Errorf("shard %d depth = %d after drain", st.ID, st.Depth)
		}
		sum += st.Accepted
	}
	if sum != uint64(nSources*nSamples) {
		t.Errorf("shard sum = %d, want %d", sum, nSources*nSamples)
	}

	// No cross-source bleed: every monitor state equals its
	// single-process reference byte-for-byte.
	for i := 0; i < nSources; i++ {
		id := fmt.Sprintf("src-%03d", i)
		got, err := r.MonitorState(id)
		if err != nil {
			t.Fatalf("state %s: %v", id, err)
		}
		if want := referenceState(t, r.Config().Monitor, traces[i]); !bytes.Equal(got, want) {
			t.Errorf("source %s: monitor state differs from single-process reference", id)
		}
		st, ok := r.Source(id)
		if !ok {
			t.Fatalf("source %s missing from status API", id)
		}
		if st.Samples != nSamples {
			t.Errorf("source %s samples = %d, want %d", id, st.Samples, nSamples)
		}
		if st.LastFree != traces[i][nSamples-1][0] || st.LastSwap != traces[i][nSamples-1][1] {
			t.Errorf("source %s last counters = (%v, %v), want trace tail", id, st.LastFree, st.LastSwap)
		}
	}
}

func TestRegistryIngestValidation(t *testing.T) {
	r, err := NewRegistry(Config{Shards: 1, Monitor: testMonitorConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Ingest(Sample{Free: 1, Swap: 2}); !errors.Is(err, ErrNoSource) {
		t.Errorf("no source: %v", err)
	}
	// Ids the wire parsers and IngestColumns refuse are refused here too:
	// every unit crosses the same validation.
	for _, id := range []string{"a b", "a,b", "tab\tid", strings.Repeat("x", MaxSourceLen+1)} {
		if err := r.Ingest(Sample{Source: id, Free: 1, Swap: 2}); !errors.Is(err, ErrBadLine) {
			t.Errorf("source %q accepted: %v", id, err)
		}
	}
	for _, bad := range [][2]float64{{math.NaN(), 0}, {0, math.Inf(1)}, {math.Inf(-1), 0}} {
		if err := r.Ingest(Sample{Source: "s", Free: bad[0], Swap: bad[1]}); !errors.Is(err, ErrBadSample) {
			t.Errorf("non-finite %v accepted: %v", bad, err)
		}
	}
}

// ingestLine routes one wire line through IngestLines and returns its
// error: the one it was rejected with, or ErrClosed.
func ingestLine(r *Registry, defaultSource, line string) error {
	var lineErr error
	if _, err := r.IngestLines(defaultSource, []string{line}, func(_ string, err error) { lineErr = err }); err != nil {
		return err
	}
	return lineErr
}

func TestRegistryIngestLine(t *testing.T) {
	r, err := NewRegistry(Config{Shards: 1, Monitor: testMonitorConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Keep-alives are accepted silently.
	for _, line := range []string{"", "   ", "# comment"} {
		if err := ingestLine(r, "peer", line); err != nil {
			t.Errorf("keep-alive %q: %v", line, err)
		}
	}
	if err := ingestLine(r, "peer", "not a sample"); err == nil {
		t.Error("malformed line accepted")
	}
	if r.BadLines() != 1 {
		t.Errorf("bad lines = %d, want 1", r.BadLines())
	}
	// Source-less lines are attributed to the default source; explicit
	// source= wins.
	if err := ingestLine(r, "peer", "1e6 2048"); err != nil {
		t.Fatal(err)
	}
	if err := ingestLine(r, "peer", "source=explicit 1e6 2048"); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"peer", "explicit"} {
		if st, ok := r.Source(id); !ok || st.Samples != 1 {
			t.Errorf("source %q: ok=%v samples=%+v", id, ok, st)
		}
	}
}

func TestRegistryDropWhenFull(t *testing.T) {
	r, err := NewRegistry(Config{
		Shards: 1, QueueSize: 1, DropWhenFull: true, Monitor: testMonitorConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Park the shard goroutine on a control message so the queue cannot
	// drain, then overfill it.
	gate := make(chan struct{})
	ctl := &ctlMsg{fn: func(*shard) { <-gate }, done: make(chan struct{})}
	r.shards[0].ch <- shardMsg{ctl: ctl}
	<-time.After(10 * time.Millisecond) // let the shard pick up the gate

	var full int
	for i := 0; i < 10; i++ {
		if err := r.Ingest(Sample{Source: "s", Free: 1, Swap: 2}); errors.Is(err, ErrQueueFull) {
			full++
		} else if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if full == 0 {
		t.Error("no ErrQueueFull with a parked 1-slot queue")
	}
	if got := r.Dropped(); got != uint64(full) {
		t.Errorf("dropped = %d, want %d", got, full)
	}
	close(gate)
	<-ctl.done
}

func TestRegistryMaxSources(t *testing.T) {
	r, err := NewRegistry(Config{Shards: 1, MaxSources: 2, Monitor: testMonitorConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, id := range []string{"a", "b", "c", "c", "a"} {
		if err := r.Ingest(Sample{Source: id, Free: 1, Swap: 2}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if r.NumSources() != 2 {
		t.Errorf("sources = %d, want 2 (capped)", r.NumSources())
	}
	if _, ok := r.Source("c"); ok {
		t.Error("over-cap source c was admitted")
	}
	if r.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2 (both samples of source c)", r.Dropped())
	}
}

func TestRegistryCloseSemantics(t *testing.T) {
	r, err := NewRegistry(Config{Shards: 2, Monitor: testMonitorConfig()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := r.Ingest(Sample{Source: "s", Free: float64(i), Swap: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := r.Ingest(Sample{Source: "s", Free: 1, Swap: 2}); !errors.Is(err, ErrClosed) {
		t.Errorf("ingest after close: %v", err)
	}
	// The registry stays readable after Close: statuses and states
	// reflect the fully drained stream.
	st, ok := r.Source("s")
	if !ok || st.Samples != 10 {
		t.Errorf("post-close status: ok=%v st=%+v", ok, st)
	}
	states, err := r.SnapshotStates()
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 1 {
		t.Errorf("post-close snapshot has %d states", len(states))
	}
}

// TestRegistryRestoreResumesExactly proves the restart story: snapshot a
// half-fed registry, restore it into a new one, feed the second half,
// and the final state must equal an uninterrupted single-process run.
func TestRegistryRestoreResumesExactly(t *testing.T) {
	cfg := Config{Shards: 2, Monitor: testMonitorConfig()}
	tr := testTrace(7, 120)

	r1, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tr[:60] {
		if err := r1.Ingest(Sample{Source: "m", Free: s[0], Swap: s[1]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}
	states, err := r1.SnapshotStates()
	if err != nil {
		t.Fatal(err)
	}

	cfg.Restore = states
	r2, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if st, ok := r2.Source("m"); !ok || st.Samples != 60 {
		t.Fatalf("restored status: ok=%v st=%+v", ok, st)
	}
	for _, s := range tr[60:] {
		if err := r2.Ingest(Sample{Source: "m", Free: s[0], Swap: s[1]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := r2.MonitorState("m")
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceState(t, cfg.Monitor, tr); !bytes.Equal(got, want) {
		t.Error("restored+resumed state differs from uninterrupted reference")
	}
}

func TestRegistryRestoreRejectsGarbage(t *testing.T) {
	if _, err := NewRegistry(Config{
		Monitor: testMonitorConfig(),
		Restore: map[string][]byte{"x": []byte("not a gob")},
	}); err == nil {
		t.Error("garbage restore blob accepted")
	}
	if _, err := NewRegistry(Config{
		Monitor: testMonitorConfig(),
		Restore: map[string][]byte{"bad id": nil},
	}); err == nil {
		t.Error("invalid restored source id accepted")
	}
}

func TestRegistryStallAndResumeAlerts(t *testing.T) {
	r, err := NewRegistry(Config{
		Shards: 1, Monitor: testMonitorConfig(), StallTimeout: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sub := r.Alerts().Subscribe("test", 16)
	if err := r.Ingest(Sample{Source: "s", Free: 1, Swap: 0}); err != nil {
		t.Fatal(err)
	}

	waitAlert := func(kind string) control.Alert {
		t.Helper()
		for {
			select {
			case a := <-sub.C():
				if a.Kind == kind {
					return a
				}
			case <-time.After(2 * time.Second):
				t.Fatalf("no %q alert", kind)
			}
		}
	}
	a := waitAlert(control.KindStall)
	if a.Source != "s" || a.GapMillis <= 0 {
		t.Errorf("stall alert = %+v", a)
	}
	if st, _ := r.Source("s"); !st.Stalled {
		t.Error("status not marked stalled")
	}
	if err := r.Ingest(Sample{Source: "s", Free: 2, Swap: 0}); err != nil {
		t.Fatal(err)
	}
	if a := waitAlert(control.KindResume); a.Source != "s" {
		t.Errorf("resume alert = %+v", a)
	}
}

// TestRegistryJumpAlertsMatchMonitor feeds a regularity change (constant
// then noisy) and checks that jump alerts mirror exactly what a local
// monitor reports on the same signal.
func TestRegistryJumpAlertsMatchMonitor(t *testing.T) {
	cfg := testMonitorConfig()
	r, err := NewRegistry(Config{Shards: 1, Monitor: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	rng := rand.New(rand.NewSource(42))
	trace := make([][2]float64, 200)
	for i := range trace {
		free := 1e9
		if i >= 100 {
			free += rng.NormFloat64() * 1e7 // late noisy regime
		}
		trace[i] = [2]float64{free, 0}
	}
	ref, err := aging.NewDualMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want []aging.DualJump
	for _, s := range trace {
		want = append(want, ref.Add(s[0], s[1])...)
		if err := r.Ingest(Sample{Source: "s", Free: s[0], Swap: s[1]}); err != nil {
			t.Fatal(err)
		}
	}
	if len(want) == 0 {
		t.Fatal("reference monitor detected nothing; test signal is too tame")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	var got []control.Alert
	for _, a := range r.Alerts().Recent(0) {
		if a.Kind == control.KindJump {
			got = append(got, a)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("daemon raised %d jump alerts, reference monitor %d", len(got), len(want))
	}
	for i, a := range got {
		j := want[i]
		if a.Source != "s" || a.Counter != j.Counter.String() ||
			a.Sample != j.Jump.SampleIndex || a.Volatility != j.Jump.Volatility ||
			a.Score != j.Jump.Score {
			t.Errorf("alert %d = %+v, want jump %+v", i, a, j)
		}
	}
	st, _ := r.Source("s")
	if st.Jumps != int64(len(want)) {
		t.Errorf("status jumps = %d, want %d", st.Jumps, len(want))
	}
}
