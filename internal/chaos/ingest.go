package chaos

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"agingmf/internal/aging"
	"agingmf/internal/control"
	"agingmf/internal/ingest"
	"agingmf/internal/obs"
	"agingmf/internal/trace"
)

// IngestFaults selects the faults an ingest campaign injects into the
// fleet daemon's wire. The zero value injects nothing (a plain load run).
type IngestFaults struct {
	// MalformedRate is the probability (0..1) that a producer interleaves
	// a garbage line before a sample — parser floods. Malformed lines
	// must be rejected and counted without costing a single good sample.
	MalformedRate float64
	// DisconnectEvery makes each producer drop its TCP connection and
	// redial every this many samples (0 disables) — mid-stream
	// disconnects. The daemon must resume the source seamlessly (the
	// source= key survives reconnects).
	DisconnectEvery int
	// SlowEvery marks every SlowEvery-th producer as a slow client that
	// sleeps SlowDelay between samples (0 disables). Slow clients must
	// not stall other producers' ingestion.
	SlowEvery int
	// SlowDelay is the slow client's per-sample delay (default 200µs).
	SlowDelay time.Duration
	// AlertSinkOutage subscribes a dead alert sink (a consumer that never
	// drains its queue). Its alerts must be dropped and counted without
	// backpressuring ingestion.
	AlertSinkOutage bool
	// CorruptEvery spikes every CorruptEvery-th sample of each trace with
	// a wild sensor value (0 disables). Corruption happens at trace
	// generation — the parity reference replays the same values — so the
	// campaign checks the pipeline carries wild inputs faithfully and the
	// flight recorder shows them, not that the detector hides them.
	CorruptEvery int
	// StallEvery freezes every StallEvery-th producer for StallFor near
	// the end of its trace (0 disables) — a wedged sensor loop. The wall
	// gap must land in that source's flight-recorder tail.
	StallEvery int
	// StallFor is the injected stall duration (default 50ms).
	StallFor time.Duration
}

// IngestConfig parameterizes one ingest chaos campaign.
type IngestConfig struct {
	// Seed drives every producer's trace and fault stream; campaigns are
	// deterministic per seed (up to network interleaving, which the
	// sharded daemon must make irrelevant — that is the point).
	Seed int64
	// Sources is the number of concurrent producers (default 16).
	Sources int
	// Samples is the per-producer trace length (default 200).
	Samples int
	// Monitor is the per-source detector configuration (zero value
	// selects aging.DefaultConfig).
	Monitor aging.Config
	// Faults selects the injected faults.
	Faults IngestFaults
	// Obs and Events receive the daemon's telemetry. Nil disables.
	Obs    *obs.Registry
	Events *obs.Events
	// TraceSampleEvery turns on the daemon's pipeline tracer for the
	// campaign (one unit in N; 0 disables).
	TraceSampleEvery int
	// FlightRecorderDepth keeps each source's last N annotated samples;
	// the report captures every ring before shutdown (0 disables).
	FlightRecorderDepth int
}

func (c IngestConfig) withDefaults() IngestConfig {
	if c.Sources <= 0 {
		c.Sources = 16
	}
	if c.Samples <= 0 {
		c.Samples = 200
	}
	if c.Monitor == (aging.Config{}) {
		c.Monitor = aging.DefaultConfig()
	}
	if c.Faults.SlowEvery > 0 && c.Faults.SlowDelay <= 0 {
		c.Faults.SlowDelay = 200 * time.Microsecond
	}
	if c.Faults.StallEvery > 0 && c.Faults.StallFor <= 0 {
		c.Faults.StallFor = 50 * time.Millisecond
	}
	return c
}

// IngestReport is the outcome of an ingest campaign: what was thrown at
// the daemon and how it degraded.
type IngestReport struct {
	Seed    int64
	Sources int
	// SamplesSent counts good samples written; Malformed counts injected
	// garbage lines; Disconnects counts mid-stream connection drops.
	SamplesSent int
	Malformed   int
	Disconnects int
	// Accepted/Dropped/BadLines are the daemon's accounting. Graceful
	// degradation means Accepted == SamplesSent, Dropped == 0 and
	// BadLines == Malformed.
	Accepted uint64
	Dropped  uint64
	BadLines uint64
	// AlertsPublished and AlertsDroppedBySink describe the alert path
	// under a sink outage: publishes keep flowing, the dead sink's queue
	// overflows are counted, ingestion never blocks.
	AlertsPublished     uint64
	AlertsDroppedBySink uint64
	// Corrupted counts injected wild sensor values; Stalls counts
	// injected producer freezes.
	Corrupted int
	Stalls    int
	// ParityMismatches lists sources whose final monitor state differs
	// from a single-process monitor fed the same trace — must be empty
	// no matter what faults ran.
	ParityMismatches []string
	// FlightRecords is each source's flight-recorder tail captured before
	// shutdown (nil unless FlightRecorderDepth > 0) — the campaign's
	// forensic record that faults land in the affected source's ring.
	FlightRecords map[string][]trace.Record
}

// Ok reports whether the daemon degraded gracefully: nothing lost,
// nothing poisoned, every source's verdict exactly what a single-process
// monitor would have said.
func (r IngestReport) Ok() bool {
	return r.Accepted == uint64(r.SamplesSent) &&
		r.Dropped == 0 &&
		r.BadLines == uint64(r.Malformed) &&
		len(r.ParityMismatches) == 0
}

// ingestTrace is producer i's deterministic counter trace.
func ingestTrace(seed int64, i, n int) [][2]float64 {
	rng := rand.New(rand.NewSource(seed + int64(i)*7919))
	tr := make([][2]float64, n)
	free, swap := 2e9+float64(i)*1e6, float64(i)
	for k := range tr {
		free -= rng.Float64() * 2e5
		swap += rng.Float64() * 1e4
		tr[k] = [2]float64{free, swap}
	}
	return tr
}

// garbageLine picks one malformed wire line — the shapes broken or
// hostile producers actually emit.
func garbageLine(rng *rand.Rand) string {
	switch rng.Intn(6) {
	case 0:
		return "garbage"
	case 1:
		return "NaN,0"
	case 2:
		return "1e309 5"
	case 3:
		return "source= 1 2"
	case 4:
		return "1 2 3 4 5"
	default:
		return "free,swap"
	}
}

// RunIngest executes one ingest chaos campaign: it boots a real
// ingest.Server on loopback, aims cfg.Sources concurrent producers at it
// with the configured faults on the wire, and verifies the daemon
// degrades instead of losing or corrupting data. Like Run, injected
// faults are never errors — RunIngest returns a non-nil error only for
// broken configuration or plumbing; every degradation verdict is in the
// report.
func RunIngest(ctx context.Context, cfg IngestConfig) (IngestReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.withDefaults()
	f := cfg.Faults
	if f.MalformedRate < 0 || f.MalformedRate > 1 {
		return IngestReport{}, fmt.Errorf("malformed rate %v: %w", f.MalformedRate, ErrBadConfig)
	}
	if f.DisconnectEvery < 0 || f.SlowEvery < 0 || f.CorruptEvery < 0 || f.StallEvery < 0 {
		return IngestReport{}, fmt.Errorf("negative fault interval: %w", ErrBadConfig)
	}

	srv, err := ingest.NewServer(ingest.ServerConfig{
		Registry: ingest.Config{
			Monitor:             cfg.Monitor,
			Obs:                 cfg.Obs,
			Events:              cfg.Events,
			TraceSampleEvery:    cfg.TraceSampleEvery,
			FlightRecorderDepth: cfg.FlightRecorderDepth,
		},
		TCPAddr:     "127.0.0.1:0",
		MaxBadLines: -1, // the flood is the experiment; don't evict producers
	})
	if err != nil {
		return IngestReport{}, fmt.Errorf("chaos: %w", err)
	}
	if err := srv.Start(); err != nil {
		return IngestReport{}, fmt.Errorf("chaos: %w", err)
	}
	shutdown := func() {
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(sctx)
	}

	var deadSink *control.Subscription
	if f.AlertSinkOutage {
		// A subscriber that never reads: its queue saturates immediately
		// and every further alert for it must be dropped and counted.
		deadSink = srv.Registry().Alerts().Subscribe("outage", 1)
	}

	rep := IngestReport{Seed: cfg.Seed, Sources: cfg.Sources}
	traces := make([][][2]float64, cfg.Sources)
	for i := range traces {
		traces[i] = ingestTrace(cfg.Seed, i, cfg.Samples)
		rep.SamplesSent += len(traces[i])
	}
	rep.Corrupted = corruptTraces(traces, f.CorruptEvery)

	stats := make([]producerStats, cfg.Sources)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Sources; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stats[i] = runIngestProducer(ctx, srv, cfg, i, traces[i])
		}(i)
	}
	wg.Wait()
	for _, st := range stats {
		if st.err != nil {
			shutdown()
			return rep, st.err
		}
		rep.Malformed += st.malformed
		rep.Disconnects += st.disconnects
		rep.Stalls += st.stalls
	}

	// Drain everything queued into the monitors, then read the verdicts.
	reg := srv.Registry()
	deadline := time.Now().Add(30 * time.Second)
	for reg.Accepted() < uint64(rep.SamplesSent) && time.Now().Before(deadline) && ctx.Err() == nil {
		time.Sleep(2 * time.Millisecond)
	}
	rep.Accepted = reg.Accepted()
	rep.Dropped = reg.Dropped()
	rep.BadLines = reg.BadLines()
	rep.AlertsPublished = reg.Alerts().Total()
	if deadSink != nil {
		rep.AlertsDroppedBySink = deadSink.Dropped()
	}
	if cfg.FlightRecorderDepth > 0 {
		rep.FlightRecords = make(map[string][]trace.Record, cfg.Sources)
		for i := 0; i < cfg.Sources; i++ {
			id := ingestSourceID(i)
			if recs, err := reg.FlightRecords(id); err == nil {
				rep.FlightRecords[id] = recs
			}
		}
	}

	for i := range traces {
		id := ingestSourceID(i)
		got, err := reg.MonitorState(id)
		if err != nil {
			rep.ParityMismatches = append(rep.ParityMismatches, id)
			continue
		}
		ref, err := aging.NewDualMonitor(cfg.Monitor)
		if err != nil {
			shutdown()
			return rep, fmt.Errorf("chaos: %w", err)
		}
		for _, s := range traces[i] {
			ref.Add(s[0], s[1])
		}
		want, err := ref.SaveState()
		if err != nil {
			shutdown()
			return rep, fmt.Errorf("chaos: %w", err)
		}
		if !bytes.Equal(got, want) {
			rep.ParityMismatches = append(rep.ParityMismatches, id)
		}
	}
	shutdown()
	cfg.Events.Info("chaos_ingest_done", obs.Fields{
		"seed": cfg.Seed, "sources": rep.Sources, "sent": rep.SamplesSent,
		"accepted": rep.Accepted, "malformed": rep.Malformed,
		"disconnects": rep.Disconnects, "corrupted": rep.Corrupted,
		"stalls": rep.Stalls, "parity_mismatches": len(rep.ParityMismatches),
	})
	return rep, nil
}

// ingestSourceID names campaign producer i on the wire.
func ingestSourceID(i int) string { return fmt.Sprintf("chaos-%04d", i) }

// corruptTraces spikes every CorruptEvery-th sample of each trace (free
// memory multiplied a thousandfold — a clearly wild outlier) and returns
// how many values it touched. Both the daemon and the parity reference
// replay the corrupted traces, so verdicts still agree exactly.
func corruptTraces(traces [][][2]float64, every int) int {
	if every <= 0 {
		return 0
	}
	n := 0
	for _, tr := range traces {
		for k := every; k < len(tr); k += every {
			tr[k][0] *= 1e3
			n++
		}
	}
	return n
}

// producerStats is what one producer injected (or the plumbing error
// that stopped it).
type producerStats struct {
	malformed, disconnects, stalls int
	err                            error
}

// runIngestProducer writes one producer's trace with its faults: garbage
// lines, mid-stream disconnects (redialing and resuming), slow-client
// pacing, and near-end stalls. It returns what it injected.
func runIngestProducer(ctx context.Context, srv *ingest.Server, cfg IngestConfig, i int, pts [][2]float64) (st producerStats) {
	f := cfg.Faults
	addr := srv.TCPAddr()
	rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*104729 + 1))
	slow := f.SlowEvery > 0 && i%f.SlowEvery == 0
	// The stall lands 8 samples before the end so both sides of the wall
	// gap sit inside even a small flight-recorder tail.
	stallAt := -1
	if f.StallEvery > 0 && i%f.StallEvery == 0 {
		if stallAt = len(pts) - 8; stallAt < 1 {
			stallAt = 1
		}
	}

	var d net.Dialer
	conn, err := d.DialContext(ctx, addr.Network(), addr.String())
	if err != nil {
		st.err = fmt.Errorf("chaos: producer %d dial: %w", i, err)
		return st
	}
	defer func() { conn.Close() }()

	id := ingestSourceID(i)
	for k, s := range pts {
		if ctx.Err() != nil {
			st.err = ctx.Err()
			return st
		}
		if k == stallAt {
			// A wedged sensor loop: the producer freezes mid-stream. The
			// daemon must not care, and the wall-clock gap must be visible
			// in this source's flight recorder.
			time.Sleep(f.StallFor)
			st.stalls++
		}
		if f.DisconnectEvery > 0 && k > 0 && k%f.DisconnectEvery == 0 {
			conn.Close() // mid-stream hangup, then carry on where we stopped
			// A reconnecting producer must not let its new stream race the
			// tail of the old one through a different server goroutine —
			// the source's samples would interleave out of order. Wait for
			// the daemon to consume everything sent so far (a real producer
			// achieves the same by reconnecting strictly after its previous
			// stream is drained).
			for ctx.Err() == nil {
				if sst, ok := srv.Registry().Source(id); ok && sst.Samples >= int64(k) {
					break
				}
				time.Sleep(time.Millisecond)
			}
			if conn, err = d.DialContext(ctx, addr.Network(), addr.String()); err != nil {
				st.err = fmt.Errorf("chaos: producer %d redial: %w", i, err)
				return st
			}
			st.disconnects++
		}
		if f.MalformedRate > 0 && rng.Float64() < f.MalformedRate {
			if _, err := fmt.Fprintf(conn, "%s\n", garbageLine(rng)); err != nil {
				st.err = fmt.Errorf("chaos: producer %d write: %w", i, err)
				return st
			}
			st.malformed++
		}
		line := ingest.FormatLine(ingest.Sample{Source: id, Free: s[0], Swap: s[1]})
		if _, err := fmt.Fprintf(conn, "%s\n", line); err != nil {
			st.err = fmt.Errorf("chaos: producer %d write: %w", i, err)
			return st
		}
		if slow {
			time.Sleep(f.SlowDelay)
		}
	}
	return st
}
