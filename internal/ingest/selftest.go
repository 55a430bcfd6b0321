package ingest

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"agingmf/internal/detect"
	"agingmf/internal/memsim"
	transport "agingmf/internal/source"
	"agingmf/internal/workload"
)

// SelfTestConfig parameterizes RunSelfTest.
type SelfTestConfig struct {
	// Sources is the number of simulated machines (0 selects 16).
	Sources int
	// Samples is the trace length per machine (0 selects 256). A machine
	// that crashes earlier contributes its partial trace.
	Samples int
	// Conns is the number of TCP connections the sources are multiplexed
	// over (0 selects min(Sources, 64)); the wire source= field keys the
	// streams, exactly as a fleet relay would.
	Conns int
	// BatchSize groups each source's samples into batch; wire lines of
	// this many pairs (0 or 1 sends plain per-sample lines). Sources are
	// still interleaved on each connection, at batch granularity.
	BatchSize int
	// Seed makes every machine's trace deterministic (machine i derives
	// from Seed+i).
	Seed int64
	// Machine is the simulated hardware (zero value selects
	// memsim.DefaultConfig).
	Machine memsim.Config
	// Workload is the load configuration (zero value selects
	// workload.DefaultDriverConfig).
	Workload workload.DriverConfig
	// Timeout bounds the whole self-test (0 selects 2m).
	Timeout time.Duration
}

func (c SelfTestConfig) withDefaults() SelfTestConfig {
	if c.Sources <= 0 {
		c.Sources = 16
	}
	if c.Samples <= 0 {
		c.Samples = 256
	}
	if c.Conns <= 0 {
		c.Conns = c.Sources
		if c.Conns > 64 {
			c.Conns = 64
		}
	}
	if c.Conns > c.Sources {
		c.Conns = c.Sources
	}
	if c.Machine == (memsim.Config{}) {
		c.Machine = memsim.DefaultConfig()
	}
	if c.Workload.Server == nil && c.Workload.ClientRate == 0 {
		c.Workload = workload.DefaultDriverConfig()
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Minute
	}
	return c
}

// SelfTestReport is the outcome of one self-test.
type SelfTestReport struct {
	// Sources and SamplesSent describe the generated load.
	Sources     int
	SamplesSent int
	// Accepted, Dropped and BadLines are the registry's accounting of
	// this run's load; a passing self-test has Accepted == SamplesSent
	// and the other two zero.
	Accepted uint64
	Dropped  uint64
	BadLines uint64
	// ParityMismatches lists sources whose daemon-side detector state
	// differs from a single-process detector set fed the same trace —
	// always empty unless the sharding is broken. Entries are "id" when
	// the whole snapshot diverged and "id/detector" when a specific
	// detector's state did.
	ParityMismatches []string
	// Jumps and Alerts summarize what the fleet detected.
	Jumps  int64
	Alerts uint64
	// RecorderFailures lists sources whose flight recorder disagrees with
	// the wire trace (empty recorder, or a tail that does not match the
	// last samples sent). Only populated when the registry runs with
	// FlightRecorderDepth > 0.
	RecorderFailures []string
	// TraceSpans is the number of sampled pipeline spans retained by the
	// tracer after the load (0 when tracing is disabled).
	TraceSpans int
	// Elapsed is the wall time of the load+verify phases.
	Elapsed time.Duration
}

// Ok reports whether the self-test passed: every sample accepted, none
// dropped or rejected, every source's monitor byte-for-byte identical to its
// single-process reference, and — when the flight recorder is on — every
// recorder tail consistent with the wire trace.
func (r SelfTestReport) Ok() bool {
	return r.Accepted == uint64(r.SamplesSent) && r.Dropped == 0 && r.BadLines == 0 &&
		len(r.ParityMismatches) == 0 && len(r.RecorderFailures) == 0
}

// selfTestSourceID names simulated machine i on the wire.
func selfTestSourceID(i int) string { return fmt.Sprintf("selftest-%04d", i) }

// RunSelfTest drives cfg.Sources simulated machines (internal/memsim
// under an internal/workload driver) through the server's real TCP
// socket, multiplexed over cfg.Conns connections, then verifies the
// daemon end-to-end:
//
//   - every sample was accepted, none dropped (backpressure, not loss);
//   - each source's detector-set state is byte-for-byte identical to a
//     single-process detect.MonitorSet (same suite) fed the same trace,
//     detector by detector.
//
// The server must be started with a TCP listener and must not be shut
// down underneath the test. RunSelfTest returns an error only for
// plumbing failures (dial, config); a detected discrepancy is reported
// in SelfTestReport, not as an error.
func RunSelfTest(ctx context.Context, srv *Server, cfg SelfTestConfig) (SelfTestReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.withDefaults()
	addr := srv.TCPAddr()
	if addr == nil {
		return SelfTestReport{}, fmt.Errorf("ingest: self-test needs a TCP listener")
	}
	ctx, cancel := context.WithTimeout(ctx, cfg.Timeout)
	defer cancel()
	start := time.Now()

	// Generate every machine's trace up front: the same deterministic
	// traces feed both the wire and the single-process reference monitors.
	traces := make([][][2]float64, cfg.Sources)
	total := 0
	for i := range traces {
		tr, err := selfTestTrace(cfg, i)
		if err != nil {
			return SelfTestReport{}, err
		}
		traces[i] = tr
		total += len(tr)
	}

	rep := SelfTestReport{Sources: cfg.Sources, SamplesSent: total}
	reg := srv.Registry()
	// The server may have served traffic already: count this run only.
	baseAccepted, baseDropped, baseBad := reg.Accepted(), reg.Dropped(), reg.BadLines()

	// Partition sources round-robin over the connections; each connection
	// interleaves its sources sample-by-sample, the worst case for
	// cross-source isolation.
	var wg sync.WaitGroup
	errc := make(chan error, cfg.Conns)
	for c := 0; c < cfg.Conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errc <- selfTestConn(ctx, addr, cfg, traces, c)
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			return rep, err
		}
	}

	// The samples are all written; wait for the shards to consume them.
	// A dropped sample or a rejected line will never be accepted, so
	// either ends the wait at once instead of at the timeout.
	for reg.Accepted()-baseAccepted < uint64(total) {
		if ctx.Err() != nil || reg.Dropped() > baseDropped || reg.BadLines() > baseBad {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	rep.Accepted = reg.Accepted() - baseAccepted
	rep.Dropped = reg.Dropped() - baseDropped
	rep.BadLines = reg.BadLines() - baseBad
	rep.Alerts = reg.Alerts().Total()

	// Parity: each source's state against the per-sample oracle of the
	// same suite, reported per detector when they diverge.
	for i, tr := range traces {
		id := selfTestSourceID(i)
		if st, ok := reg.Source(id); ok {
			rep.Jumps += st.Jumps
		}
		got, err := reg.MonitorState(id)
		if err != nil {
			rep.ParityMismatches = append(rep.ParityMismatches, id)
			continue
		}
		want, err := detect.Replay(reg.Config().Detectors, reg.Config().DetectorConfig(), tr)
		if err != nil {
			return rep, fmt.Errorf("ingest: self-test reference: %w", err)
		}
		rep.ParityMismatches = append(rep.ParityMismatches, detect.Mismatches(id, got, want)...)
		// Flight-recorder consistency: the recorder's newest record must
		// be the trace's last sample, bit-for-bit (the wire format
		// round-trips float64 exactly — the same property parity rests on).
		if reg.Config().FlightRecorderDepth > 0 && len(tr) > 0 {
			recs, err := reg.FlightRecords(id)
			if err != nil || len(recs) == 0 {
				rep.RecorderFailures = append(rep.RecorderFailures, id)
				continue
			}
			tail, lastPair := recs[len(recs)-1], tr[len(tr)-1]
			if tail.Free != lastPair[0] || tail.Swap != lastPair[1] ||
				tail.Seq != uint64(len(tr)) {
				rep.RecorderFailures = append(rep.RecorderFailures, id)
			}
		}
	}
	rep.TraceSpans = len(reg.Tracer().Spans())
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// selfTestTrace simulates machine i and returns its (free, swap) trace.
func selfTestTrace(cfg SelfTestConfig, i int) ([][2]float64, error) {
	m, err := memsim.New(cfg.Machine, rand.New(rand.NewSource(cfg.Seed+int64(i))))
	if err != nil {
		return nil, fmt.Errorf("ingest: self-test machine %d: %w", i, err)
	}
	wcfg := cfg.Workload
	if wcfg.Server != nil {
		server := *wcfg.Server // no shared mutable state across machines
		wcfg.Server = &server
	}
	d, err := workload.NewDriver(m, wcfg, nil, rand.New(rand.NewSource(cfg.Seed+int64(i)+1e6)))
	if err != nil {
		return nil, fmt.Errorf("ingest: self-test driver %d: %w", i, err)
	}
	src := transport.NewSimFromParts(m, d, cfg.Samples, 1)
	tr := make([][2]float64, 0, cfg.Samples)
	for len(tr) < cfg.Samples {
		it, err := src.Next(context.Background())
		if err != nil {
			break // crash is the machine's natural endpoint; partial trace is fine
		}
		tr = append(tr, it.Pairs...)
		if it.Crash != memsim.CrashNone {
			break // the crash tick is the trace's last sample
		}
	}
	return tr, nil
}

// selfTestConn writes connection c's share of the sources, interleaved
// sample-by-sample over one real TCP connection.
func selfTestConn(ctx context.Context, addr net.Addr, cfg SelfTestConfig, traces [][][2]float64, c int) error {
	var d net.Dialer
	conn, err := d.DialContext(ctx, addr.Network(), addr.String())
	if err != nil {
		return fmt.Errorf("ingest: self-test dial: %w", err)
	}
	defer conn.Close()
	w := bufio.NewWriter(conn)
	mine := make([]int, 0, len(traces)/cfg.Conns+1)
	longest := 0
	for i := c; i < len(traces); i += cfg.Conns {
		mine = append(mine, i)
		if len(traces[i]) > longest {
			longest = len(traces[i])
		}
	}
	bs := cfg.BatchSize
	if bs < 1 {
		bs = 1
	}
	// Advance in BatchSize strides so sources still interleave on the
	// wire, just at batch granularity instead of sample granularity.
	for round := 0; round < longest; round += bs {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		for _, i := range mine {
			tr := traces[i]
			if round >= len(tr) {
				continue
			}
			end := round + bs
			if end > len(tr) {
				end = len(tr)
			}
			var line string
			if bs == 1 {
				line = FormatLine(Sample{
					Source: selfTestSourceID(i),
					Free:   tr[round][0],
					Swap:   tr[round][1],
				})
			} else {
				line = FormatBatch(Batch{
					Source: selfTestSourceID(i),
					Pairs:  tr[round:end],
				})
			}
			if _, err := w.WriteString(line + "\n"); err != nil {
				return fmt.Errorf("ingest: self-test write: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("ingest: self-test flush: %w", err)
	}
	return nil
}
