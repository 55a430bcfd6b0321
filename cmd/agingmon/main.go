package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"agingmf"
	"agingmf/internal/ingest"
	"agingmf/internal/runtime"
	"agingmf/internal/source"
	"agingmf/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "agingmon:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	var opt options
	fs := newFlagSet(&opt)
	if err := fs.Parse(args); err != nil {
		return err
	}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "history-limit" {
			fmt.Fprintln(stdout, "agingmon: warning: -history-limit is deprecated and ignored: the monitor keeps no history")
		}
	})

	tel, err := runtime.NewTelemetry(opt.metricsAddr, opt.pprof, opt.events)
	if err != nil {
		return err
	}
	defer tel.Close()
	// The watchdog turns a dried-up sample stream into an observable
	// condition instead of a silent hang: /healthz flips to 503 and a
	// stalled event fires. A zero timeout yields the nil (disabled)
	// watchdog, so the wiring below is unconditional.
	wd := agingmf.NewWatchdog(opt.stallTimeout, agingmf.NewResilienceMetrics(tel.Reg), func(gap time.Duration) {
		tel.Events.Warn("stalled", agingmf.EventFields{"gap_ms": gap.Milliseconds()})
	})
	defer wd.Stop()

	// Pipeline tracing mirrors agingd's: sampled source.next/stream/detect
	// spans on /api/trace/export, and a flight recorder of the last N
	// annotated samples on /api/trace/{source}. agingmon monitors a single
	// stream, so the one recorder lives under the mode's label.
	every, err := agingmf.ParseTraceSampleRate(opt.traceSample)
	if err != nil {
		return fmt.Errorf("-trace-sample: %w", err)
	}
	tr := trace.New(trace.Config{SampleEvery: every, Obs: tel.Reg})
	fr := trace.NewFlightRecorder(opt.flightDepth)
	srcLabel := "sim"
	if opt.stdin {
		srcLabel = "stream"
	}
	mountTrace(tel, tr, fr, srcLabel)
	// The control plane publishes every verdict as a canonical alert
	// (GET /api/alerts) and, with -rejuv-policy, closes the loop: in sim
	// mode decisions reboot the simulated machine, on a stream they are
	// logged dry-run. Endpoints mount before Serve.
	cp, err := newControlPlane(opt, tel, srcLabel)
	if err != nil {
		return err
	}
	if err := tel.Serve(wd.Healthy, stdout); err != nil {
		return err
	}

	sm := &runtime.SnapshotManager{Path: opt.state}
	mon, err := loadOrNewMonitor(sm, opt.limit, stdout)
	if err != nil {
		return err
	}
	sm.State = mon.SaveState
	mon.Instrument(tel.Reg)

	// SIGINT/SIGTERM drain gracefully: the monitor pipelines observe the
	// context, stop feeding samples, and fall through to the state save
	// below — an interrupted session keeps its warmup. A second signal
	// force-exits a stuck drain.
	ctx, stop := runtime.NotifyContext(context.Background(), runtime.SignalOptions{})
	defer stop()

	if opt.stdin {
		err = monitorStream(ctx, stdin, stdout, mon, tel, wd, tr, fr, cp, opt.maxBad)
	} else {
		err = monitorSimulation(ctx, stdout, mon, tel, wd, tr, fr, cp, opt)
	}
	// The monitor state is saved on every exit path — including the
	// interrupt/error/signal ones — so a malformed sample, a failed run or
	// a SIGTERM does not silently discard hours of warmup. All failures
	// are reported; any alone makes the exit non-zero.
	return errors.Join(err, saveMonitor(sm), tel.Events.Err())
}

// mountTrace registers the trace endpoints on the telemetry listener
// (harmless no-ops without -metrics-addr). The export endpoint serves
// even a nil tracer — WriteChromeTrace emits an empty event list — so
// curl against a tracing-off daemon answers instead of 404ing.
func mountTrace(tel *runtime.Telemetry, tr *trace.Tracer, fr *trace.FlightRecorder, srcLabel string) {
	tel.Mount("GET /api/trace/export", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = tr.WriteChromeTrace(w)
	}))
	tel.Mount("GET /api/trace/{source}", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fr == nil || r.PathValue("source") != srcLabel {
			http.Error(w, "unknown source", http.StatusNotFound)
			return
		}
		recs := fr.Snapshot()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"source":  srcLabel,
			"depth":   len(recs),
			"records": recs,
		})
	}))
}

// nextTraced draws the item's trace sequence, runs one Next call under a
// sampled source.next span, and returns the sequence so the sink's
// stream/detect spans ride the same sampled unit.
func nextTraced(ctx context.Context, tr *trace.Tracer, label string, next func(context.Context) (source.Item, error)) (source.Item, uint64, error) {
	seq := tr.Sample()
	if seq == 0 {
		it, err := next(ctx)
		return it, 0, err
	}
	start := time.Now()
	it, err := next(ctx)
	tr.Record(trace.StageSourceNext, label, 0, seq, start, time.Since(start))
	return it, seq, err
}

// stdinSource is the common shape of the two stdin decoders (text lines
// and binary frames).
type stdinSource interface {
	Next(context.Context) (source.Item, error)
	Close() error
}

// newStdinSource sniffs the wire protocol on r and returns the matching
// decoder. The columnar frame magic 0xA9 is > 0x7f, so it can never open
// a text sample line (ASCII) — one peeked byte decides: binary frames
// when it is the magic, CSV-ish text lines otherwise (including the
// cannot-peek case, which the line reader reports in its own terms).
// Frames are bounded like the TCP listener's default line bound.
func newStdinSource(r io.Reader) stdinSource {
	br := bufio.NewReader(r)
	if b, err := br.Peek(1); err == nil && b[0] == source.FrameMagic0 {
		return source.NewFrames(br, 64<<10)
	}
	return ingest.NewLineSource(br)
}

// monitorStream feeds counter samples from stdin into the monitor,
// printing events as they fire. The wire protocol is auto-detected per
// newStdinSource: binary columnar frames or CSV-ish text lines (blank
// lines and lines starting with '#' are skipped). Malformed samples are
// counted and skipped (event bad_sample, counter
// agingmf_monitor_bad_samples_total) — fatal only once more than maxBad
// of them arrive (negative = unlimited). A signal drains the stream
// gracefully.
func monitorStream(ctx context.Context, stdin io.Reader, stdout io.Writer, mon *agingmf.DualMonitor, tel *runtime.Telemetry, wd *agingmf.Watchdog, tr *trace.Tracer, fr *trace.FlightRecorder, cp *controlPlane, maxBad int) error {
	badSamples := tel.Reg.Counter("agingmf_monitor_bad_samples_total",
		"Malformed stdin samples skipped by the monitor.")
	src := newStdinSource(stdin)
	defer src.Close()
	sample, bad := 0, 0
	snk := source.NewMonitorSink(mon, source.MonitorSinkConfig{
		Watchdog: wd,
		Tracer:   tr,
		Recorder: fr,
		Source:   "stream",
		OnResume: func(at int) {
			tel.Events.Info("resumed", agingmf.EventFields{"sample": at})
		},
		OnJumps: func(_ int, jumps []agingmf.DualJump) {
			for _, j := range jumps {
				reportJump(stdout, tel.Events, "sample", j.Jump.SampleIndex, j)
				cp.jump(j)
			}
		},
		OnPhase: func(last int, from, to agingmf.Phase, _ source.Item) {
			reportPhase(stdout, tel.Events, "sample", last, from, to, "")
			cp.phase(last, from, to)
		},
	})
	for {
		it, seq, err := nextTraced(ctx, tr, "stream", src.Next)
		var ble *source.BadLineError
		switch {
		case err == nil:
			_ = snk.WriteSampled(it, seq)
			sample += len(it.Pairs)
		case errors.As(err, &ble):
			bad++
			badSamples.Inc()
			tel.Events.Warn("bad_sample", agingmf.EventFields{
				"sample": sample,
				"line":   truncateForEvent(ble.Line),
				"error":  ble.Err.Error(),
			})
			if maxBad >= 0 && bad > maxBad {
				return fmt.Errorf("sample %d: %q: %w (%d malformed samples exceed -max-bad-samples=%d)",
					sample, truncateForEvent(ble.Line), ble.Err, bad, maxBad)
			}
		case err == io.EOF:
			fmt.Fprintf(stdout, "final phase: %v after %d samples (%d jumps, %d bad skipped)\n",
				mon.Phase(), sample, len(mon.Jumps()), bad)
			return nil
		default:
			if sig, ok := runtime.Signal(ctx); ok {
				reportSignal(stdout, tel.Events, sig, "sample", sample)
				return nil
			}
			return fmt.Errorf("read stdin: %w", err)
		}
	}
}

// monitorSimulation runs the built-in simulated machine under stress.
func monitorSimulation(ctx context.Context, stdout io.Writer, mon *agingmf.DualMonitor, tel *runtime.Telemetry, wd *agingmf.Watchdog, tr *trace.Tracer, fr *trace.FlightRecorder, cp *controlPlane, opt options) error {
	mcfg := agingmf.DefaultMachineConfig()
	mcfg.RAMPages = opt.ramMiB << 20 / mcfg.PageSize
	mcfg.SwapPages = opt.swapMiB << 20 / mcfg.PageSize
	machine, err := agingmf.NewMachine(mcfg, agingmf.NewRand(opt.seed))
	if err != nil {
		return err
	}
	machine.Instrument(tel.Reg, tel.Events)
	wcfg := agingmf.DefaultWorkload()
	wcfg.Server.LeakPagesPerTick = opt.leak
	driver, err := agingmf.NewDriver(machine, wcfg, nil, agingmf.NewRand(opt.seed+1))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "machine: %d MiB RAM, %d MiB swap, leak %.2f pages/tick, seed %d\n",
		opt.ramMiB, opt.swapMiB, opt.leak, opt.seed)

	src := source.NewSimFromParts(machine, driver, opt.maxTicks, 1)
	// Close the loop: a rejuvenation decision reboots the simulated
	// machine. The actuation happens inside cp.publish, i.e. on this
	// goroutine — the machine is not safe for concurrent use.
	cp.setActuator(agingmf.ActuatorFunc(func(string) error {
		machine.Rejuvenate("")
		fmt.Fprintf(stdout, "tick %6d  REJUVENATE (policy restart #%d)\n",
			src.Ticks(), machine.Reboots())
		return nil
	}))
	snk := source.NewMonitorSink(mon, source.MonitorSinkConfig{
		Watchdog: wd,
		Tracer:   tr,
		Recorder: fr,
		Source:   "sim",
		OnJumps: func(_ int, jumps []agingmf.DualJump) {
			for _, j := range jumps {
				reportJump(stdout, tel.Events, "tick", src.Ticks()-1, j)
				cp.jump(j)
			}
		},
		OnPhase: func(last int, from, to agingmf.Phase, it source.Item) {
			extra := fmt.Sprintf(" (free %.1f MiB, swap %.1f MiB)",
				it.Counters[0].FreeMemoryBytes/(1<<20), it.Counters[0].UsedSwapBytes/(1<<20))
			reportPhase(stdout, tel.Events, "tick", src.Ticks()-1, from, to, extra)
			cp.phase(last, from, to)
		},
	})
	for src != nil { // nil when maxTicks < 1: nothing to monitor
		src.TickEvery = opt.tickEvery
		it, seq, err := nextTraced(ctx, tr, "sim", src.Next)
		if err == io.EOF {
			break
		}
		if err != nil {
			if sig, ok := runtime.Signal(ctx); ok {
				reportSignal(stdout, tel.Events, sig, "tick", src.Ticks())
				break
			}
			return err
		}
		if it.Crash != agingmf.CrashNone {
			// The machine emits the structured crash event itself; its
			// terminal counters are not fed to the monitor.
			fmt.Fprintf(stdout, "tick %6d  CRASH (%v)\n", it.CrashTick, it.Crash)
			break
		}
		_ = snk.WriteSampled(it, seq)
	}
	if n := cp.rejuvenations(); n > 0 {
		fmt.Fprintf(stdout, "rejuvenations: %d policy restarts\n", n)
	}
	fmt.Fprintf(stdout, "final phase: %v (%d jumps across both counters)\n",
		mon.Phase(), len(mon.Jumps()))
	return nil
}
