package main

import (
	"fmt"
	"io"
	"os"

	"agingmf"
	"agingmf/internal/ingest"
	"agingmf/internal/runtime"
)

// loadOrNewMonitor restores the monitor from the snapshot manager's path
// if a readable snapshot exists there, or builds a fresh one (an
// unreadable path falls back to fresh, exactly like a cold start — the
// save at exit reports any real persistence problem). A snapshot that
// reads but does not decode is quarantined to <path>.corrupt rather than
// wedging the monitor in a crash loop, and the run starts fresh.
//
// limit is the deprecated -history-limit: it changes no verdict, but the
// state file embeds the monitor configuration, so it keeps the file
// byte-identical to one from a monitor built with the same flags.
func loadOrNewMonitor(sm *runtime.SnapshotManager, limit int, stdout io.Writer) (*agingmf.DualMonitor, error) {
	if blob, err := sm.Restore(); err == nil && blob != nil {
		mon, err := agingmf.RestoreDualMonitor(blob)
		if err == nil {
			fmt.Fprintf(stdout, "restored monitor state: %d samples seen, phase %v\n",
				mon.SamplesSeen(), mon.Phase())
			return mon, nil
		}
		if qpath, qerr := runtime.Quarantine(sm.Path); qerr == nil {
			fmt.Fprintf(stdout, "corrupt snapshot %s quarantined to %s (%v); starting fresh\n",
				sm.Path, qpath, err)
		} else {
			fmt.Fprintf(stdout, "corrupt snapshot %s (%v; quarantine failed: %v); starting fresh\n",
				sm.Path, err, qerr)
		}
	}
	monCfg := agingmf.DefaultMonitorConfig()
	monCfg.HistoryLimit = limit
	return agingmf.NewDualMonitor(monCfg)
}

// saveMonitor stops any periodic snapshot loop and persists the monitor
// when a state file is configured.
func saveMonitor(sm *runtime.SnapshotManager) error {
	if err := sm.StopAndFlush(); err != nil {
		return fmt.Errorf("save state: %w", err)
	}
	return nil
}

// reportJump prints one jump and mirrors it into the event stream.
func reportJump(stdout io.Writer, ev *agingmf.Events, clock string, at int, j agingmf.DualJump) {
	fmt.Fprintf(stdout, "%s %6d  jump on %v (volatility %.4f, score %.2f)\n",
		clock, at, j.Counter, j.Jump.Volatility, j.Jump.Score)
	ev.Warn("jump", agingmf.EventFields{
		"counter":    j.Counter.String(),
		"sample":     j.Jump.SampleIndex,
		"volatility": j.Jump.Volatility,
		"score":      j.Jump.Score,
	})
}

// reportPhase prints a phase transition and mirrors it into the event
// stream.
func reportPhase(stdout io.Writer, ev *agingmf.Events, clock string, at int, from, to agingmf.Phase, extra string) {
	fmt.Fprintf(stdout, "%s %6d  phase: %v -> %v%s\n", clock, at, from, to, extra)
	ev.Warn("phase_change", agingmf.EventFields{
		"sample": at,
		"from":   from.String(),
		"to":     to.String(),
	})
}

// reportSignal notes a termination signal on both channels.
func reportSignal(stdout io.Writer, ev *agingmf.Events, sig os.Signal, clock string, at int) {
	fmt.Fprintf(stdout, "%s %6d  received %v: draining and saving state\n", clock, at, sig)
	ev.Warn("signal", agingmf.EventFields{"signal": sig.String(), "sample": at})
}

// parseSamples parses one stdin line through the shared fleet wire
// parsers (the same ingest.ParseItem the transport source uses):
// "free,swap", "free swap", "timestamp free swap", or a "batch;..." run
// of pairs, each optionally prefixed/tagged "source=ID". The source and
// timestamp fields are accepted and ignored — agingmon monitors a single
// stream; cmd/agingd is the multi-source daemon — so a producer script
// written for one binary feeds the other unchanged. Non-finite values
// are rejected: a NaN smuggled into the monitor would silently poison
// every downstream statistic.
func parseSamples(line string) ([][2]float64, error) {
	it, err := ingest.ParseItem(line)
	if err != nil {
		return nil, err
	}
	return it.Pairs, nil
}

// truncateForEvent bounds attacker- or corruption-controlled line content
// before it lands in an event record.
func truncateForEvent(line string) string {
	const max = 64
	if len(line) > max {
		return line[:max] + "..."
	}
	return line
}
