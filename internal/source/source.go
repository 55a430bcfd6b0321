// Package source is the transport layer of the monitoring pipeline: a
// Source yields counter-sample items — a text line stream (agingmon
// -stdin, through ingest.NewLineSource), a binary frame stream, a
// simulated machine, and FaultSource injecting drops and corruption into
// any of them — and two sinks consume them: MonitorSink feeds an online
// dual monitor (agingmon) and TraceSink records a simulated run
// (stressgen). The binary frame codec and ColumnarBatch here are also
// the fleet daemon's socket edge. Swapping the input of a detector (the
// requirement the aging literature keeps restating: CHAOS, the
// workload-shift studies) is a constructor change, and a new transport
// is one file.
//
// Contract notes:
//
//   - Next returns io.EOF when the source is exhausted, a *BadLineError
//     for a recoverable malformed input (the caller may keep reading),
//     context.Cause(ctx) when cancelled, and any other error terminally.
//   - An Item's slices may be reused by the source; they are valid only
//     until the next call to Next.
//   - A crashed simulation delivers its terminal counters in a final
//     Item with Crash set; the following Next returns *CrashError until
//     the consumer calls Reboot (sources without machines never crash).
package source

import (
	"context"
	"fmt"

	"agingmf/internal/memsim"
)

// Item is one unit of transport: a run of counter-sample pairs from one
// origin, oldest first — the in-memory form of a wire line (single
// samples are a run of one) and of a simulation tick.
type Item struct {
	// Source identifies the producing machine; empty means the consumer
	// supplies a default (exactly as on the wire).
	Source string
	// Pairs holds the observations: pair[0] = free memory bytes,
	// pair[1] = used swap bytes. Valid until the next call to Next.
	Pairs [][2]float64
	// Counters optionally carries the full machine counters behind each
	// pair (simulation sources populate it; wire sources cannot).
	Counters []memsim.Counters
	// Crash marks the item that carries a crashed machine's terminal
	// counters (CrashNone everywhere else); CrashTick is the machine
	// tick of the crash.
	Crash     memsim.CrashKind
	CrashTick int
}

// Source yields items until exhaustion. See the package comment for the
// error contract of Next.
type Source interface {
	Next(ctx context.Context) (Item, error)
	Close() error
}

// ParseFunc turns one non-blank input line into an item; LineSource
// applies it per line (the fleet wire protocol's ParseFunc lives in
// internal/ingest, next to the wire parsers).
type ParseFunc func(line string) (Item, error)

// BadLineError reports one recoverable malformed input. The caller
// decides the budget: skip and keep reading, or abort.
type BadLineError struct {
	// Line is the offending input (untrimmed of its payload; bound it
	// before logging).
	Line string
	// Err is the underlying parse error.
	Err error
}

func (e *BadLineError) Error() string { return fmt.Sprintf("bad line %q: %v", e.Line, e.Err) }
func (e *BadLineError) Unwrap() error { return e.Err }

// CrashError reports a Next on a simulation whose machine has crashed
// and was not rebooted — the terminal counters were already delivered in
// the preceding item.
type CrashError struct {
	Kind memsim.CrashKind
	Tick int
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("machine crashed (%v) at tick %d", e.Kind, e.Tick)
}
