package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"agingmf/internal/source"
)

func TestRunToCrashPrintsEvents(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-seed", "1", "-max-ticks", "20000"}, nil, &buf)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"machine:", "CRASH", "final phase:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "jump on") {
		t.Errorf("no jump events printed:\n%s", out)
	}
}

func TestRunShortHorizonNoCrash(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-max-ticks", "100"}, nil, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	if strings.Contains(buf.String(), "CRASH") {
		t.Error("crash within 100 ticks is implausible")
	}
}

// TestRunHistoryLimitIsIgnored: the deprecated -history-limit still
// parses, warns once when set, and changes nothing about the run.
func TestRunHistoryLimitIsIgnored(t *testing.T) {
	const warning = "-history-limit is deprecated and ignored"
	var plain, limited bytes.Buffer
	if err := run([]string{"-max-ticks", "3000"}, nil, &plain); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := run([]string{"-max-ticks", "3000", "-history-limit", "128"}, nil, &limited); err != nil {
		t.Fatalf("run -history-limit: %v", err)
	}
	if strings.Contains(plain.String(), warning) {
		t.Errorf("warning printed without the flag:\n%s", plain.String())
	}
	if n := strings.Count(limited.String(), warning); n != 1 {
		t.Fatalf("warning printed %d times with the flag, want once:\n%s", n, limited.String())
	}
	rest := strings.SplitN(limited.String(), "\n", 2)[1]
	if rest != plain.String() {
		t.Errorf("-history-limit changed the run:\n%s\nvs\n%s", rest, plain.String())
	}
}

func TestRunBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-bogus"}, nil, &buf); err == nil {
		t.Error("unknown flag should fail")
	}
	if err := run([]string{"-ram-mib", "0", "-max-ticks", "10"}, nil, &buf); err == nil {
		t.Error("zero RAM should fail machine validation")
	}
}

func TestRunStdinMode(t *testing.T) {
	// A calm stream then a rough regime: the monitor must report a phase
	// change and the final summary.
	var in strings.Builder
	in.WriteString("# comment line\n\n")
	level := 1e9
	for i := 0; i < 3000; i++ {
		level -= 1e4
		fmt.Fprintf(&in, "%.0f,0\n", level)
	}
	for i := 0; i < 3000; i++ {
		if (i/32)%2 == 0 {
			level -= 1e4
		} else {
			level -= 1e4
			fmt.Fprintf(&in, "%.0f,%d\n", level+5e7*float64(i%7), i*1000)
			continue
		}
		fmt.Fprintf(&in, "%.0f,%d\n", level, i*1000)
	}
	var out bytes.Buffer
	if err := run([]string{"-stdin"}, strings.NewReader(in.String()), &out); err != nil {
		t.Fatalf("run -stdin: %v", err)
	}
	if !strings.Contains(out.String(), "final phase:") {
		t.Errorf("missing summary:\n%.200s", out.String())
	}
	if !strings.Contains(out.String(), "6000 samples") {
		t.Errorf("sample count wrong:\n%s", lastLine(out.String()))
	}
}

// TestRunStdinBatchLines feeds the same stream split into batch; lines:
// the monitor must count every sample inside the batches, and a
// corrupted batch must be skipped whole, not half-ingested.
func TestRunStdinBatchLines(t *testing.T) {
	var in strings.Builder
	level := 1e9
	for i := 0; i < 40; i++ { // 40 lines x 5 samples
		in.WriteString("batch")
		for k := 0; k < 5; k++ {
			level -= 1e4
			fmt.Fprintf(&in, ";%.0f 0", level)
		}
		in.WriteString("\n")
	}
	in.WriteString("batch;1 2;NaN 0\n") // rejected whole
	var out bytes.Buffer
	if err := run([]string{"-stdin"}, strings.NewReader(in.String()), &out); err != nil {
		t.Fatalf("run -stdin with batches: %v", err)
	}
	if !strings.Contains(out.String(), "200 samples") {
		t.Errorf("batched samples lost:\n%s", lastLine(out.String()))
	}
	if !strings.Contains(out.String(), "1 bad skipped") {
		t.Errorf("bad batch not counted:\n%s", lastLine(out.String()))
	}
}

func TestRunStdinMalformedStrictMode(t *testing.T) {
	// -max-bad-samples 0 restores the old fail-fast behaviour: the first
	// malformed line aborts the run.
	var out bytes.Buffer
	if err := run([]string{"-stdin", "-max-bad-samples", "0"}, strings.NewReader("1,2,3\n"), &out); err == nil {
		t.Error("three fields should fail in strict mode")
	}
	if err := run([]string{"-stdin", "-max-bad-samples", "0"}, strings.NewReader("abc,1\n"), &out); err == nil {
		t.Error("non-numeric free should fail in strict mode")
	}
	if err := run([]string{"-stdin", "-max-bad-samples", "0"}, strings.NewReader("1,xyz\n"), &out); err == nil {
		t.Error("non-numeric swap should fail in strict mode")
	}
}

func TestRunStdinSkipsMalformedByDefault(t *testing.T) {
	// One bad line inside a good stream must not kill the monitor: it is
	// skipped, counted, and reported in the summary.
	var in strings.Builder
	level := 1e9
	for i := 0; i < 100; i++ {
		level -= 1e4
		fmt.Fprintf(&in, "%.0f,0\n", level)
		if i == 50 {
			in.WriteString("garbage line\n")
			in.WriteString("NaN,0\n")
		}
	}
	var out bytes.Buffer
	if err := run([]string{"-stdin"}, strings.NewReader(in.String()), &out); err != nil {
		t.Fatalf("run with recoverable bad samples: %v", err)
	}
	if !strings.Contains(out.String(), "100 samples") {
		t.Errorf("good samples lost:\n%s", lastLine(out.String()))
	}
	if !strings.Contains(out.String(), "2 bad skipped") {
		t.Errorf("bad samples not counted:\n%s", lastLine(out.String()))
	}
}

func TestRunStdinBadSampleBudgetExhausted(t *testing.T) {
	var in strings.Builder
	for i := 0; i < 10; i++ {
		in.WriteString("junk\n")
	}
	var out bytes.Buffer
	err := run([]string{"-stdin", "-max-bad-samples", "3"}, strings.NewReader(in.String()), &out)
	if err == nil || !strings.Contains(err.Error(), "max-bad-samples") {
		t.Fatalf("err = %v, want budget exhaustion", err)
	}
	// Unlimited tolerance: the same stream drains cleanly.
	out.Reset()
	if err := run([]string{"-stdin", "-max-bad-samples", "-1"}, strings.NewReader(in.String()), &out); err != nil {
		t.Fatalf("unlimited tolerance still failed: %v", err)
	}
	if !strings.Contains(out.String(), "10 bad skipped") {
		t.Errorf("summary missing skip count:\n%s", lastLine(out.String()))
	}
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}

func TestRunStatePersistsAcrossInvocations(t *testing.T) {
	state := t.TempDir() + "/mon.state"
	var out1 bytes.Buffer
	// First session: calm stream only, saved at exit.
	var in1 strings.Builder
	level := 1e9
	for i := 0; i < 2500; i++ {
		level -= 1e4
		fmt.Fprintf(&in1, "%.0f,0\n", level)
	}
	if err := run([]string{"-stdin", "-state", state}, strings.NewReader(in1.String()), &out1); err != nil {
		t.Fatalf("first run: %v", err)
	}
	// Second session: restored state must report the carried-over samples.
	var out2 bytes.Buffer
	if err := run([]string{"-stdin", "-state", state}, strings.NewReader("1,0\n2,0\n"), &out2); err != nil {
		t.Fatalf("second run: %v", err)
	}
	if !strings.Contains(out2.String(), "restored monitor state: 2500 samples") {
		t.Errorf("state not restored:\n%s", out2.String())
	}
}

// TestRunStdinBinaryFrames pipes binary columnar frames into -stdin: the
// one peeked magic byte must flip the decoder to the frame protocol, and
// every framed sample must reach the monitor (same count a text stream
// of the same trace would report).
func TestRunStdinBinaryFrames(t *testing.T) {
	var wire bytes.Buffer
	level := 1e9
	var frame []byte
	for f := 0; f < 40; f++ { // 40 frames x 50 samples
		cb := source.ColumnarBatch{Source: "rig"}
		for k := 0; k < 50; k++ {
			level -= 1e4
			cb.Free = append(cb.Free, level)
			cb.Swap = append(cb.Swap, float64(k*1000))
		}
		var err error
		frame, err = source.AppendFrame(frame[:0], &cb)
		if err != nil {
			t.Fatalf("encode frame %d: %v", f, err)
		}
		wire.Write(frame)
	}
	var out bytes.Buffer
	if err := run([]string{"-stdin"}, bytes.NewReader(wire.Bytes()), &out); err != nil {
		t.Fatalf("run -stdin on frames: %v", err)
	}
	if !strings.Contains(out.String(), "2000 samples") {
		t.Errorf("framed samples lost:\n%s", lastLine(out.String()))
	}
	if !strings.Contains(out.String(), "0 bad skipped") {
		t.Errorf("frames misparsed:\n%s", lastLine(out.String()))
	}
}

// TestRunStdinBinaryCorruptFrame flips payload bytes in one mid-stream
// frame: the CRC must reject that frame whole as one bad sample unit
// while every surrounding frame still lands.
func TestRunStdinBinaryCorruptFrame(t *testing.T) {
	var wire bytes.Buffer
	level := 1e9
	var frame []byte
	corruptAt := -1
	for f := 0; f < 10; f++ {
		cb := source.ColumnarBatch{Source: "rig"}
		for k := 0; k < 20; k++ {
			level -= 1e4
			cb.Free = append(cb.Free, level)
			cb.Swap = append(cb.Swap, 0)
		}
		var err error
		frame, err = source.AppendFrame(frame[:0], &cb)
		if err != nil {
			t.Fatalf("encode frame %d: %v", f, err)
		}
		if f == 5 {
			corruptAt = wire.Len() + len(frame) - 6 // inside the last column
		}
		wire.Write(frame)
	}
	raw := wire.Bytes()
	raw[corruptAt] ^= 0xFF
	var out bytes.Buffer
	if err := run([]string{"-stdin"}, bytes.NewReader(raw), &out); err != nil {
		t.Fatalf("run -stdin on corrupted frames: %v", err)
	}
	if !strings.Contains(out.String(), "180 samples") {
		t.Errorf("surviving frames lost:\n%s", lastLine(out.String()))
	}
	if !strings.Contains(out.String(), "1 bad skipped") {
		t.Errorf("corrupt frame not counted:\n%s", lastLine(out.String()))
	}
}
