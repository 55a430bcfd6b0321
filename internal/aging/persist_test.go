package aging

import (
	"bytes"
	"testing"
)

// TestSaveRestoreContinuesExactly is the core persistence guarantee: for
// every detector kind, splitting a stream at an arbitrary point with a
// save/restore must yield exactly the same jumps as an uninterrupted run.
func TestSaveRestoreContinuesExactly(t *testing.T) {
	xs := regimeChangeSignal(t, 16000, 55)
	for _, kind := range []DetectorKind{DetectShewhart, DetectCUSUM, DetectPageHinkley, DetectEWMA} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Detector = kind
			reference, err := NewMonitor(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range xs {
				reference.Add(v)
			}

			// Interrupted run: save mid-stream (inside the first half, past
			// the warmup), restore, continue.
			first, err := NewMonitor(cfg)
			if err != nil {
				t.Fatal(err)
			}
			split := 5000
			for _, v := range xs[:split] {
				first.Add(v)
			}
			blob, err := first.SaveState()
			if err != nil {
				t.Fatalf("SaveState: %v", err)
			}
			second, err := RestoreMonitor(blob)
			if err != nil {
				t.Fatalf("RestoreMonitor: %v", err)
			}
			if second.SamplesSeen() != split {
				t.Fatalf("restored SamplesSeen = %d, want %d", second.SamplesSeen(), split)
			}
			for _, v := range xs[split:] {
				second.Add(v)
			}

			refJumps := reference.Jumps()
			gotJumps := second.Jumps()
			if len(refJumps) != len(gotJumps) {
				t.Fatalf("jump count: reference %d, restored %d", len(refJumps), len(gotJumps))
			}
			for i := range refJumps {
				if refJumps[i] != gotJumps[i] {
					t.Fatalf("jump %d: reference %+v, restored %+v", i, refJumps[i], gotJumps[i])
				}
			}
			if reference.Phase() != second.Phase() {
				t.Fatalf("phase: reference %v, restored %v", reference.Phase(), second.Phase())
			}
			// Every stage state must match too.
			if !bytes.Equal(saveBytes(t, reference), saveBytes(t, second)) {
				t.Fatal("restored-and-continued state serializes differently from the reference")
			}
		})
	}
}

// TestSaveRestoreBoundedMode: a config that still carries the deprecated
// HistoryLimit round-trips like any other.
func TestSaveRestoreBoundedMode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HistoryLimit = 512
	xs := regimeChangeSignal(t, 16000, 56)
	reference, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	split := 6000
	for i, v := range xs {
		reference.Add(v)
		if i < split {
			first.Add(v)
		}
	}
	blob, err := first.SaveState()
	if err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	second, err := RestoreMonitor(blob)
	if err != nil {
		t.Fatalf("RestoreMonitor: %v", err)
	}
	for _, v := range xs[split:] {
		second.Add(v)
	}
	if len(reference.Jumps()) != len(second.Jumps()) {
		t.Fatalf("bounded jump count: %d vs %d", len(reference.Jumps()), len(second.Jumps()))
	}
	for i, j := range reference.Jumps() {
		if second.Jumps()[i] != j {
			t.Fatalf("bounded jump %d differs", i)
		}
	}
	if !bytes.Equal(saveBytes(t, reference), saveBytes(t, second)) {
		t.Fatal("bounded restored-and-continued state serializes differently")
	}
}

func TestRestoreMonitorRejectsGarbage(t *testing.T) {
	if _, err := RestoreMonitor([]byte("not a gob blob")); err == nil {
		t.Error("garbage input should fail")
	}
	if _, err := RestoreMonitor(nil); err == nil {
		t.Error("nil input should fail")
	}
}
