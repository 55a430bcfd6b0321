package main

import (
	"bytes"
	"fmt"
	"sync"

	"agingmf/internal/detect"
)

// expectedStates is the per-sample oracle: for every source, a
// detect.MonitorSet with the daemon's suite (restored from the prepared
// state first, when the workload restores one) fed the source's whole
// streamed trace one Add at a time, then serialized. Both daemons must
// end each source in exactly this state, whatever path (columns, rows,
// traced, recorded) they took.
func expectedStates(w *Workload, in *Inputs) (map[string][]byte, error) {
	out := make(map[string][]byte, len(in.IDs))
	var mu sync.Mutex
	err := parallel(len(in.IDs), func(i int) error {
		id := in.IDs[i]
		var (
			set *detect.MonitorSet
			err error
		)
		if blob, ok := in.PreparedStates[id]; ok {
			set, err = detect.RestoreMonitorSet(blob)
		} else {
			set, err = detect.New(w.Detectors, detectConfig())
		}
		if err != nil {
			return fmt.Errorf("oracle %s: %w", id, err)
		}
		free, swap := in.Free[i], in.Swap[i]
		for k := range free {
			set.Add(free[k], swap[k])
		}
		blob, err := set.SaveState()
		if err != nil {
			return fmt.Errorf("oracle %s: %w", id, err)
		}
		mu.Lock()
		out[id] = blob
		mu.Unlock()
		return nil
	})
	return out, err
}

// canonical re-encodes a state blob written by another process. SaveState
// is gob, and gob numbers the types it describes in the order a process
// first encodes or decodes them, so the same state serializes to
// different bytes in two processes with different gob histories.
// Restoring and saving again in this process makes the daemon's bytes
// comparable, byte for byte, with the oracle's.
func canonical(blob []byte) ([]byte, error) {
	set, err := detect.RestoreMonitorSet(blob)
	if err != nil {
		return nil, err
	}
	return set.SaveState()
}

// mismatches returns the ids of the sources whose state in got is
// missing, unrestorable, or differs from the oracle's.
func mismatches(in *Inputs, expected, got map[string][]byte) []string {
	bad := make([]bool, len(in.IDs))
	_ = parallel(len(in.IDs), func(i int) error {
		blob, ok := got[in.IDs[i]]
		if !ok {
			bad[i] = true
			return nil
		}
		c, err := canonical(blob)
		bad[i] = err != nil || !bytes.Equal(c, expected[in.IDs[i]])
		return nil
	})
	var ids []string
	for i, b := range bad {
		if b {
			ids = append(ids, in.IDs[i])
		}
	}
	return ids
}

// failedSamples counts the samples a lifecycle failed: every sample of a
// source whose final state is missing or differs from the oracle, and at
// least as many as the daemon's own ledger shows lost or rejected.
func failedSamples(in *Inputs, expected, got map[string][]byte, sent int, acct accounting) int {
	bad := mismatches(in, expected, got)
	if len(bad) > 0 {
		logf("oracle: %d of %d sources differ from the per-sample reference (first %s)", len(bad), len(in.IDs), bad[0])
	}
	failed := 0
	idx := make(map[string]int, len(in.IDs))
	for i, id := range in.IDs {
		idx[id] = i
	}
	for _, id := range bad {
		failed += len(in.Free[idx[id]])
	}
	lost := int(acct.rejected)
	if short := sent - int(acct.accepted); short > lost {
		lost = short
	}
	return max(failed, lost)
}
