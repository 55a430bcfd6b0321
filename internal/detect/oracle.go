package detect

import "bytes"

// Replay is the per-sample parity oracle: it feeds runs, in order and one
// Add at a time, into a fresh New(kinds, cfg) set and returns the set's
// SaveState blob. It takes the row path only, never the column kernels,
// so every fast path (batched wire lines, binary frames, migrated or
// restored sources) is checked against the reference byte for byte.
// Several runs replay as one concatenated trace, which lets a caller
// describe a trace with a lost middle as its surviving pieces.
func Replay(kinds []string, cfg Config, runs ...[][2]float64) ([]byte, error) {
	set, err := New(kinds, cfg)
	if err != nil {
		return nil, err
	}
	for _, run := range runs {
		for _, p := range run {
			set.Add(p[0], p[1])
		}
	}
	return set.SaveState()
}

// Mismatches compares a source's state against its oracle state and
// names the divergence: nil when the blobs are equal, "id/kind" for each
// detector whose state differs, and the bare id when the snapshots
// cannot be split, disagree structurally, or differ only in the
// envelope.
func Mismatches(id string, got, want []byte) []string {
	if bytes.Equal(got, want) {
		return nil
	}
	gk, gs, gerr := DecodeStates(got)
	wk, ws, werr := DecodeStates(want)
	if gerr != nil || werr != nil || len(gk) != len(wk) {
		return []string{id}
	}
	var out []string
	for i := range gk {
		if gk[i] != wk[i] {
			return []string{id}
		}
		if !bytes.Equal(gs[i], ws[i]) {
			out = append(out, id+"/"+gk[i])
		}
	}
	if len(out) == 0 {
		return []string{id}
	}
	return out
}
