package detect

import (
	"fmt"

	"agingmf/internal/aging"
	"agingmf/internal/obs"
)

// Holder wraps the paper's Hölder-volatility pipeline — the
// aging.DualMonitor stage composition (OscillationEstimator →
// VolatilityWindow → Standardizer → GatedDetector per counter) — as a
// Detector. Its verdicts, state bytes and phase are exactly the dual
// monitor's, so parity oracles and legacy snapshots carry over unchanged.
type Holder struct {
	dm *aging.DualMonitor
}

// NewHolder creates a holder detector with the given monitor settings.
func NewHolder(cfg aging.Config) (*Holder, error) {
	dm, err := aging.NewDualMonitor(cfg)
	if err != nil {
		return nil, fmt.Errorf("detect: new holder: %w", err)
	}
	return &Holder{dm: dm}, nil
}

// RestoreHolder reconstructs a holder detector from a SaveState blob —
// which is exactly an aging.DualMonitor snapshot, so pre-MonitorSet
// DualMonitor blobs restore here byte-compatibly.
func RestoreHolder(data []byte) (*Holder, error) {
	dm, err := aging.RestoreDualMonitor(data)
	if err != nil {
		return nil, fmt.Errorf("detect: restore holder: %w", err)
	}
	return &Holder{dm: dm}, nil
}

// Kind implements Detector.
func (h *Holder) Kind() string { return KindHolder }

// Push implements Detector: one sample pair through both counter
// pipelines, volatility jumps become jump events.
func (h *Holder) Push(s Sample, tm *aging.StageNanos) Verdict {
	return h.verdict(h.dm.AddTraced(s.Free, s.Swap, tm))
}

// PushColumns implements ColumnPusher: both counter columns run through
// the dual monitor's batch-first AddColumns kernel, which preserves the
// per-pair free-then-swap alarm ordering and per-sample state bytes and
// fills the annotation from inside the kernel.
func (h *Holder) PushColumns(free, swap []float64, ann ...*aging.Annotation) Verdict {
	return h.verdict(h.dm.AddColumns(free, swap, ann...))
}

// verdict wraps the jumps the dual monitor just fired and its phase.
func (h *Holder) verdict(fired []aging.DualJump) Verdict {
	v := Verdict{Phase: h.dm.Phase()}
	if len(fired) == 0 {
		return v
	}
	v.Events = make([]Event, len(fired))
	for i, dj := range fired {
		v.Events[i] = HolderEvent(dj)
	}
	return v
}

// HolderEvent is the one translation of a dual-monitor volatility jump
// into a detector event: the holder detector's events and agingmon's
// jump alerts (via control.FromDetectEvent) both go through it.
func HolderEvent(dj aging.DualJump) Event {
	return Event{
		Detector: KindHolder,
		Kind:     EventJump,
		Counter:  dj.Counter,
		Sample:   dj.Jump.SampleIndex,
		Value:    dj.Jump.Volatility,
		Score:    dj.Jump.Score,
	}
}

// Phase implements Detector.
func (h *Holder) Phase() aging.Phase { return h.dm.Phase() }

// SamplesSeen implements Detector.
func (h *Holder) SamplesSeen() int { return h.dm.SamplesSeen() }

// Jumps implements Detector.
func (h *Holder) Jumps() int { return h.dm.JumpCount() }

// Recalibrations implements Detector: the holder pipeline never
// re-anchors its baseline externally.
func (h *Holder) Recalibrations() int { return 0 }

// LastStats implements Detector.
func (h *Holder) LastStats() (freeStat, swapStat float64) { return h.dm.LastStats() }

// SaveState implements Detector. The blob is a plain aging.DualMonitor
// snapshot (already versioned at the monitor layer), which keeps holder
// state interchangeable with pre-MonitorSet deployments in both
// directions.
func (h *Holder) SaveState() ([]byte, error) { return h.dm.SaveState() }

// Instrument implements Detector (nil-safe).
func (h *Holder) Instrument(reg *obs.Registry) {
	if h == nil || reg == nil {
		return
	}
	h.dm.Instrument(reg)
}

// DualMonitor exposes the wrapped monitor pair (offline analysis and
// tests).
func (h *Holder) DualMonitor() *aging.DualMonitor { return h.dm }

// CounterPhases implements Detector.
func (h *Holder) CounterPhases() (free, swap aging.Phase) {
	return h.dm.FreeMonitor().Phase(), h.dm.SwapMonitor().Phase()
}

var _ Detector = (*Holder)(nil)
