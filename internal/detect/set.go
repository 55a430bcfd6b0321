package detect

import (
	"fmt"

	"agingmf/internal/aging"
	"agingmf/internal/obs"
)

// MonitorSet runs N detectors side by side over one source's paired
// counter stream. Every sample is pushed through every detector in
// configured order, and the emitted events carry the detector label, so
// two detectors firing on the same tick produce two distinguishable
// alerts rather than one re-fanned duplicate. The set's aggregate phase
// is the most advanced across detectors. Not safe for concurrent use.
type MonitorSet struct {
	dets []Detector
}

// New creates a MonitorSet running the given detector kinds, in order.
func New(kinds []string, cfg Config) (*MonitorSet, error) {
	if len(kinds) == 0 {
		kinds = []string{KindHolder}
	}
	cfg = cfg.withDefaults()
	dets := make([]Detector, 0, len(kinds))
	for _, kind := range kinds {
		for _, d := range dets {
			if d.Kind() == kind {
				return nil, fmt.Errorf("detect: duplicate detector %q: %w", kind, ErrBadConfig)
			}
		}
		d, err := cfg.newDetector(kind)
		if err != nil {
			return nil, err
		}
		dets = append(dets, d)
	}
	return &MonitorSet{dets: dets}, nil
}

// Kinds returns the detector kinds in push order (copy).
func (s *MonitorSet) Kinds() []string {
	kinds := make([]string, len(s.dets))
	for i, d := range s.dets {
		kinds[i] = d.Kind()
	}
	return kinds
}

// Len returns the number of detectors in the set.
func (s *MonitorSet) Len() int { return len(s.dets) }

// Detector returns the i-th detector (push order).
func (s *MonitorSet) Detector(i int) Detector { return s.dets[i] }

// Lookup returns the detector of the given kind, or nil.
func (s *MonitorSet) Lookup(kind string) Detector {
	for _, d := range s.dets {
		if d.Kind() == kind {
			return d
		}
	}
	return nil
}

// Add consumes one sample pair through every detector and returns the
// events fired, in detector order (nil on the steady-state path).
func (s *MonitorSet) Add(free, swap float64) []Event {
	return s.AddTraced(free, swap, nil)
}

// AddTraced is Add with per-stage timing: a non-nil tm accumulates the
// stage push time of the detectors that decompose into stages (holder,
// adaptive). Detection state is byte-for-byte identical either way.
func (s *MonitorSet) AddTraced(free, swap float64, tm *aging.StageNanos) []Event {
	sample := Sample{Free: free, Swap: swap}
	var events []Event
	for _, d := range s.dets {
		v := d.Push(sample, tm)
		if len(v.Events) > 0 {
			events = append(events, v.Events...)
		}
	}
	return events
}

// AddColumns consumes one column per counter (free[i] and swap[i] are
// sample pair i) through each detector's batch-first kernel. It is the
// entry point of every multi-sample unit the daemon ingests: one call
// per frame or batch line, no per-sample Sample construction or
// interface dispatch. State and returned events are identical to calling
// Add per pair — each detector's events arrive in per-sample order, and
// the per-detector lists are merged back into the per-sample,
// detector-configuration order the row path emits (asserted by the
// columnar parity tests). A lone pair takes the per-sample path:
// the column kernels' per-call setup outweighs their per-sample saving
// at n = 1. One text line per sample is agingd's line protocol, and
// with 1-length columns there perfbench's fleet-text-lines workload
// spent ~12% more daemon CPU per sample (median of five alternating
// pairs, 5,286 vs 4,733 ns).
//
// The optional ann (at most one; nil or absent is the hot path) observes
// the unit without changing any verdict: the lead (first-configured)
// detector fills Stats — the flight recorder's score columns, as
// LastStats reports them — and every detector accumulates stage time
// into Tm where its Push would (see ColumnPusher).
func (s *MonitorSet) AddColumns(free, swap []float64, ann ...*aging.Annotation) []Event {
	a := annotation(ann)
	if len(free) == 1 {
		var tm *aging.StageNanos
		if a != nil {
			tm = a.Tm
		}
		events := s.AddTraced(free[0], swap[0], tm)
		if a != nil && len(a.Stats) > 0 {
			a.Stats[0][0], a.Stats[0][1] = s.LastStats()
		}
		return events
	}
	if len(s.dets) == 1 {
		return s.dets[0].PushColumns(free, swap, ann...).Events
	}
	// Only the lead detector reports statistics: the others see the
	// annotation with Stats cleared, restored before returning.
	var stats [][2]float64
	if a != nil {
		stats = a.Stats
	}
	var lists [][]Event
	total := 0
	for i, d := range s.dets {
		if i == 1 && a != nil {
			a.Stats = nil
		}
		evs := d.PushColumns(free, swap, ann...).Events
		lists = append(lists, evs)
		total += len(evs)
	}
	if a != nil {
		a.Stats = stats
	}
	if total == 0 {
		return nil
	}
	// Merge on (sample index, detector rank): every detector's list is
	// non-decreasing in Event.Sample, and within one sample the row path
	// emits detectors in configured order.
	events := make([]Event, 0, total)
	heads := make([]int, len(lists))
	for len(events) < total {
		best := -1
		for i, evs := range lists {
			if heads[i] >= len(evs) {
				continue
			}
			if best < 0 || evs[heads[i]].Sample < lists[best][heads[best]].Sample {
				best = i
			}
		}
		events = append(events, lists[best][heads[best]])
		heads[best]++
	}
	return events
}

// AppendLadders appends the phase of every jump ladder of the set to dst
// — two per detector, free then swap, in push order — and returns it.
// The set's phase is their maximum, and each jump event climbs exactly
// its own ladder (see Ladder), so a caller holding the ladders from
// before a unit can replay the unit's events into the phase after each
// sample: that is how the flight recorder annotates a columnar unit.
func (s *MonitorSet) AppendLadders(dst []aging.Phase) []aging.Phase {
	for _, d := range s.dets {
		f, w := d.CounterPhases()
		dst = append(dst, f, w)
	}
	return dst
}

// Ladder returns the AppendLadders index of the ladder a jump event of
// this set climbs, or -1 when no detector of the set emitted it.
func (s *MonitorSet) Ladder(ev Event) int {
	for i, d := range s.dets {
		if d.Kind() == ev.Detector {
			return 2*i + int(ev.Counter) - 1
		}
	}
	return -1
}

// Phase returns the most advanced phase across the detectors.
func (s *MonitorSet) Phase() aging.Phase {
	phase := aging.PhaseHealthy
	for _, d := range s.dets {
		phase = maxPhase(phase, d.Phase())
	}
	return phase
}

// SamplesSeen returns how many sample pairs have been consumed (all
// detectors see every sample, so any one's count is the set's).
func (s *MonitorSet) SamplesSeen() int {
	if len(s.dets) == 0 {
		return 0
	}
	return s.dets[0].SamplesSeen()
}

// Jumps returns the total jump events emitted across detectors.
func (s *MonitorSet) Jumps() int {
	var n int
	for _, d := range s.dets {
		n += d.Jumps()
	}
	return n
}

// LastStats returns the lead (first-configured) detector's per-counter
// statistics — the flight recorder's score columns keep their historical
// meaning when the lead detector is holder.
func (s *MonitorSet) LastStats() (freeStat, swapStat float64) {
	if len(s.dets) == 0 {
		return 0, 0
	}
	return s.dets[0].LastStats()
}

// Instrument attaches telemetry to reg (nil-safe).
func (s *MonitorSet) Instrument(reg *obs.Registry) {
	if s == nil || reg == nil {
		return
	}
	for _, d := range s.dets {
		d.Instrument(reg)
	}
}

// DetectorStatus is one detector's externally visible state — the
// per-detector section of the daemon's source status.
type DetectorStatus struct {
	// Kind is the detector name.
	Kind string `json:"kind"`
	// Phase is the detector's aging assessment.
	Phase string `json:"phase"`
	// Jumps is how many jump events the detector emitted.
	Jumps int `json:"jumps"`
	// Recalibrations is how many baseline re-anchors it performed.
	Recalibrations int `json:"recalibrations,omitempty"`
}

// Status reports every detector's state, in push order.
func (s *MonitorSet) Status() []DetectorStatus {
	out := make([]DetectorStatus, len(s.dets))
	for i, d := range s.dets {
		out[i] = DetectorStatus{
			Kind:           d.Kind(),
			Phase:          d.Phase().String(),
			Jumps:          d.Jumps(),
			Recalibrations: d.Recalibrations(),
		}
	}
	return out
}

// setStateVersion is the current MonitorSet snapshot schema version.
// Legacy aging.DualMonitor blobs are recognized structurally: they share
// no field names with setState, so gob refuses to decode them into it,
// and the fallback probe (a full DualMonitor restore) routes them to the
// holder-only path.
const setStateVersion = 1

// setState is the exported gob mirror of MonitorSet.
type setState struct {
	Version int
	Kinds   []string
	States  [][]byte
}

// SaveState serializes the set: a versioned envelope of per-detector
// blobs, each self-describing. A holder-only set serializes as the raw
// aging.DualMonitor blob — the pre-MonitorSet format — so snapshots from
// a default-configured daemon stay readable by legacy tooling and
// byte-comparable against plain DualMonitor oracles.
func (s *MonitorSet) SaveState() ([]byte, error) {
	if len(s.dets) == 1 && s.dets[0].Kind() == KindHolder {
		return s.dets[0].SaveState()
	}
	st := setState{
		Version: setStateVersion,
		Kinds:   make([]string, len(s.dets)),
		States:  make([][]byte, len(s.dets)),
	}
	for i, d := range s.dets {
		blob, err := d.SaveState()
		if err != nil {
			return nil, fmt.Errorf("detect: save set: %s: %w", d.Kind(), err)
		}
		st.Kinds[i] = d.Kind()
		st.States[i] = blob
	}
	return gobEncode(st)
}

// DecodeStates splits a MonitorSet (or legacy DualMonitor) snapshot into
// its per-detector kinds and state blobs without rebuilding detectors —
// the parity oracles use it to report which detector diverged. A legacy
// DualMonitor blob decodes as a holder-only set whose state is the blob
// itself.
func DecodeStates(data []byte) (kinds []string, states [][]byte, err error) {
	var st setState
	if derr := gobDecode(data, &st); derr != nil {
		// Not a set envelope. Probe for a legacy aging.DualMonitor
		// snapshot (pre-MonitorSet): if it restores, the blob is a
		// holder-only set whose holder state is the blob itself.
		if _, lerr := aging.RestoreDualMonitor(data); lerr == nil {
			return []string{KindHolder}, [][]byte{data}, nil
		}
		return nil, nil, fmt.Errorf("detect: decode set: %w", derr)
	}
	if st.Version < 1 || st.Version > setStateVersion {
		return nil, nil, fmt.Errorf("%w: set snapshot version %d (supported 1..%d)",
			ErrBadState, st.Version, setStateVersion)
	}
	if len(st.Kinds) != len(st.States) || len(st.Kinds) == 0 {
		return nil, nil, fmt.Errorf("%w: set snapshot with %d kinds / %d states",
			ErrBadState, len(st.Kinds), len(st.States))
	}
	return st.Kinds, st.States, nil
}

// RestoreMonitorSet reconstructs a set from a SaveState snapshot — or
// from a legacy aging.DualMonitor snapshot, which restores into a set
// containing only the holder detector. Each detector resumes exactly
// where the saved one stopped.
func RestoreMonitorSet(data []byte) (*MonitorSet, error) {
	kinds, states, err := DecodeStates(data)
	if err != nil {
		return nil, err
	}
	dets := make([]Detector, 0, len(kinds))
	for i, kind := range kinds {
		for _, d := range dets {
			if d.Kind() == kind {
				return nil, fmt.Errorf("%w: duplicate detector %q in set snapshot", ErrBadState, kind)
			}
		}
		var (
			d    Detector
			rerr error
		)
		switch kind {
		case KindHolder:
			d, rerr = RestoreHolder(states[i])
		case KindEntropy:
			d, rerr = RestoreEntropy(states[i])
		case KindAdaptive:
			d, rerr = RestoreAdaptive(states[i])
		default:
			return nil, fmt.Errorf("%w: %q in set snapshot", ErrUnknownKind, kind)
		}
		if rerr != nil {
			return nil, fmt.Errorf("detect: restore set: %s: %w", kind, rerr)
		}
		dets = append(dets, d)
	}
	return &MonitorSet{dets: dets}, nil
}
