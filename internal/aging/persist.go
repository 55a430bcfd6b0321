package aging

import (
	"bytes"
	"encoding"
	"encoding/gob"
	"fmt"

	"agingmf/internal/stream"
)

// Monitor state persistence: a long-running agent can SaveState before a
// restart and resume with RestoreMonitor without losing its warmup,
// baselines or jump history. The snapshot is self-describing (it embeds
// the configuration) and holds only stage states, so its size does not
// grow with the samples seen.
//
// The wire layout deliberately keeps the pre-internal/stream (v0) field
// set so snapshots interoperate across the refactor in both directions:
// gob decodes by field name and tolerates both unknown and missing
// fields, so v0 blobs (no Version field) restore into current monitors,
// and current blobs (Version=1) restore into v0 binaries. The stage
// states of internal/stream are flattened into this layout on save and
// reconstructed from it on restore. Blobs written before monitors
// stopped keeping histories carry raw, Hölder and volatility histories;
// restore reads the volatility ring from the Hölder tail and drops the
// rest. A current blob writes Raw and Vols empty and Alphas as exactly
// the ring's contents, which is all an older binary's restore needs. The
// golden-fixture tests pin the compatibility against committed blobs.

// monitorStateVersion is the current snapshot schema version. Version 0
// (the zero value, i.e. a blob written before the field existed) is the
// pre-stream layout, which shares the schema below.
const monitorStateVersion = 1

// monitorState is the exported gob mirror of Monitor.
type monitorState struct {
	Version int

	Config        Config
	DetectorState []byte

	Seen       int
	AlphasSeen int
	VolsSeen   int
	Raw        []float64 // legacy history; written empty
	Alphas     []float64 // the volatility ring's values in push order
	Vols       []float64 // legacy history; written empty

	VolSum   float64
	VolSumSq float64

	CalN       int
	CalSum     float64
	CalSqSum   float64
	CalMean    float64
	CalStd     float64
	Calibrated bool

	Jumps      []Jump
	Refractory int

	Trackers []trackerState
}

// trackerState is the exported gob mirror of one radius tracker
// (stream.ExtremaState, kept as a distinct type so the wire schema is
// owned by this package, not by internal/stream's evolution).
type trackerState struct {
	R       int
	MaxIdx  []int
	MaxVal  []float64
	MinIdx  []int
	MinVal  []float64
	Osc     []float64
	OscBase int
}

// gobEncode serializes any exported-field value.
func gobEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("aging: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// gobDecode is the inverse of gobEncode.
func gobDecode(data []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
		return fmt.Errorf("aging: decode: %w", err)
	}
	return nil
}

// SaveState serializes the monitor, including the jump detector's
// internal state.
func (m *Monitor) SaveState() ([]byte, error) {
	det := m.gate.Detector()
	marshaler, ok := det.(encoding.BinaryMarshaler)
	if !ok {
		return nil, fmt.Errorf("save state: detector %T is not serializable", det)
	}
	detState, err := marshaler.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("save state: %w", err)
	}
	volSt := m.vol.State()
	stdSt := m.std.State()
	st := monitorState{
		Version:       monitorStateVersion,
		Config:        m.cfg,
		DetectorState: detState,
		Seen:          m.seen,
		AlphasSeen:    m.alphasSeen,
		VolsSeen:      m.volsSeen,
		Alphas:        ringTail(volSt),
		VolSum:        volSt.Sum,
		VolSumSq:      volSt.SumSq,
		CalN:          stdSt.N,
		CalSum:        stdSt.Sum,
		CalSqSum:      stdSt.SqSum,
		CalMean:       stdSt.Mean,
		CalStd:        stdSt.Std,
		Calibrated:    stdSt.Calibrated,
		Jumps:         m.jumps,
		Refractory:    m.gate.Remaining(),
	}
	for _, ts := range m.est.State().Trackers {
		st.Trackers = append(st.Trackers, trackerState(ts))
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("save state: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// ringTail returns the volatility ring's last min(Count, W) values in
// push order: the inverse of stream.RebuildVolatilityRing, and the only
// part of the Hölder trajectory a snapshot keeps.
func ringTail(st stream.VolatilityWindowState) []float64 {
	k := min(st.Count, st.W)
	tail := make([]float64, k)
	for i := range tail {
		tail[i] = st.Ring[(st.Count-k+i)%st.W]
	}
	return tail
}

// RestoreMonitor reconstructs a monitor from a SaveState snapshot —
// current or pre-stream (v0) — and continues exactly where the saved one
// stopped.
func RestoreMonitor(data []byte) (*Monitor, error) {
	var st monitorState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return nil, fmt.Errorf("restore monitor: decode: %w", err)
	}
	if st.Version > monitorStateVersion {
		return nil, fmt.Errorf("restore monitor: snapshot version %d is newer than supported %d",
			st.Version, monitorStateVersion)
	}
	m, err := NewMonitor(st.Config)
	if err != nil {
		return nil, fmt.Errorf("restore monitor: %w", err)
	}
	det := m.gate.Detector()
	unmarshaler, ok := det.(encoding.BinaryUnmarshaler)
	if !ok {
		return nil, fmt.Errorf("restore monitor: detector %T is not serializable", det)
	}
	if err := unmarshaler.UnmarshalBinary(st.DetectorState); err != nil {
		return nil, fmt.Errorf("restore monitor: %w", err)
	}
	estSt := stream.OscillationEstimatorState{
		Radii: st.Config.ladder(),
		Seen:  st.Seen,
	}
	for _, ts := range st.Trackers {
		estSt.Trackers = append(estSt.Trackers, stream.ExtremaState(ts))
	}
	if m.est, err = stream.RestoreOscillationEstimator(estSt); err != nil {
		return nil, fmt.Errorf("restore monitor: %w", err)
	}
	// The layout persists the running window sums plus an alpha tail that
	// spans the window (a legacy history's bounded tail always did); the
	// window ring is reconstructed from that tail so the restored
	// monitor's arithmetic continues bit for bit.
	ring, err := stream.RebuildVolatilityRing(st.Config.VolatilityWindow, st.AlphasSeen, st.Alphas)
	if err != nil {
		return nil, fmt.Errorf("restore monitor: %w", err)
	}
	if m.vol, err = stream.RestoreVolatilityWindow(stream.VolatilityWindowState{
		W:     st.Config.VolatilityWindow,
		Ring:  ring,
		Count: st.AlphasSeen,
		Sum:   st.VolSum,
		SumSq: st.VolSumSq,
	}); err != nil {
		return nil, fmt.Errorf("restore monitor: %w", err)
	}
	if m.std, err = stream.RestoreStandardizer(stream.StandardizerState{
		Enabled:    st.Config.standardizes(),
		Warmup:     st.Config.DetectorWarmup,
		N:          st.CalN,
		Sum:        st.CalSum,
		SqSum:      st.CalSqSum,
		Mean:       st.CalMean,
		Std:        st.CalStd,
		Calibrated: st.Calibrated,
	}); err != nil {
		return nil, fmt.Errorf("restore monitor: %w", err)
	}
	if err := m.gate.SetRemaining(st.Refractory); err != nil {
		return nil, fmt.Errorf("restore monitor: refractory %d: %w", st.Refractory, err)
	}
	m.seen = st.Seen
	m.alphasSeen = st.AlphasSeen
	m.volsSeen = st.VolsSeen
	m.jumps = st.Jumps
	return m, nil
}
