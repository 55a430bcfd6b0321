package aging

import (
	"fmt"
)

// CounterKind identifies which instrumented counter produced an event.
type CounterKind int

// The two counters the DSN 2003 study instruments.
const (
	// CounterFreeMemory is the available-memory counter.
	CounterFreeMemory CounterKind = iota + 1
	// CounterUsedSwap is the used-swap counter.
	CounterUsedSwap
)

// String implements fmt.Stringer.
func (k CounterKind) String() string {
	switch k {
	case CounterFreeMemory:
		return "free-memory"
	case CounterUsedSwap:
		return "used-swap"
	default:
		return fmt.Sprintf("counter(%d)", int(k))
	}
}

// DualJump is a volatility jump attributed to one of the two counters.
type DualJump struct {
	// Counter identifies the counter whose monitor fired.
	Counter CounterKind
	// Jump is the underlying alarm.
	Jump Jump
}

// DualMonitor runs one Monitor per instrumented counter — free memory and
// used swap — exactly as the original study logged both. Its phase is the
// more advanced of the two per-counter phases, so aging visible on either
// resource is reported.
type DualMonitor struct {
	cfg  Config
	free *Monitor
	swap *Monitor

	jumps []DualJump
}

// NewDualMonitor creates a monitor pair with a shared configuration.
func NewDualMonitor(cfg Config) (*DualMonitor, error) {
	free, err := NewMonitor(cfg)
	if err != nil {
		return nil, fmt.Errorf("new dual monitor: %w", err)
	}
	swap, err := NewMonitor(cfg)
	if err != nil {
		return nil, fmt.Errorf("new dual monitor: %w", err)
	}
	return &DualMonitor{cfg: cfg, free: free, swap: swap}, nil
}

// Config returns the shared configuration.
func (d *DualMonitor) Config() Config { return d.cfg }

// Add consumes one sample of each counter (they are sampled together) and
// returns any jumps fired by this pair of samples, free before swap.
func (d *DualMonitor) Add(freeMemory, usedSwap float64) []DualJump {
	return d.AddTraced(freeMemory, usedSwap, nil)
}

// AddColumns consumes one column per counter (free[i] and swap[i] are
// sample pair i) through the batch-first Monitor.AddColumns kernel.
// State and returned jumps are identical to calling Add per pair: each
// per-counter monitor evolves independently, and the two fired lists
// are merged back into the per-pair free-then-swap arrival order by
// sample index (jump indices are strictly increasing within each
// counter, and a pair's free alarm precedes its swap alarm).
//
// The optional ann (at most one; nil or absent is the hot path) observes
// the batch for the flight recorder and the tracer: see Annotation.
func (d *DualMonitor) AddColumns(freeMemory, usedSwap []float64, ann ...*Annotation) []DualJump {
	var a *Annotation
	if len(ann) > 0 {
		a = ann[0]
	}
	ff := d.free.pushColumns(freeMemory, a, 0)
	sf := d.swap.pushColumns(usedSwap, a, 1)
	if len(ff) == 0 && len(sf) == 0 {
		return nil
	}
	fired := make([]DualJump, 0, len(ff)+len(sf))
	i, j := 0, 0
	for i < len(ff) || j < len(sf) {
		if j >= len(sf) || (i < len(ff) && ff[i].SampleIndex <= sf[j].SampleIndex) {
			fired = append(fired, DualJump{Counter: CounterFreeMemory, Jump: ff[i]})
			i++
		} else {
			fired = append(fired, DualJump{Counter: CounterUsedSwap, Jump: sf[j]})
			j++
		}
	}
	d.jumps = append(d.jumps, fired...)
	return fired
}

// AddTraced is Add with per-stage timing: a non-nil tm accumulates the
// stream-stage push time of both counter streams. Detection state is
// byte-for-byte identical to Add (timing only reads the clock), so the
// fleet daemon's traced path preserves the parity the self-test asserts.
func (d *DualMonitor) AddTraced(freeMemory, usedSwap float64, tm *StageNanos) []DualJump {
	var fired []DualJump
	if j, ok := d.free.AddTraced(freeMemory, tm); ok {
		fired = append(fired, DualJump{Counter: CounterFreeMemory, Jump: j})
	}
	if j, ok := d.swap.AddTraced(usedSwap, tm); ok {
		fired = append(fired, DualJump{Counter: CounterUsedSwap, Jump: j})
	}
	d.jumps = append(d.jumps, fired...)
	return fired
}

// LastStats returns the latest detector-input statistics of the two
// streams (see Monitor.LastStat) — the flight recorder's score columns.
func (d *DualMonitor) LastStats() (freeStat, swapStat float64) {
	return d.free.LastStat(), d.swap.LastStat()
}

// AppendLadders appends the two per-counter phases, free then swap, to
// dst and returns it: the jump ladders whose maximum is Phase. A jump of
// counter c climbs ladder int(c)-1.
func (d *DualMonitor) AppendLadders(dst []Phase) []Phase {
	return append(dst, d.free.Phase(), d.swap.Phase())
}

// Phase returns the most advanced phase across the two counters.
func (d *DualMonitor) Phase() Phase {
	fp, sp := d.free.Phase(), d.swap.Phase()
	if fp > sp {
		return fp
	}
	return sp
}

// Jumps returns every jump observed so far, in arrival order (copy).
func (d *DualMonitor) Jumps() []DualJump {
	return append([]DualJump(nil), d.jumps...)
}

// JumpCount returns how many jumps have been observed, without copying
// the history (hot-path bookkeeping).
func (d *DualMonitor) JumpCount() int { return len(d.jumps) }

// SamplesSeen returns the number of counter-sample pairs consumed.
func (d *DualMonitor) SamplesSeen() int { return d.free.SamplesSeen() }

// FreeMonitor exposes the per-counter monitor for the free-memory stream.
func (d *DualMonitor) FreeMonitor() *Monitor { return d.free }

// SwapMonitor exposes the per-counter monitor for the used-swap stream.
func (d *DualMonitor) SwapMonitor() *Monitor { return d.swap }

// dualState is the exported gob mirror of DualMonitor.
type dualState struct {
	Config Config
	Free   []byte
	Swap   []byte
	Jumps  []DualJump
}

// SaveState serializes both per-counter monitors and the merged jump
// history.
func (d *DualMonitor) SaveState() ([]byte, error) {
	freeBlob, err := d.free.SaveState()
	if err != nil {
		return nil, fmt.Errorf("dual save state: %w", err)
	}
	swapBlob, err := d.swap.SaveState()
	if err != nil {
		return nil, fmt.Errorf("dual save state: %w", err)
	}
	return gobEncode(dualState{
		Config: d.cfg,
		Free:   freeBlob,
		Swap:   swapBlob,
		Jumps:  d.jumps,
	})
}

// RestoreDualMonitor reconstructs a dual monitor from a SaveState
// snapshot.
func RestoreDualMonitor(data []byte) (*DualMonitor, error) {
	var st dualState
	if err := gobDecode(data, &st); err != nil {
		return nil, fmt.Errorf("restore dual monitor: %w", err)
	}
	free, err := RestoreMonitor(st.Free)
	if err != nil {
		return nil, fmt.Errorf("restore dual monitor: free: %w", err)
	}
	swap, err := RestoreMonitor(st.Swap)
	if err != nil {
		return nil, fmt.Errorf("restore dual monitor: swap: %w", err)
	}
	return &DualMonitor{cfg: st.Config, free: free, swap: swap, jumps: st.Jumps}, nil
}
