package source

import (
	"time"

	"agingmf/internal/aging"
	"agingmf/internal/trace"
)

// Ladders is the monitor side of an annotated unit: its sample count and
// its per-counter jump ladders (see detect.MonitorSet.AppendLadders).
// aging.DualMonitor and detect.MonitorSet implement it.
type Ladders interface {
	SamplesSeen() int
	AppendLadders(dst []aging.Phase) []aging.Phase
}

// Annotator carries one unit through the observed detection path shared
// by MonitorSink and the fleet registry's shards. The unit runs the same
// column kernels as an unobserved one; the kernels fill an
// aging.Annotation on the way (the lead detector's statistics for the
// recorder tail, stage timings for a traced unit), and End turns that
// and the unit's jump verdicts into tracer spans and flight records.
// One Annotator serves one goroutine; its scratch is reused across
// units, so steady-state recording does not allocate.
type Annotator struct {
	ann    aging.Annotation
	arg    [1]*aging.Annotation
	tm     aging.StageNanos
	stats  [][2]float64
	levels []aging.Phase
	marks  []mark
	recs   []trace.Record
	seen   int
	seq    uint64
	start  time.Time
}

// mark is one jump verdict of the unit: the batch position of the sample
// that fired it and the ladder it climbs.
type mark struct{ sample, ladder int }

// Begin arms the annotation for a unit of n samples about to enter mon.
// With a recorder of depth > 0, the unit's last min(n, depth) samples
// are recorded; a traced unit (seq != 0) is timed from here to End. It
// returns the annotation argument of the column kernels.
func (a *Annotator) Begin(mon Ladders, n, depth int, seq uint64) []*aging.Annotation {
	a.ann = aging.Annotation{}
	a.marks = a.marks[:0]
	a.seq = seq
	a.seen = mon.SamplesSeen()
	if depth > 0 {
		t := min(n, depth)
		if cap(a.stats) < t {
			a.stats = make([][2]float64, t)
		}
		a.ann.Stats = a.stats[:t]
		a.levels = mon.AppendLadders(a.levels[:0])
	}
	if seq != 0 {
		a.tm = aging.StageNanos{}
		a.ann.Tm = &a.tm
		a.start = time.Now()
	}
	a.arg[0] = &a.ann
	return a.arg[:]
}

// Jump marks one jump verdict of the unit: the absolute index of the
// sample that fired it and the ladder it climbs. Verdicts arrive in
// sample order, as the column kernels return them.
func (a *Annotator) Jump(sample, ladder int) {
	a.marks = append(a.marks, mark{sample - a.seen, ladder})
}

// End closes the unit. A traced unit's detect span and its four stream
// stage spans go to tr; the stages ran interleaved inside detect, so
// each accumulated total becomes one span ending at the detect boundary.
// With a recorder, the unit's tail goes to fr: values from the columns,
// scores from the annotation, phase and verdict from the marked jumps
// replayed over the ladders, and — on the last record of a traced unit —
// the trace sequence and stage timings. wall (UnixNano) is the unit's
// commit time, stamped on its records.
func (a *Annotator) End(free, swap []float64, wall int64, tr *trace.Tracer, fr *trace.FlightRecorder, source string, shard int) {
	var detectNs int64
	if a.seq != 0 {
		end := time.Now()
		d := end.Sub(a.start)
		tr.Record(trace.StageDetect, source, shard, a.seq, a.start, d)
		for i, ns := range [...]int64{a.tm.Est, a.tm.Vol, a.tm.Std, a.tm.Gate} {
			sd := time.Duration(ns)
			tr.Record(trace.StageEst+trace.Stage(i), source, shard, a.seq, end.Add(-sd), sd)
		}
		detectNs = d.Nanoseconds()
	}
	stats := a.ann.Stats
	if len(stats) == 0 {
		return
	}
	tail0 := len(free) - len(stats)
	phase := aging.PhaseHealthy
	for _, l := range a.levels {
		phase = max(phase, l)
	}
	mi := 0
	for ; mi < len(a.marks) && a.marks[mi].sample < tail0; mi++ {
		phase = a.climb(a.marks[mi].ladder, phase)
	}
	if cap(a.recs) < len(stats) {
		a.recs = make([]trace.Record, len(stats))
	}
	recs := a.recs[:len(stats)]
	// Written field by field, with the phase name looked up only when a
	// jump moves it: a composite literal per record, plus Phase.String,
	// cost twice as much.
	name := phase.String()
	for k := range recs {
		i := tail0 + k
		jumps := 0
		for ; mi < len(a.marks) && a.marks[mi].sample == i; mi++ {
			phase = a.climb(a.marks[mi].ladder, phase)
			jumps++
		}
		if jumps > 0 {
			name = phase.String()
		}
		r := &recs[k]
		r.Seq = uint64(a.seen + i + 1)
		r.Wall = wall
		r.Free, r.Swap = free[i], swap[i]
		r.ScoreFree, r.ScoreSwap = stats[k][0], stats[k][1]
		r.Phase = name
		r.Jumps = jumps
		r.TraceSeq = 0
		r.StageNs = [trace.NumStages]int64{}
	}
	if a.seq != 0 {
		last := &recs[len(recs)-1]
		last.TraceSeq = a.seq
		last.StageNs[trace.StageEst] = a.tm.Est
		last.StageNs[trace.StageVol] = a.tm.Vol
		last.StageNs[trace.StageStd] = a.tm.Std
		last.StageNs[trace.StageGate] = a.tm.Gate
		last.StageNs[trace.StageDetect] = detectNs
	}
	fr.Append(recs)
}

// climb moves ladder l one jump up and returns the unit's phase after
// it, given the phase before.
func (a *Annotator) climb(l int, phase aging.Phase) aging.Phase {
	if l < 0 || l >= len(a.levels) {
		return phase
	}
	a.levels[l] = min(a.levels[l]+1, aging.PhaseCrashImminent)
	return max(phase, a.levels[l])
}
