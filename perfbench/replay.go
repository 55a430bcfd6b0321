package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"agingmf/internal/aging"
	"agingmf/internal/changepoint"
	"agingmf/internal/control"
	"agingmf/internal/detect"
	"agingmf/internal/ingest"
	"agingmf/internal/obs"
	"agingmf/internal/source"
	"agingmf/internal/stream"
	"agingmf/internal/trace"
)

// The traced replay feeds a workload's wire bytes, in process and chunk by
// chunk, through the public call of every layer, timing each call as a
// span named after the pipeline tracer's stage. Every layer runs on every
// workload's input, so every per-layer metric is measured everywhere; only
// the layers on the workload's own daemon path (pathLayers) add up to
// layers.ns_per_sample:
//
//	agingd:   parse → detect → trace.flight → alerts → queue
//	agingmon: source.next → sink.write
//
// Breakdown spans (one detector alone, one stream stage alone, the
// agingmon path on an agingd workload) run on instances of their own for
// the first breakdownSources sources and are reported, never summed.

// Span names: the tracer's stage names, plus the agingmon sink and the
// breakdown parent.
var (
	spanSourceNext = trace.StageSourceNext.String()
	spanParse      = trace.StageParse.String()
	spanQueue      = trace.StageQueue.String()
	spanDetect     = trace.StageDetect.String()
	spanAlerts     = trace.StageAlerts.String()
	spanEst        = trace.StageEst.String()
	spanVol        = trace.StageVol.String()
	spanStd        = trace.StageStd.String()
	spanGate       = trace.StageGate.String()
	spanFlight     = "trace.flight"
	spanSinkWrite  = "sink.write"
	spanBreakdown  = "breakdown"
)

// allKinds is the breakdown's detector suite: every detector is timed on
// every workload, whatever the daemon runs.
var allKinds = []string{detect.KindHolder, detect.KindEntropy, detect.KindAdaptive}

const (
	// chunkLines is the text lines per replay chunk (a frame is a chunk of
	// its own): one span per layer per chunk keeps clock reads from
	// dominating per-line costs of a few hundred ns.
	chunkLines = 64
	// breakdownSources bounds the sources the breakdown keeps state for,
	// which bounds the replay's memory on 4096-source fleets.
	breakdownSources = 64
	// flightDepth is the recorder depth trace.flight is timed at: agingd's
	// and agingmon's default.
	flightDepth = 64
	// maxKept bounds the spans held for the trace export (~6 MB).
	maxKept = 1 << 17
)

// span is one timed call.
type span struct {
	name       string
	start, end int64 // ns since the replay started
	parent     int32 // index of the parent span in kept, -1 for a root
	unit       int64 // replay chunk the call belongs to
}

// spanTracer accumulates self time per span name and keeps the first
// maxKept spans for the trace export.
type spanTracer struct {
	t0   time.Time
	kept []span
	self map[string]int64
}

// active is a span that has begun and not yet ended.
type active struct {
	name  string
	start int64
	child int64 // ns covered by ended children
	idx   int32 // index in kept, -1 when not kept
}

func newSpanTracer() *spanTracer {
	return &spanTracer{t0: time.Now(), self: map[string]int64{}}
}

func (t *spanTracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *spanTracer) begin(name string, unit int64, parent *active) active {
	a := active{name: name, idx: -1, start: t.now()}
	if len(t.kept) < maxKept {
		p := int32(-1)
		if parent != nil {
			p = parent.idx
		}
		t.kept = append(t.kept, span{name: name, start: a.start, parent: p, unit: unit})
		a.idx = int32(len(t.kept) - 1)
	}
	return a
}

// end closes a, charging its duration minus its children's to its name
// and its whole duration to its parent's children.
func (t *spanTracer) end(a *active, parent *active) {
	now := t.now()
	d := now - a.start
	t.self[a.name] += d - a.child
	if parent != nil {
		parent.child += d
	}
	if a.idx >= 0 {
		t.kept[a.idx].end = now
	}
}

// per is a span's self time divided by n (0 when n is 0).
func (t *spanTracer) per(name string, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(t.self[name]) / float64(n)
}

// writeChrome writes the kept spans as Chrome trace-event JSON, the
// format /api/trace/export serves, so the file loads in Perfetto.
func (t *spanTracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(t.kept))
	for i, s := range t.kept {
		evs = append(evs, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Args: map[string]any{"unit": s.unit, "parent": s.parent, "id": i},
		})
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ns"}); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// chain is one counter's stream pipeline built from the monitor config:
// the stages aging.Monitor composes.
type chain struct {
	est            *stream.OscillationEstimator
	vol            *stream.VolatilityWindow
	std            *stream.Standardizer
	gate           *stream.GatedDetector
	alphas, vs, zs []float64 // what est, vol and std emitted for the unit
}

func newChain(cfg aging.Config) (*chain, error) {
	var radii []int
	for r := cfg.MinRadius; r <= cfg.MaxRadius; r *= 2 {
		radii = append(radii, r)
	}
	est, err := stream.NewOscillationEstimator(radii)
	if err != nil {
		return nil, err
	}
	vol, err := stream.NewVolatilityWindow(cfg.VolatilityWindow)
	if err != nil {
		return nil, err
	}
	// The shipped Shewhart chart self-calibrates; only CUSUM and
	// Page-Hinkley are fed z-scores.
	std, err := stream.NewStandardizer(cfg.DetectorWarmup, cfg.Detector == aging.DetectCUSUM || cfg.Detector == aging.DetectPageHinkley)
	if err != nil {
		return nil, err
	}
	det, err := changepoint.NewShewhart(cfg.ShewhartK, cfg.DetectorWarmup, false)
	if err != nil {
		return nil, err
	}
	gate, err := stream.NewGatedDetector(det, cfg.Refractory)
	if err != nil {
		return nil, err
	}
	return &chain{est: est, vol: vol, std: std, gate: gate}, nil
}

// layerStats are the replay's counts beside the span self times.
type layerStats struct {
	samples, units    int64 // through the agingd layers
	events, published int64
	depthSum, depthN  int64
	monSamples        int64 // through agingmon's decoder
	sinkSamples       int64 // through agingmon's sink
	bdSamples         int64 // through the breakdown
	alphas, alarms    int64
}

// replaySource is one source's in-process state during the replay.
type replaySource struct {
	set   *detect.MonitorSet // the detect layer, fed as a shard feeds it
	fr    *trace.FlightRecorder
	phase aging.Phase
	recs  []trace.Record

	// Breakdown state, for the first breakdownSources sources only.
	parts  *detect.MonitorSet // all three detectors
	chains [2]*chain          // free and swap stream stages
	sink   *source.MonitorSink
}

// replayUnit is one decoded wire unit of the chunk being replayed.
type replayUnit struct {
	src        int
	free, swap []float64
	cb         *source.ColumnarBatch // frames: handed to the registry last
	smp        ingest.Sample         // lines
}

// runTraced runs untraced lifecycles for the budget (the correctness
// check, the cpu_ns_per_sample the layer sum is compared with, and the
// generator's lateness), then the traced replay of the whole input, and
// reports the per-layer metrics.
func runTraced(ctx context.Context, e *env, budget time.Duration) (result, error) {
	lcs, err := measure(ctx, e, budget, 1)
	if err != nil {
		return result{}, err
	}
	var cpus []float64
	var lags, floors, late []time.Duration
	var res result
	for _, lc := range lcs {
		cpus = append(cpus, lc.cpuNs)
		lags = append(lags, lc.lags...)
		floors = append(floors, lc.floors...)
		late = append(late, lc.late...)
		res.Attempted += lc.sent
		res.Failed += lc.failed
	}
	res.Correct = res.Failed == 0
	if res.Metrics, err = layerMetrics(ctx, e, median(cpus), lags, floors, late); err != nil {
		return result{}, err
	}
	return res, nil
}

// layerMetrics replays the whole input, writes the trace, and returns the
// per-layer metrics; cpuNs is the untraced figure the layer sum is
// compared with, lags, floors and late the untraced open-loop timings.
func layerMetrics(ctx context.Context, e *env, cpuNs float64, lags, floors, late []time.Duration) (map[string]metric, error) {
	r, err := replay(ctx, e)
	if err != nil {
		return nil, err
	}
	t, st := r.t, &r.st
	tracePath := filepath.Join(e.work, fmt.Sprintf("trace-%s.json", e.w.Name))
	if err := t.writeChrome(tracePath); err != nil {
		return nil, err
	}
	newNs, err := detectNewCost(e.w)
	if err != nil {
		return nil, err
	}
	m, err := snapshotLayer(e)
	if err != nil {
		return nil, err
	}

	perSample := map[string]float64{
		spanParse:      t.per(spanParse, st.samples),
		spanQueue:      t.per(spanQueue, st.samples),
		spanDetect:     t.per(spanDetect, st.samples),
		spanFlight:     t.per(spanFlight, st.samples),
		spanAlerts:     t.per(spanAlerts, st.samples),
		spanSourceNext: t.per(spanSourceNext, st.monSamples),
		spanSinkWrite:  t.per(spanSinkWrite, st.sinkSamples),
	}
	layerNs := 0.0
	for _, name := range pathLayers(e.w) {
		layerNs += perSample[name]
	}
	gap := (cpuNs - layerNs) / cpuNs
	logf("replay: %d samples through the agingd layers, %d through the agingmon layers, %d through the breakdown; %d spans kept in %s",
		st.samples, st.monSamples, st.bdSamples, len(t.kept), tracePath)
	logf("replay: path layers %.0f ns/sample vs e2e cpu %.0f ns/sample (gap %+.3f)", layerNs, cpuNs, gap)
	logf("replay: %d detect events, %d alerts published, %d alphas, %d gate alarms, %d units",
		st.events, st.published, st.alphas, st.alarms, st.units)

	m["parse.ns_per_sample"] = metric{perSample[spanParse], "ns"}
	m["queue.ns_per_unit"] = metric{t.per(spanQueue, st.units), "ns"}
	m["queue.depth_mean"] = metric{float64(st.depthSum) / float64(max(st.depthN, 1)), "count"}
	m["detect.ns_per_sample"] = metric{perSample[spanDetect], "ns"}
	m["detect.events"] = metric{float64(st.events), "count"}
	for _, k := range allKinds {
		m["detect."+k+".ns_per_sample"] = metric{t.per(spanDetect+"."+k, st.bdSamples), "ns"}
	}
	m["detect.new_ns_per_source"] = metric{newNs, "ns"}
	// Stream stages are per raw sample (both counters), so the four add
	// up to the chain's cost per sample; alphas and alarms say how much
	// work reached the later stages.
	m["stream.est.ns_per_sample"] = metric{t.per(spanEst, st.bdSamples), "ns"}
	m["stream.vol.ns_per_sample"] = metric{t.per(spanVol, st.bdSamples), "ns"}
	m["stream.std.ns_per_sample"] = metric{t.per(spanStd, st.bdSamples), "ns"}
	m["stream.gate.ns_per_sample"] = metric{t.per(spanGate, st.bdSamples), "ns"}
	m["stream.gate.alarms"] = metric{float64(st.alarms), "count"}
	m["trace.flight.ns_per_sample"] = metric{perSample[spanFlight], "ns"}
	m["alerts.ns_per_unit"] = metric{t.per(spanAlerts, st.units), "ns"}
	m["alerts.published"] = metric{float64(st.published), "count"}
	m["source.next.ns_per_sample"] = metric{perSample[spanSourceNext], "ns"}
	m["sink.write.ns_per_sample"] = metric{perSample[spanSinkWrite], "ns"}
	// The open-loop tail and the generator's own lateness, which bounds
	// how much of that tail the generator rather than the daemon caused.
	m["lag_p50_ms"] = metric{ms(quantileDur(lags, 0.5)), "ms"}
	m["lag_p99_ms"] = metric{ms(quantileDur(lags, tailQuantile(len(lags)))), "ms"}
	// The part of the lag polling alone adds: what it would read for a
	// daemon that committed every unit at once.
	m["lag_floor_p50_ms"] = metric{ms(quantileDur(floors, 0.5)), "ms"}
	m["gen.late_p99_ms"] = metric{ms(quantileDur(late, tailQuantile(len(late)))), "ms"}
	m["layers.ns_per_sample"] = metric{layerNs, "ns"}
	m["layers.gap_frac"] = metric{math.Abs(gap), "frac"}
	return m, nil
}

// pathLayers are the spans a sample crosses once on the workload's own
// daemon, whose self times add up to the in-process cost of its path.
func pathLayers(w *Workload) []string {
	if w.Daemon == "agingmon" {
		return []string{spanSourceNext, spanSinkWrite}
	}
	layers := []string{spanParse, spanDetect, spanAlerts, spanQueue}
	if w.Recorder > 0 {
		layers = append(layers, spanFlight)
	}
	return layers
}

// replayer is the state of one traced replay.
type replayer struct {
	e    *env
	t    *spanTracer
	st   layerStats
	srcs []*replaySource

	data  []byte
	units []wireUnit

	reg *ingest.Registry
	bus *control.Bus

	// Per-chunk scratch.
	chunk  []replayUnit
	owners []*replaySource
	items  []source.Item
	events [chunkLines][]detect.Event
	cols   [2][chunkLines]float64 // per-line columns of a text chunk
	buf    []byte
}

// replay runs two passes over the workload's whole input, so every count
// it reports repeats exactly for a seed. The first pass runs only the
// layers of the workload's own daemon path, so their self times are not
// disturbed by the rest; the second runs the other daemon's layers and
// the breakdown.
func replay(ctx context.Context, e *env) (*replayer, error) {
	r := &replayer{e: e, t: newSpanTracer(), srcs: make([]*replaySource, len(e.in.IDs))}
	r.data, r.units = e.wire.replayStream()
	reg, err := ingest.NewRegistry(ingest.Config{
		Shards:              agingdShards,
		QueueSize:           agingdQueue,
		Monitor:             monitorConfig(),
		Detectors:           e.w.Detectors,
		MaxSources:          agingdMaxSources,
		Restore:             e.in.PreparedStates,
		Obs:                 obs.NewRegistry(),
		FlightRecorderDepth: e.w.Recorder,
	})
	if err != nil {
		return nil, err
	}
	defer reg.Close()
	r.reg = reg
	// agingd's registry bus: the /api/alerts ring and, at default flags,
	// no subscribers.
	r.bus = control.NewBus(256)
	defer r.bus.Close()

	monFirst := e.w.Daemon == "agingmon"
	for pass := 0; pass < 2; pass++ {
		mon := (pass == 0) == monFirst
		if err := r.pass(ctx, mon, pass == 1); err != nil {
			return nil, err
		}
	}
	return r, reg.Drain()
}

// pass replays the wire bytes from the start: through the agingmon layers
// (source.next, sink.write) when mon is set, the agingd layers (parse,
// detect, trace.flight, alerts, queue) otherwise, and then through the
// breakdown when bd is set.
func (r *replayer) pass(ctx context.Context, mon, bd bool) error {
	w, t := r.e.w, r.t
	var src interface {
		Next(context.Context) (source.Item, error)
		Close() error
	}
	if mon {
		// The stdin decoder agingmon picks for the wire format.
		if w.Frame > 0 {
			src = source.NewFrames(bytes.NewReader(r.data), 64<<10)
		} else {
			src = ingest.NewLineSource(bytes.NewReader(r.data))
		}
		defer src.Close()
	}
	br := bufio.NewReader(bytes.NewReader(r.data))
	for i, c := 0, int64(0); i < len(r.units); c++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		k := 1
		if w.Frame == 0 {
			k = min(chunkLines, len(r.units)-i)
		}
		todo := r.units[i : i+k]
		i += k
		r.owners = r.owners[:0]
		for _, u := range todo {
			s, err := r.source(u.src)
			if err != nil {
				return err
			}
			r.owners = append(r.owners, s)
		}
		if mon {
			if err := r.monitorLayers(ctx, c, todo, src.Next); err != nil {
				return err
			}
			if bd {
				breakdown(t, &r.st, r.chunk, r.owners, c)
			}
			continue
		}
		if err := r.daemonLayers(c, todo, br, bd); err != nil {
			return err
		}
		if err := r.enqueue(c); err != nil {
			return err
		}
	}
	return nil
}

// source returns source i's replay state, building it on first use.
func (r *replayer) source(i int) (*replaySource, error) {
	if s := r.srcs[i]; s != nil {
		return s, nil
	}
	s, err := newReplaySource(r.e.w, r.e.in, i)
	r.srcs[i] = s
	return s, err
}

// monitorLayers runs one chunk through agingmon's path: its stdin decoder,
// then its sink on the first breakdownSources sources. The items are kept
// in r.chunk, as columns, for the breakdown.
func (r *replayer) monitorLayers(ctx context.Context, c int64, todo []wireUnit, next func(context.Context) (source.Item, error)) error {
	t := r.t
	r.items = r.items[:0]
	a := t.begin(spanSourceNext, c, nil)
	for range todo {
		it, err := next(ctx)
		if err != nil {
			t.end(&a, nil)
			return fmt.Errorf("replay source.next: %w", err)
		}
		r.items = append(r.items, it)
	}
	t.end(&a, nil)
	// sink.write runs on the breakdown sources only; like the breakdown,
	// a chunk without one opens no span.
	n := 0
	for j, it := range r.items {
		if r.owners[j].sink != nil {
			n += len(it.Pairs)
		}
	}
	if n > 0 {
		a = t.begin(spanSinkWrite, c, nil)
		for j, it := range r.items {
			if s := r.owners[j]; s.sink != nil {
				if err := s.sink.Write(it); err != nil {
					t.end(&a, nil)
					return err
				}
			}
		}
		t.end(&a, nil)
		r.st.sinkSamples += int64(n)
	}
	r.chunk = r.chunk[:0]
	for j, it := range r.items {
		ru := replayUnit{src: todo[j].src}
		for _, p := range it.Pairs {
			ru.free = append(ru.free, p[0])
			ru.swap = append(ru.swap, p[1])
		}
		r.chunk = append(r.chunk, ru)
		r.st.monSamples += int64(len(it.Pairs))
	}
	return nil
}

// daemonLayers runs one chunk through agingd's path up to the handoff:
// parse, detect, trace.flight and alerts, then the breakdown when bd is
// set. The registry handoff (enqueue) comes last, because it gives the
// frames' columns away.
func (r *replayer) daemonLayers(c int64, todo []wireUnit, br *bufio.Reader, bd bool) error {
	w, t, in := r.e.w, r.t, r.e.in

	// parse: wire bytes to sample runs.
	r.chunk = r.chunk[:0]
	a := t.begin(spanParse, c, nil)
	for j, u := range todo {
		ru := replayUnit{src: u.src}
		var err error
		if w.Frame > 0 {
			if r.buf, err = source.ReadFrame(br, r.buf, 64<<10); err != nil {
				t.end(&a, nil)
				return fmt.Errorf("replay read frame: %w", err)
			}
			ru.cb = source.AcquireColumnarBatch()
			if err := source.DecodeFrame(r.buf, ru.cb, nil); err != nil {
				t.end(&a, nil)
				return fmt.Errorf("replay decode frame: %w", err)
			}
			ru.free, ru.swap = ru.cb.Free, ru.cb.Swap
		} else {
			line, err := br.ReadSlice('\n')
			if err != nil {
				t.end(&a, nil)
				return fmt.Errorf("replay read line: %w", err)
			}
			if ru.smp, err = ingest.ParseLine(string(line[:len(line)-1])); err != nil {
				t.end(&a, nil)
				return fmt.Errorf("replay parse line: %w", err)
			}
			r.cols[0][j], r.cols[1][j] = ru.smp.Free, ru.smp.Swap
			ru.free, ru.swap = r.cols[0][j:j+1], r.cols[1][j:j+1]
		}
		r.chunk = append(r.chunk, ru)
	}
	t.end(&a, nil)
	r.st.units += int64(len(todo))
	for _, ru := range r.chunk {
		r.st.samples += int64(len(ru.free))
	}

	// detect: what the shard does with a unit — the row loop when the
	// source keeps a flight recorder, the column kernels otherwise.
	a = t.begin(spanDetect, c, nil)
	for j, ru := range r.chunk {
		s := r.owners[j]
		r.events[j] = nil
		if w.Recorder == 0 {
			if len(ru.free) == 1 {
				r.events[j] = s.set.Add(ru.free[0], ru.swap[0])
			} else {
				r.events[j] = s.set.AddColumns(ru.free, ru.swap)
			}
			continue
		}
		s.recs = s.recs[:0]
		wall := time.Now().UnixNano()
		for i := range ru.free {
			js := s.set.AddTraced(ru.free[i], ru.swap[i], nil)
			r.events[j] = append(r.events[j], js...)
			sf, ss := s.set.LastStats()
			s.recs = append(s.recs, trace.Record{
				Seq: uint64(s.set.SamplesSeen()), Wall: wall, Free: ru.free[i], Swap: ru.swap[i],
				ScoreFree: sf, ScoreSwap: ss, Phase: s.set.Phase().String(), Jumps: len(js),
			})
		}
	}
	t.end(&a, nil)

	// trace.flight: the recorder append. A workload whose daemon runs
	// without a recorder still times one at the default depth, on records
	// carrying the unit's values.
	if w.Recorder == 0 {
		for j, ru := range r.chunk {
			s := r.owners[j]
			s.recs = s.recs[:0]
			for i := range ru.free {
				s.recs = append(s.recs, trace.Record{Seq: uint64(i), Free: ru.free[i], Swap: ru.swap[i]})
			}
		}
	}
	a = t.begin(spanFlight, c, nil)
	for j := range r.chunk {
		r.owners[j].fr.Append(r.owners[j].recs)
	}
	t.end(&a, nil)

	// alerts: the commit's verdict boundary onto agingd's bus.
	a = t.begin(spanAlerts, c, nil)
	for j, ru := range r.chunk {
		s := r.owners[j]
		id := in.IDs[ru.src]
		for _, ev := range r.events[j] {
			r.bus.Publish(control.FromDetectEvent(id, ev))
		}
		r.st.published += int64(len(r.events[j]))
		r.st.events += int64(len(r.events[j]))
		if ph := s.set.Phase(); ph != s.phase {
			r.bus.Publish(control.PhaseChange(id, s.set.SamplesSeen(), s.phase, ph))
			r.st.published++
			s.phase = ph
		}
	}
	t.end(&a, nil)

	if bd {
		breakdown(t, &r.st, r.chunk, r.owners, c)
	}
	return nil
}

// enqueue is the queue layer: validate, route and enqueue the chunk's
// units into the registry, blocking on a full shard as agingd's
// connection readers do.
func (r *replayer) enqueue(c int64) error {
	in := r.e.in
	a := r.t.begin(spanQueue, c, nil)
	defer r.t.end(&a, nil)
	for _, ru := range r.chunk {
		var err error
		if ru.cb != nil {
			if ru.cb.Source == "" {
				ru.cb.Source = in.IDs[ru.src] // agingmon frames carry no id
			}
			err = r.reg.IngestColumns(ru.cb)
		} else {
			err = r.reg.Ingest(ru.smp)
		}
		if err != nil {
			return fmt.Errorf("replay ingest %s: %w", in.IDs[ru.src], err)
		}
	}
	if c%64 == 0 {
		for _, sh := range r.reg.ShardStats() {
			r.st.depthSum += sh.Depth
		}
		r.st.depthN++
	}
	return nil
}

// newReplaySource builds source i's detect-layer state as the registry
// would (restored from the prepared snapshot when there is one) and, for
// the first breakdownSources sources, the breakdown's own instances.
func newReplaySource(w *Workload, in *Inputs, i int) (*replaySource, error) {
	s := &replaySource{fr: trace.NewFlightRecorder(flightDepth)}
	blob, restored := in.PreparedStates[in.IDs[i]]
	var err error
	if restored {
		s.set, err = detect.RestoreMonitorSet(blob)
	} else {
		s.set, err = detect.New(w.Detectors, detectConfig())
	}
	if err != nil {
		return nil, err
	}
	s.phase = s.set.Phase()
	if i >= breakdownSources {
		return s, nil
	}
	// The breakdown's suite is restored too when the prepared state holds
	// all of it, so its detectors start calibrated like the daemon's.
	if restored && len(w.Detectors) == len(allKinds) {
		s.parts, err = detect.RestoreMonitorSet(blob)
	} else {
		s.parts, err = detect.New(allKinds, detectConfig())
	}
	if err != nil {
		return nil, err
	}
	for k := range s.chains {
		if s.chains[k], err = newChain(monitorConfig()); err != nil {
			return nil, err
		}
	}
	dm, err := aging.NewDualMonitor(monitorConfig())
	if err != nil {
		return nil, err
	}
	dm.Instrument(obs.NewRegistry()) // agingmon instruments its monitor
	s.sink = source.NewMonitorSink(dm, source.MonitorSinkConfig{
		Recorder: trace.NewFlightRecorder(flightDepth), Source: "stream",
	})
	return s, nil
}

// breakdown times the chunk's breakdown sources through each detector
// alone and through each stream stage alone, on instances separate from
// the detect layer's. Each stage consumes what the stage before it
// emitted. A chunk with no breakdown source opens no span, so span
// overhead is not charged to samples of other chunks.
func breakdown(t *spanTracer, st *layerStats, chunk []replayUnit, owners []*replaySource, c int64) {
	n := int64(0)
	for j, ru := range chunk {
		if owners[j].parts != nil {
			n += int64(len(ru.free))
		}
	}
	if n == 0 {
		return
	}
	st.bdSamples += n
	b := t.begin(spanBreakdown, c, nil)
	defer t.end(&b, nil)
	for _, kind := range allKinds {
		a := t.begin(spanDetect+"."+kind, c, &b)
		for j, ru := range chunk {
			s := owners[j]
			if s.parts == nil {
				continue
			}
			det := s.parts.Lookup(kind)
			if cp, ok := det.(detect.ColumnPusher); ok && len(ru.free) > 1 {
				cp.PushColumns(ru.free, ru.swap)
				continue
			}
			for i := range ru.free {
				det.Push(detect.Sample{Free: ru.free[i], Swap: ru.swap[i]}, nil)
			}
		}
		t.end(&a, &b)
	}
	for col := 0; col < 2; col++ {
		a := t.begin(spanEst, c, &b)
		for j, ru := range chunk {
			ch := owners[j].chains[col]
			if ch == nil {
				continue
			}
			x := ru.free
			if col == 1 {
				x = ru.swap
			}
			ch.alphas = ch.alphas[:0]
			if len(x) > 1 {
				ch.alphas = ch.est.PushColumns(x, ch.alphas)
			} else if alpha, ok := ch.est.Push(x[0]); ok {
				ch.alphas = append(ch.alphas, alpha)
			}
			st.alphas += int64(len(ch.alphas))
		}
		t.end(&a, &b)
		a = t.begin(spanVol, c, &b)
		for j := range chunk {
			if ch := owners[j].chains[col]; ch != nil {
				ch.vs = ch.vs[:0]
				for _, x := range ch.alphas {
					if v, ok := ch.vol.Push(x); ok {
						ch.vs = append(ch.vs, v)
					}
				}
			}
		}
		t.end(&a, &b)
		a = t.begin(spanStd, c, &b)
		for j := range chunk {
			if ch := owners[j].chains[col]; ch != nil {
				ch.zs = ch.zs[:0]
				for _, x := range ch.vs {
					if z, ok := ch.std.Push(x); ok {
						ch.zs = append(ch.zs, z)
					}
				}
			}
		}
		t.end(&a, &b)
		a = t.begin(spanGate, c, &b)
		for j := range chunk {
			if ch := owners[j].chains[col]; ch != nil {
				for _, z := range ch.zs {
					if _, fired := ch.gate.Push(z); fired {
						st.alarms++
					}
				}
			}
		}
		t.end(&a, &b)
	}
}

// detectNewCost times detect.New with the workload's suite, the per-source
// set-up a shard pays when a source first appears.
func detectNewCost(w *Workload) (float64, error) {
	const n = 256
	sets := make([]*detect.MonitorSet, n)
	t0 := time.Now()
	for i := range sets {
		var err error
		if sets[i], err = detect.New(w.Detectors, detectConfig()); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / n, nil
}

// snapshotLayer measures the live heap a MonitorSet holds per source and
// times the snapshot round trip, on the oracle's final states (the states
// the daemon saves at shutdown). Workloads with few sources restore each
// state several times so the heap difference stands clear of noise.
func snapshotLayer(e *env) (map[string]metric, error) {
	ids := e.in.IDs
	n := max(len(ids), breakdownSources)
	sets := make([]*detect.MonitorSet, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range sets {
		set, err := detect.RestoreMonitorSet(e.expected[ids[i%len(ids)]])
		if err != nil {
			return nil, err
		}
		sets[i] = set
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := float64(after.HeapAlloc) - float64(before.HeapAlloc)

	t0 := time.Now()
	saved := make(map[string][]byte, len(ids))
	for i, id := range ids {
		blob, err := sets[i].SaveState()
		if err != nil {
			return nil, err
		}
		saved[id] = blob
	}
	env, err := ingest.EncodeSnapshot(saved)
	if err != nil {
		return nil, err
	}
	save := time.Since(t0)
	runtime.KeepAlive(sets)

	t0 = time.Now()
	states, err := ingest.DecodeSnapshot(env)
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		if _, err := detect.RestoreMonitorSet(states[id]); err != nil {
			return nil, err
		}
	}
	restore := time.Since(t0)
	per := float64(len(ids))
	return map[string]metric{
		"snapshot.save_ns_per_source":    {float64(save.Nanoseconds()) / per, "ns"},
		"snapshot.restore_ns_per_source": {float64(restore.Nanoseconds()) / per, "ns"},
		"snapshot.bytes_per_source":      {float64(len(env)) / per, "B"},
		"state.bytes_per_source":         {live / float64(n), "B"},
	}, nil
}
