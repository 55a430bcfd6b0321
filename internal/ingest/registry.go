// Package ingest is the fleet serving layer: a concurrent ingestion
// registry that routes memory-counter samples from many machines into
// per-source online aging monitors, plus the TCP/HTTP transports, the
// alert fan-out bus and the snapshot persistence that make it a daemon
// (cmd/agingd).
//
// The hot path is hash-sharded: a source id is FNV-hashed onto one of N
// shards, each owned by a single goroutine fed by a bounded channel.
// Because every sample of a source is handled by the same goroutine, the
// per-source detector set (a detect.MonitorSet — the Hölder pipeline by
// default, optionally entropy and workload-adaptive detectors beside it)
// needs no locks and its verdicts are byte-for-byte identical to a
// single-process run over the same samples — the property the agingd
// self-test asserts. Producers experience
// explicit backpressure (the default: a full shard queue blocks the
// producing connection, and only it) or explicit drops
// (Config.DropWhenFull), never silent loss; every drop is counted by
// reason.
//
// Telemetry (internal/obs) and fault-tolerance (internal/resilience) are
// wired through the same nil-safe hooks as the rest of the repository:
// per-shard queue-depth gauges and sample counters, drop/alert/bad-line
// counters, a handle-latency histogram, per-source stall watchdogs, and
// webhook retries.
package ingest

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"agingmf/internal/aging"
	"agingmf/internal/control"
	"agingmf/internal/detect"
	"agingmf/internal/obs"
	"agingmf/internal/resilience"
	transport "agingmf/internal/source"
	"agingmf/internal/trace"
)

// Ingest errors. ErrQueueFull is only returned in DropWhenFull mode; in
// the default backpressure mode a full queue blocks the caller instead.
var (
	ErrClosed        = errors.New("ingest: registry closed")
	ErrNoSource      = errors.New("ingest: sample without source id")
	ErrBadSample     = errors.New("ingest: non-finite sample")
	ErrQueueFull     = errors.New("ingest: shard queue full")
	ErrUnknownSource = errors.New("ingest: unknown source")
)

// Config parameterizes a Registry. The zero value is usable: 8 shards,
// 1024-unit queues, backpressure on full queues, the experiment-standard
// monitor configuration, and a 65536-source cap.
type Config struct {
	// Shards is the number of single-goroutine monitor shards (0 selects 8).
	Shards int
	// QueueSize bounds each shard's queue twice over (0 selects 1024): at
	// most QueueSize messages wait on it — a binary frame, a batch; line,
	// or one read's lone-sample text lines for the shard make one message
	// each — and those messages hold at most QueueSize lone-sample lines
	// between them.
	QueueSize int
	// DropWhenFull selects drop-and-count over backpressure when a shard
	// queue is full. The default (false) blocks the producer, which on the
	// TCP transport turns into flow control on exactly the offending
	// connection.
	DropWhenFull bool
	// Monitor configures the Hölder pipeline of every per-source holder
	// (and, by default, adaptive) detector (zero value selects
	// aging.DefaultConfig). A monitor keeps only its stage states, so a
	// source's memory does not grow with the samples it has seen.
	Monitor aging.Config
	// Detectors selects each source's detector suite by kind ("holder",
	// "entropy", "adaptive"; see internal/detect). Empty selects holder
	// only — the original single-pipeline daemon.
	Detectors []string
	// Detect tunes the non-holder detectors (zero sub-configurations
	// select detect defaults). Detect.Monitor is overridden by Monitor
	// above so there is exactly one pipeline configuration.
	Detect detect.Config
	// MaxSources caps the registry's source population so a malformed or
	// hostile flood cannot allocate monitors without bound (0 selects
	// 65536; negative means unlimited). Samples for new sources beyond the
	// cap are dropped and counted (reason "max_sources").
	MaxSources int
	// StallTimeout arms a per-source watchdog: a source silent for this
	// long raises a "stall" alert (and "resume" when it returns). 0
	// disables.
	StallTimeout time.Duration
	// AlertRing is the size of the recent-alert ring served by /api/alerts
	// (0 selects 256).
	AlertRing int
	// Restore pre-populates sources from SaveState blobs (source id →
	// detect.MonitorSet.SaveState; legacy aging.DualMonitor blobs resume
	// as holder-only sets), as read by ReadSnapshot. A restarted daemon
	// resumes every source exactly where its detectors stopped.
	Restore map[string][]byte
	// Obs receives the ingest metric families. Nil disables (hot paths
	// then pay only nil checks).
	Obs *obs.Registry
	// Events receives structured lifecycle events (source_created,
	// snapshot_saved, ...). Nil disables.
	Events *obs.Events
	// TraceSampleEvery enables sampled pipeline tracing: one in every N
	// shard messages (a frame, a batch; line, one read's lone-sample lines
	// for a shard, or one Ingest call) is timed through parse,
	// queue wait, detection and alert fan-out, feeding the
	// agingmf_pipeline_stage_seconds histograms and the span ring served
	// by /api/trace/export. 0 disables — the hot path then pays one nil
	// check and nothing else.
	TraceSampleEvery int
	// TraceSpanCapacity bounds the retained span ring (0 selects 4096).
	TraceSpanCapacity int
	// FlightRecorderDepth retains the last N annotated samples per source
	// (value, score, phase, verdict, stage timings) for post-hoc
	// inspection via /api/trace/{source}. 0 disables.
	FlightRecorderDepth int
}

// withDefaults resolves the zero-value conveniences.
func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 1024
	}
	if c.Monitor == (aging.Config{}) {
		c.Monitor = aging.DefaultConfig()
	}
	if len(c.Detectors) == 0 {
		c.Detectors = []string{detect.KindHolder}
	}
	if c.MaxSources == 0 {
		c.MaxSources = 65536
	}
	if c.AlertRing <= 0 {
		c.AlertRing = 256
	}
	return c
}

// DetectorConfig resolves the detect.Config every per-source detector
// set is built from: Detect with Monitor as the single pipeline
// configuration. The self-test oracles rebuild reference sets from it.
func (c Config) DetectorConfig() detect.Config {
	dc := c.Detect
	dc.Monitor = c.Monitor
	return dc
}

// shardMsg is one unit of shard work, in exactly one of three forms: a
// pooled row batch of lone samples (one read's single-sample text lines
// for this shard, or one Ingest call), a pooled column batch of one
// source (a binary frame, or a batch; line transposed at the edge), or a
// control closure to run on the shard goroutine (state snapshots use
// this to serialize with the sample stream instead of locking the
// monitors). The shard releases either batch after use. Rows travel
// together so that a read of many lines costs the shard one channel
// handoff, one clock read and one round of counter updates, not one per
// line: on perfbench's fleet-text-lines that cut daemon CPU per sample
// by 28–44% (paired medians in CHANGES.md).
type shardMsg struct {
	rows *rowBatch
	cols *transport.ColumnarBatch
	ctl  *ctlMsg

	// seq is the tracer sequence of a sampled unit (0 = untraced) and
	// enq its enqueue time (UnixNano), so the shard can measure the
	// queue wait explicitly. 16 bytes per message, set only when traced.
	seq uint64
	enq int64
}

// source names the message's source for its spans: the column batch's,
// or the first row's (a fresh string, so call it on traced paths only).
func (m *shardMsg) source() string {
	if m.cols != nil {
		return m.cols.Source
	}
	return string(m.rows.ids[:m.rows.rows[0].end])
}

// rowBatch carries lone samples to one shard, in wire order. The source
// ids are copied back to back into ids, so a queued batch holds no
// reference to the read it was parsed from.
type rowBatch struct {
	ids  []byte
	rows []row
}

// row is one lone sample. Its source id is ids[prev.end:end], where prev
// is the row before it (the first row's id starts at 0).
type row struct {
	end        int
	free, swap float64
}

var rowPool = sync.Pool{New: func() any { return new(rowBatch) }}

// acquireRows takes an empty row batch from the pool.
func acquireRows() *rowBatch { return rowPool.Get().(*rowBatch) }

// release returns the batch to the pool; the caller must not touch it
// afterwards.
func (rb *rowBatch) release() {
	rb.ids, rb.rows = rb.ids[:0], rb.rows[:0]
	rowPool.Put(rb)
}

// add appends one sample of source id.
func (rb *rowBatch) add(id string, free, swap float64) {
	rb.ids = append(rb.ids, id...)
	rb.rows = append(rb.rows, row{end: len(rb.ids), free: free, swap: swap})
}

// vet applies enqueue's checks to every row: a source id (ErrNoSource,
// or ErrBadLine as the parsers report it) and finite values
// (ErrBadSample).
func (rb *rowBatch) vet() error {
	start := 0
	for _, rw := range rb.rows {
		if err := vetSource(rb.ids[start:rw.end]); err != nil {
			return err
		}
		// x-x is 0 exactly when x is finite (NaN and ±Inf both yield
		// NaN, and NaN != 0), so one fused check rejects every
		// non-finite value.
		if d := rw.free - rw.free + rw.swap - rw.swap; d != 0 {
			return ErrBadSample
		}
		start = rw.end
	}
	return nil
}

// ctlMsg runs fn on the owning shard goroutine and closes done after.
type ctlMsg struct {
	fn   func(*shard)
	done chan struct{}
}

// shard owns a partition of the source population. Only its goroutine
// touches sources' monitors; accepted/depth are read by observers.
type shard struct {
	id  int
	reg *Registry
	ch  chan shardMsg

	sources map[string]*source // owned by the shard goroutine

	accepted atomic.Uint64
	depth    atomic.Int64 // messages queued

	// rows counts the lone samples queued in row batches, which enqueue
	// keeps within QueueSize. room wakes one producer waiting for rows
	// to drain (capacity 1: a wake-up is a hint to look again, not a
	// count).
	rows atomic.Int64
	room chan struct{}

	samplesCtr *obs.Counter
	depthGauge *obs.Gauge

	// Scratch owned by the shard goroutine: the 1-length columns a row is
	// handed to the kernels in, and the observed (traced /
	// flight-recorded) path's annotator.
	free, swap []float64
	ann        transport.Annotator
}

// source is one monitored machine. The detector set and lastPhase are
// owned by the shard goroutine; the atomic mirror fields are the read
// side of the status API.
type source struct {
	id        string
	shardID   int
	mon       *detect.MonitorSet
	wd        *resilience.Watchdog
	fr        *trace.FlightRecorder // nil unless FlightRecorderDepth > 0
	lastPhase aging.Phase

	samples  atomic.Int64
	jumps    atomic.Int64
	phase    atomic.Int32
	lastFree atomic.Uint64 // Float64bits
	lastSwap atomic.Uint64 // Float64bits
	lastSeen atomic.Int64  // UnixNano; 0 = restored, not yet seen live
	stalled  atomic.Bool

	// dets mirrors each detector's verdict counters for the status API.
	// The slice is fixed at attach; its entries are atomics.
	dets []*detectorMirror
}

// detectorMirror is the lock-free read side of one detector's state.
type detectorMirror struct {
	kind   string
	jumps  atomic.Int64
	recals atomic.Int64
	phase  atomic.Int32
}

// det finds the mirror for a detector kind (the sets are tiny; a linear
// scan beats any map on this path).
func (src *source) det(kind string) *detectorMirror {
	for _, m := range src.dets {
		if m.kind == kind {
			return m
		}
	}
	return nil
}

// DetectorStatus is one detector's section of a source's status: its
// verdict counters and phase, labeled by detector kind.
type DetectorStatus struct {
	Kind           string `json:"kind"`
	Phase          string `json:"phase"`
	Jumps          int64  `json:"jumps"`
	Recalibrations int64  `json:"recalibrations,omitempty"`
}

// SourceStatus is the externally visible state of one source. Jumps and
// Phase aggregate across the source's detectors; Detectors carries the
// per-detector breakdown.
type SourceStatus struct {
	ID        string           `json:"id"`
	Shard     int              `json:"shard"`
	Samples   int64            `json:"samples"`
	Jumps     int64            `json:"jumps"`
	Phase     string           `json:"phase"`
	LastFree  float64          `json:"last_free"`
	LastSwap  float64          `json:"last_swap"`
	Stalled   bool             `json:"stalled"`
	LastSeen  time.Time        `json:"last_seen"`
	Detectors []DetectorStatus `json:"detectors,omitempty"`
}

// status assembles the atomic mirror into a SourceStatus.
func (src *source) status() SourceStatus {
	st := SourceStatus{
		ID:       src.id,
		Shard:    src.shardID,
		Samples:  src.samples.Load(),
		Jumps:    src.jumps.Load(),
		Phase:    aging.Phase(src.phase.Load()).String(),
		LastFree: math.Float64frombits(src.lastFree.Load()),
		LastSwap: math.Float64frombits(src.lastSwap.Load()),
		Stalled:  src.stalled.Load(),
	}
	if ns := src.lastSeen.Load(); ns != 0 {
		st.LastSeen = time.Unix(0, ns)
	}
	st.Detectors = make([]DetectorStatus, len(src.dets))
	for i, m := range src.dets {
		st.Detectors[i] = DetectorStatus{
			Kind:           m.kind,
			Phase:          aging.Phase(m.phase.Load()).String(),
			Jumps:          m.jumps.Load(),
			Recalibrations: m.recals.Load(),
		}
	}
	return st
}

// ShardStat is one shard's accounting snapshot.
type ShardStat struct {
	ID       int    `json:"id"`
	Sources  int    `json:"sources"`
	Accepted uint64 `json:"accepted"`
	Depth    int64  `json:"depth"`
}

// Registry is the sharded source registry. All exported methods are safe
// for concurrent use.
type Registry struct {
	cfg    Config
	shards []*shard
	met    metrics
	bus    *control.Bus
	tr     *trace.Tracer // nil unless TraceSampleEvery > 0

	byID      sync.Map // source id → *source (read side of the status API)
	nsources  atomic.Int64
	accepted  atomic.Uint64
	dropped   atomic.Uint64
	badLines  atomic.Uint64
	badFrames atomic.Uint64

	stopc    chan struct{}
	senders  atomic.Int64 // in-flight Ingest/withShard channel users
	wg       sync.WaitGroup
	closing  atomic.Bool
	drained  atomic.Bool
	closeMu  sync.Mutex
	directMu sync.Mutex // serializes post-drain direct shard access

	maxSourcesWarned atomic.Bool

	// pending pools IngestLines' per-shard scratch (*[]pendingRows).
	pending sync.Pool
}

// NewRegistry builds and starts a registry: shard goroutines are running
// and sources from cfg.Restore are resumed when it returns.
func NewRegistry(cfg Config) (*Registry, error) {
	cfg = cfg.withDefaults()
	// Validate the detector suite once, up front — per-source construction
	// must not be the first place a bad config or kind list surfaces.
	if _, err := detect.New(cfg.Detectors, cfg.DetectorConfig()); err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	r := &Registry{
		cfg:   cfg,
		met:   newMetrics(cfg.Obs),
		stopc: make(chan struct{}),
		tr: trace.New(trace.Config{
			SampleEvery:  cfg.TraceSampleEvery,
			SpanCapacity: cfg.TraceSpanCapacity,
			Obs:          cfg.Obs,
		}),
	}
	r.bus = control.NewBus(cfg.AlertRing, r.met.alertDropsFleet)
	r.pending.New = func() any {
		p := make([]pendingRows, cfg.Shards)
		return &p
	}
	r.shards = make([]*shard, cfg.Shards)
	for i := range r.shards {
		r.shards[i] = &shard{
			id:         i,
			reg:        r,
			ch:         make(chan shardMsg, cfg.QueueSize),
			room:       make(chan struct{}, 1),
			sources:    make(map[string]*source),
			free:       make([]float64, 1),
			swap:       make([]float64, 1),
			samplesCtr: r.met.samples.With(fmt.Sprint(i)),
			depthGauge: r.met.queueDepth.With(fmt.Sprint(i)),
		}
	}
	for id, blob := range cfg.Restore {
		if err := validSource(id); err != nil {
			return nil, fmt.Errorf("ingest: restore %q: %w", id, err)
		}
		// A snapshot's detector suite travels with the blob: legacy
		// DualMonitor blobs resume as holder-only sets, set envelopes
		// resume whatever suite wrote them, regardless of cfg.Detectors
		// (which governs sources created after the restore).
		set, err := detect.RestoreMonitorSet(blob)
		if err != nil {
			return nil, fmt.Errorf("ingest: restore %q: %w", id, err)
		}
		sh := r.shards[r.shardIndex(id)]
		src := r.attachSource(sh, id, set)
		src.samples.Store(int64(set.SamplesSeen()))
		src.jumps.Store(int64(set.Jumps()))
	}
	for _, sh := range r.shards {
		r.wg.Add(1)
		go sh.run()
	}
	return r, nil
}

// Config returns the resolved configuration.
func (r *Registry) Config() Config { return r.cfg }

// Alerts returns the registry's alert bus.
func (r *Registry) Alerts() *control.Bus { return r.bus }

// shardIndex hashes a source id onto a shard (64-bit FNV-1a, written out
// so that hashing a line's id allocates nothing).
func (r *Registry) shardIndex(id string) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return int(h % uint64(len(r.shards)))
}

// Ingest routes one sample to its source's shard, as a one-row message.
// In the default mode a full shard queue blocks (backpressure); with
// DropWhenFull it returns ErrQueueFull and counts the drop. After Close
// it returns ErrClosed.
func (r *Registry) Ingest(s Sample) error {
	rb := acquireRows()
	rb.add(s.Source, s.Free, s.Swap)
	return r.enqueue(r.shardIndex(s.Source), shardMsg{rows: rb}, r.tr.Sample())
}

// IngestColumns routes one columnar batch (the decoded form of a binary
// wire frame) to its source's shard as a single unit: one queue slot
// and one channel send for the whole frame. Ownership of cb transfers to
// the registry on every call: the shard releases it back to the pool
// after folding the columns into the detectors, and an error return has
// already released it — the caller must not touch cb afterwards either
// way.
//
// The shard hands the columns straight to detect.MonitorSet.AddColumns
// — no per-sample dispatch, no row materialization — which is where the
// binary path's throughput comes from (see BenchmarkIngestBinary). A
// traced or flight-recorded source takes the same kernels, annotated, so
// observability does not switch the path; verdicts and detector state
// are byte-for-byte those of per-sample Ingest calls over the same
// values. Queueing semantics match Ingest, applied to the frame whole:
// a full shard queue blocks the producer (or drops all of it, counted,
// with DropWhenFull).
func (r *Registry) IngestColumns(cb *transport.ColumnarBatch) error {
	return r.enqueue(r.shardIndex(cb.Source), shardMsg{cols: cb}, r.tr.Sample())
}

// IngestLines routes the wire lines of one read, in order: the text
// method of Router. Single-sample lines are parsed and grouped by shard,
// and each shard gets one row message for the call (a further one every
// QueueSize rows), so a read of many lines costs a shard one queue
// handoff rather than one per line. A batch; line becomes a pooled
// column batch here, at the edge, and goes as its own message right
// after the rows its shard already holds from this call, so every
// source's samples keep their wire order. The call routes what it was
// given and returns; it never waits for more input.
//
// Lines without a source= field are attributed to defaultSource. Blank
// lines and '#' comments are keep-alives, neither accepted nor rejected.
// It returns how many lines were accepted. Every other line goes to
// reject, when non-nil, with its reason: a parse error (counted in
// BadLines), a vetting error, or ErrQueueFull for a line dropped with
// its message. At ErrClosed it stops and returns it; the lines not yet
// routed are neither accepted nor rejected.
func (r *Registry) IngestLines(defaultSource string, lines []string, reject func(line string, err error)) (accepted int, err error) {
	if reject == nil {
		reject = func(string, error) {}
	}
	dfltErr := vetSource(defaultSource)
	pp := r.pending.Get().(*[]pendingRows)
	pend := *pp
	defer func() {
		for k := range pend {
			if rb := pend[k].rb; rb != nil {
				rb.release()
				pend[k].rb = nil
			}
			clear(pend[k].lines)
			pend[k].lines = pend[k].lines[:0]
		}
		r.pending.Put(pp)
	}()
	// One parse clock for the whole read, read only when tracing: a
	// traced row message's parse span is the read's parse up to its send.
	var parseStart time.Time
	if r.tr != nil {
		parseStart = time.Now()
	}
	for _, line := range lines {
		t := trimLine(line)
		if t == "" {
			continue
		}
		if strings.HasPrefix(t, BatchPrefix) {
			n, err := r.ingestBatchLine(defaultSource, line, t, pend, parseStart, reject)
			accepted += n
			if err != nil {
				return accepted, err
			}
			continue
		}
		s, perr := ParseLine(t)
		if perr != nil {
			r.countBadLine()
			reject(line, perr)
			continue
		}
		if s.Source == "" {
			if dfltErr != nil {
				reject(line, dfltErr)
				continue
			}
			s.Source = defaultSource
		}
		k := r.shardIndex(s.Source)
		p := &pend[k]
		if p.rb == nil {
			p.rb = acquireRows()
		}
		p.rb.add(s.Source, s.Free, s.Swap)
		p.lines = append(p.lines, line)
		if len(p.lines) == r.cfg.QueueSize {
			n, err := r.sendRows(k, p, parseStart, reject)
			accepted += n
			if err != nil {
				return accepted, err
			}
		}
	}
	for k := range pend {
		n, err := r.sendRows(k, &pend[k], parseStart, reject)
		accepted += n
		if err != nil {
			return accepted, err
		}
	}
	return accepted, nil
}

// pendingRows is one shard's share of an IngestLines call not yet sent:
// its rows, and the line each came from (for reject).
type pendingRows struct {
	rb    *rowBatch
	lines []string
}

// ingestBatchLine routes one trimmed batch; line t (raw: the line as
// read) for IngestLines, behind the rows its shard holds from the same
// call. It returns how many lines it accepted: the held rows, and the
// batch line.
func (r *Registry) ingestBatchLine(defaultSource, raw, t string, pend []pendingRows, parseStart time.Time, reject func(string, error)) (int, error) {
	// One tracer draw covers the whole unit — parse, queue wait and the
	// shard-side stages all share this sequence number.
	seq := r.tr.Sample()
	var start time.Time
	if seq != 0 {
		start = time.Now()
	}
	cb, err := parseBatchLine(t)
	if err != nil {
		r.countBadLine()
		reject(raw, err)
		return 0, nil
	}
	if cb.Source == "" {
		cb.Source = defaultSource
	}
	k := r.shardIndex(cb.Source)
	if seq != 0 {
		r.tr.Record(trace.StageParse, cb.Source, k, seq, start, time.Since(start))
	}
	accepted, err := r.sendRows(k, &pend[k], parseStart, reject)
	if err != nil {
		cb.Release()
		return accepted, err
	}
	switch err := r.enqueue(k, shardMsg{cols: cb}, seq); {
	case err == nil:
		accepted++
	case errors.Is(err, ErrClosed):
		return accepted, err
	default:
		reject(raw, err)
	}
	return accepted, nil
}

// sendRows enqueues the rows shard k holds from an IngestLines call as
// one message and returns how many lines that accepted. A message that
// is refused (ErrQueueFull, or a row failing enqueue's vetting) rejects
// every line it carried; ErrClosed is returned.
func (r *Registry) sendRows(k int, p *pendingRows, parseStart time.Time, reject func(string, error)) (int, error) {
	rb := p.rb
	if rb == nil {
		return 0, nil
	}
	p.rb = nil
	seq := r.tr.Sample()
	if seq != 0 {
		r.tr.Record(trace.StageParse, string(rb.ids[:rb.rows[0].end]), k, seq, parseStart, time.Since(parseStart))
	}
	defer func() {
		clear(p.lines) // the lines point into the caller's read
		p.lines = p.lines[:0]
	}()
	switch err := r.enqueue(k, shardMsg{rows: rb}, seq); {
	case err == nil:
		return len(p.lines), nil
	case errors.Is(err, ErrClosed):
		return 0, err
	default:
		for _, line := range p.lines {
			reject(line, err)
		}
		return 0, nil
	}
}

// parseBatchLine transposes one trimmed batch; line into a pooled column
// batch — the form a binary frame decodes to. The source id is copied,
// so the batch holds no reference to the read it was parsed from.
func parseBatchLine(line string) (*transport.ColumnarBatch, error) {
	b, err := ParseBatch(line)
	if err != nil {
		return nil, err
	}
	cb := transport.AcquireColumnarBatch()
	cb.Source = strings.Clone(b.Source)
	for _, p := range b.Pairs {
		cb.Free = append(cb.Free, p[0])
		cb.Swap = append(cb.Swap, p[1])
	}
	return cb, nil
}

// enqueue is the one way a unit of samples — a row batch of lone samples,
// or a column batch of one source — crosses into shard k, whichever wire
// it came from. It vets every source id (ErrNoSource, or ErrBadLine as
// the parsers do) and every value (ErrBadSample), registers the sender
// against Close, keeps the shard's queued rows within QueueSize, and
// applies backpressure or, with DropWhenFull, drops the unit, counting
// every sample it carried. A unit is never split: one bad row or value
// rejects it whole. The registry owns the batch from here: a unit that
// does not reach the shard is released on the way out, and an empty one
// is a no-op.
func (r *Registry) enqueue(k int, msg shardMsg, seq uint64) (err error) {
	var n int
	if cb := msg.cols; cb != nil {
		n = cb.Len()
		defer func() {
			if err != nil || n == 0 {
				cb.Release()
			}
		}()
		if n == 0 {
			return nil
		}
		if err := vetSource(cb.Source); err != nil {
			return err
		}
		if !finite(cb) {
			return ErrBadSample
		}
	} else {
		rb := msg.rows
		n = len(rb.rows)
		defer func() {
			if err != nil || n == 0 {
				rb.release()
			}
		}()
		if n == 0 {
			return nil
		}
		if err := rb.vet(); err != nil {
			return err
		}
	}
	// Sender registration is an atomic counter, not a WaitGroup: a
	// WaitGroup Add racing a parked Wait is a documented misuse panic,
	// and enqueue legitimately races Close. The order — increment, then
	// check the closing flag — pairs with Close's order — set the flag,
	// then poll the counter — so either this sender sees the flag and
	// backs out, or Close sees the sender and waits for it.
	r.senders.Add(1)
	defer r.senders.Add(-1)
	if r.closing.Load() {
		r.dropN("shutdown", n)
		return ErrClosed
	}
	sh := r.shards[k]
	rows := 0
	if msg.rows != nil {
		if err := r.reserveRows(sh, n); err != nil {
			reason := "shutdown"
			if errors.Is(err, ErrQueueFull) {
				reason = "queue_full"
			}
			r.dropN(reason, n)
			return err
		}
		rows = n
	}
	if seq != 0 {
		msg.seq, msg.enq = seq, time.Now().UnixNano()
	}
	if r.cfg.DropWhenFull {
		select {
		case sh.ch <- msg:
		default:
			sh.freeRows(rows)
			r.dropN("queue_full", n)
			return ErrQueueFull
		}
	} else {
		select {
		case sh.ch <- msg:
		case <-r.stopc:
			sh.freeRows(rows)
			r.dropN("shutdown", n)
			return ErrClosed
		}
	}
	sh.depthGauge.Set(float64(sh.depth.Add(1)))
	return nil
}

// vetSource is enqueue's source check: ErrNoSource for an empty id, and
// validSource's verdict otherwise.
func vetSource[T ~string | ~[]byte](id T) error {
	if len(id) == 0 {
		return ErrNoSource
	}
	return validSource(id)
}

// reserveRows claims n of shard sh's QueueSize row slots; n is at most
// QueueSize, since IngestLines sends a shard's rows in messages of at
// most that many. Without room it fails with ErrQueueFull under
// DropWhenFull, and otherwise waits for the shard to drain rows, or for
// Close (ErrClosed).
func (r *Registry) reserveRows(sh *shard, n int) error {
	want, limit := int64(n), int64(r.cfg.QueueSize)
	waited := false
	for {
		cur := sh.rows.Load()
		if cur+want <= limit {
			if !sh.rows.CompareAndSwap(cur, cur+want) {
				continue
			}
			if waited && cur+want < limit {
				// This producer took the wake-up; pass it on, since
				// another may fit in what is left.
				sh.wake()
			}
			return nil
		}
		if r.cfg.DropWhenFull {
			return ErrQueueFull
		}
		waited = true
		select {
		case <-sh.room:
		case <-r.stopc:
			return ErrClosed
		}
	}
}

// freeRows returns n row slots and wakes a producer waiting for them.
func (sh *shard) freeRows(n int) {
	if n == 0 {
		return
	}
	sh.rows.Add(-int64(n))
	sh.wake()
}

// wake nudges one producer waiting in reserveRows, if any.
func (sh *shard) wake() {
	select {
	case sh.room <- struct{}{}:
	default:
	}
}

// finite reports whether every value of the batch is finite (see the
// fused check in rowBatch.vet).
func finite(cb *transport.ColumnarBatch) bool {
	for i := range cb.Free {
		if d := cb.Free[i] - cb.Free[i] + cb.Swap[i] - cb.Swap[i]; d != 0 {
			return false
		}
	}
	return true
}

// trimLine strips whitespace and filters comment/blank lines.
func trimLine(line string) string {
	t := strings.TrimSpace(line)
	if t == "" || t[0] == '#' {
		return ""
	}
	return t
}

// dropN counts n dropped samples by reason (a rejected batch drops every
// sample it carried).
func (r *Registry) dropN(reason string, n int) {
	r.dropped.Add(uint64(n))
	r.met.dropped.With(reason).Add(uint64(n))
}

// countBadLine counts one malformed wire line.
func (r *Registry) countBadLine() {
	r.badLines.Add(1)
	r.met.badLines.Inc()
}

// Accepted returns the number of samples consumed by monitors.
func (r *Registry) Accepted() uint64 { return r.accepted.Load() }

// Dropped returns the number of samples dropped before any monitor.
func (r *Registry) Dropped() uint64 { return r.dropped.Load() }

// BadLines returns the number of malformed wire lines rejected.
func (r *Registry) BadLines() uint64 { return r.badLines.Load() }

// BadFrames returns the number of binary wire frames rejected whole
// (CRC mismatch, malformed payload, over-long, desync).
func (r *Registry) BadFrames() uint64 { return r.badFrames.Load() }

// rejectFrame counts one rejected binary frame by reason.
func (r *Registry) rejectFrame(reason string) {
	r.badFrames.Add(1)
	r.met.badFrames.With(reason).Inc()
}

// NumSources returns the current source population.
func (r *Registry) NumSources() int { return int(r.nsources.Load()) }

// Source returns the status of one source.
func (r *Registry) Source(id string) (SourceStatus, bool) {
	v, ok := r.byID.Load(id)
	if !ok {
		return SourceStatus{}, false
	}
	return v.(*source).status(), true
}

// Sources returns every source's status, sorted by id.
func (r *Registry) Sources() []SourceStatus {
	var out []SourceStatus
	r.byID.Range(func(_, v any) bool {
		out = append(out, v.(*source).status())
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ShardStats returns per-shard accounting: population, accepted samples,
// current queue depth.
func (r *Registry) ShardStats() []ShardStat {
	out := make([]ShardStat, len(r.shards))
	for i, sh := range r.shards {
		out[i] = ShardStat{
			ID:       sh.id,
			Sources:  sh.sourceCount(),
			Accepted: sh.accepted.Load(),
			Depth:    sh.depth.Load(),
		}
	}
	return out
}

// sourceCount counts this shard's sources via the registry's read-side
// map, so observers never touch the goroutine-owned map.
func (sh *shard) sourceCount() int {
	n := 0
	sh.reg.byID.Range(func(_, v any) bool {
		if v.(*source).shardID == sh.id {
			n++
		}
		return true
	})
	return n
}

// Tracer returns the registry's pipeline tracer (nil when tracing is
// disabled); callers use it for span export and overhead accounting.
func (r *Registry) Tracer() *trace.Tracer { return r.tr }

// FlightRecords returns one source's flight-recorder tail, oldest first.
// It is nil (not an error) when the recorder is disabled. The recorder has
// its own lock, so the snapshot never waits on the shard goroutine.
func (r *Registry) FlightRecords(id string) ([]trace.Record, error) {
	v, ok := r.byID.Load(id)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSource, id)
	}
	return v.(*source).fr.Snapshot(), nil
}

// MonitorState returns the SaveState blob of one source's monitor,
// serialized against that source's sample stream (the blob reflects a
// sample boundary, never a torn state).
func (r *Registry) MonitorState(id string) ([]byte, error) {
	if _, ok := r.byID.Load(id); !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSource, id)
	}
	var (
		blob []byte
		err  error
	)
	werr := r.withShard(r.shards[r.shardIndex(id)], func(sh *shard) {
		src, ok := sh.sources[id]
		if !ok {
			err = fmt.Errorf("%w: %q", ErrUnknownSource, id)
			return
		}
		blob, err = src.mon.SaveState()
	})
	if werr != nil {
		return nil, werr
	}
	return blob, err
}

// SnapshotStates collects every source's SaveState blob, shard by shard,
// each shard serialized against its own sample stream. It works both on a
// live registry and after Close (the monitors are then quiescent).
func (r *Registry) SnapshotStates() (map[string][]byte, error) {
	out := make(map[string][]byte, r.NumSources())
	var errs []error
	for _, sh := range r.shards {
		werr := r.withShard(sh, func(sh *shard) {
			for id, src := range sh.sources {
				blob, err := src.mon.SaveState()
				if err != nil {
					errs = append(errs, fmt.Errorf("ingest: snapshot %q: %w", id, err))
					continue
				}
				out[id] = blob
			}
		})
		if werr != nil {
			return nil, werr
		}
	}
	r.met.snapshots.Inc()
	return out, errors.Join(errs...)
}

// Drain blocks until every sample already queued at the shards has been
// folded into its monitor — a read barrier for callers (tests, the
// cluster settle loop) that need SnapshotStates/Source to reflect all
// prior Ingest calls. It does not stop new ingestion.
func (r *Registry) Drain() error {
	for _, sh := range r.shards {
		if err := r.withShard(sh, func(*shard) {}); err != nil {
			return err
		}
	}
	return nil
}

// withShard runs fn in the shard's goroutine context: via a control
// message on a live registry, directly (under a mutex) once drained.
func (r *Registry) withShard(sh *shard, fn func(*shard)) error {
	if r.drained.Load() {
		r.directMu.Lock()
		defer r.directMu.Unlock()
		fn(sh)
		return nil
	}
	ctl := &ctlMsg{fn: fn, done: make(chan struct{})}
	r.senders.Add(1)
	if r.closing.Load() {
		r.senders.Add(-1)
		// Close is in progress: wait for the drain, then go direct.
		return r.withShardAfterDrain(sh, fn)
	}
	select {
	case sh.ch <- shardMsg{ctl: ctl}:
		r.senders.Add(-1)
	case <-r.stopc:
		r.senders.Add(-1)
		return r.withShardAfterDrain(sh, fn)
	}
	<-ctl.done
	return nil
}

// withShardAfterDrain waits out an in-progress Close, then runs fn
// directly on the quiescent shard.
func (r *Registry) withShardAfterDrain(sh *shard, fn func(*shard)) error {
	r.wg.Wait() // shard goroutines exit once Close drains the queues
	r.directMu.Lock()
	defer r.directMu.Unlock()
	fn(sh)
	return nil
}

// Close stops intake, drains every queued sample into its monitor, stops
// the shard goroutines and watchdogs, and closes the alert bus. It is
// idempotent. After Close the registry is still readable (statuses,
// SnapshotStates) — only ingestion is gone.
func (r *Registry) Close() error {
	r.closeMu.Lock()
	defer r.closeMu.Unlock()
	if r.drained.Load() {
		return nil
	}
	r.closing.Store(true)
	close(r.stopc)
	// Wait out in-flight senders: anyone who registered before seeing the
	// closing flag either completes a send or escapes via stopc; new
	// senders back out immediately. Once the counter reaches zero no
	// goroutine is or will be touching the shard channels.
	for r.senders.Load() != 0 {
		time.Sleep(50 * time.Microsecond)
	}
	for _, sh := range r.shards {
		close(sh.ch)
	}
	r.wg.Wait() // shards drain their queues, then exit
	r.drained.Store(true)
	r.bus.Close()
	return nil
}

// attachSource registers a new source object on both the shard-owned map
// side (caller's duty) and the read-side index. The detector set must be
// fresh or restored; phase and per-detector mirrors are initialized from
// it.
func (r *Registry) attachSource(sh *shard, id string, set *detect.MonitorSet) *source {
	src := &source{
		id:        id,
		shardID:   sh.id,
		mon:       set,
		fr:        trace.NewFlightRecorder(r.cfg.FlightRecorderDepth),
		lastPhase: set.Phase(),
	}
	src.phase.Store(int32(set.Phase()))
	src.dets = make([]*detectorMirror, len(set.Kinds()))
	for i := range src.dets {
		d := set.Detector(i)
		m := &detectorMirror{kind: d.Kind()}
		m.jumps.Store(int64(d.Jumps()))
		m.recals.Store(int64(d.Recalibrations()))
		m.phase.Store(int32(d.Phase()))
		src.dets[i] = m
	}
	if r.cfg.StallTimeout > 0 {
		src.wd = resilience.NewWatchdog(r.cfg.StallTimeout, r.met.res, func(gap time.Duration) {
			src.stalled.Store(true)
			r.publishAlert(control.Stall(id, gap.Milliseconds()))
		})
	}
	sh.sources[id] = src
	r.byID.Store(id, src)
	r.met.sources.Set(float64(r.nsources.Add(1)))
	return src
}

// publishAlert counts and fans out one alert.
func (r *Registry) publishAlert(a control.Alert) {
	r.met.alerts.With(a.Kind).Inc()
	r.bus.Publish(a)
}

// run is the shard goroutine: it consumes samples and control messages
// until the channel closes (Close drains what is queued first), then
// stops this shard's watchdogs. What a message costs apart from its
// sources — the clock read, the depth gauge, the accepted counters and
// the handle-seconds observation — is paid once per message, however
// many rows it carries.
func (sh *shard) run() {
	defer sh.reg.wg.Done()
	r := sh.reg
	for msg := range sh.ch {
		if msg.ctl != nil {
			// Control messages are not counted on enqueue, so they must
			// not be counted here either — decrementing would drive the
			// depth negative and make an idle shard look permanently
			// backlogged to the stall checker.
			msg.ctl.fn(sh)
			close(msg.ctl.done)
			continue
		}
		now := time.Now()
		sh.depthGauge.Set(float64(sh.depth.Add(-1)))
		if msg.seq != 0 {
			// The queue-wait span: enqueue time travels in the message so
			// the wait is measured explicitly, not inferred from depth.
			enq := time.Unix(0, msg.enq)
			r.tr.Record(trace.StageQueue, msg.source(), sh.id, msg.seq, enq, now.Sub(enq))
			r.tr.QueueDepth(sh.id, sh.depth.Load())
		}
		var n int
		if cb := msg.cols; cb != nil {
			n = sh.handleCols(cb.Source, cb.Free, cb.Swap, now.UnixNano(), msg.seq)
			cb.Release()
		} else {
			n = sh.handleRows(msg.rows, now.UnixNano(), msg.seq)
			sh.freeRows(len(msg.rows.rows))
			msg.rows.release()
		}
		sh.accepted.Add(uint64(n))
		sh.samplesCtr.Add(uint64(n))
		r.accepted.Add(uint64(n))
		if r.cfg.Obs != nil {
			r.met.handleSec.Observe(time.Since(now).Seconds())
		}
	}
	for _, src := range sh.sources {
		src.wd.Stop()
	}
}

// resolve looks up (or lazily creates) the source object for id. Returns
// nil when the sample(s) must be dropped, with n samples counted against
// the drop reason.
func (sh *shard) resolve(id string, n int) *source {
	r := sh.reg
	if src, ok := sh.sources[id]; ok {
		return src
	}
	if r.cfg.MaxSources > 0 && r.nsources.Load() >= int64(r.cfg.MaxSources) {
		r.dropN("max_sources", n)
		if r.maxSourcesWarned.CompareAndSwap(false, true) {
			r.cfg.Events.Warn("ingest_max_sources", obs.Fields{
				"limit": r.cfg.MaxSources, "source": id,
			})
		}
		return nil
	}
	set, err := detect.New(r.cfg.Detectors, r.cfg.DetectorConfig())
	if err != nil {
		// The config was validated at construction; this cannot
		// happen short of a defect. Count, don't crash the shard.
		r.dropN("monitor_error", n)
		return nil
	}
	src := r.attachSource(sh, id, set)
	r.cfg.Events.Info("ingest_source_created", obs.Fields{
		"source": id, "shard": sh.id,
	})
	return src
}

// handleRows folds each row of a row batch into its source, in order,
// with wall (UnixNano) as the commit time of all of them. It returns how
// many rows reached a monitor.
func (sh *shard) handleRows(rb *rowBatch, wall int64, seq uint64) int {
	n, start := 0, 0
	for _, rw := range rb.rows {
		id := rb.ids[start:rw.end]
		start = rw.end
		src, ok := sh.sources[string(id)]
		if !ok {
			if src = sh.resolve(string(id), 1); src == nil {
				continue
			}
		}
		sh.free[0], sh.swap[0] = rw.free, rw.swap
		sh.fold(src, sh.free, sh.swap, wall, seq)
		n++
	}
	return n
}

// handleCols folds one source's column batch — a binary frame or a
// batch; line — into that source, committed at wall (UnixNano). It
// returns how many samples reached a monitor.
func (sh *shard) handleCols(id string, free, swap []float64, wall int64, seq uint64) int {
	src := sh.resolve(id, len(free))
	if src == nil {
		return 0
	}
	sh.fold(src, free, swap, wall, seq)
	return len(free)
}

// fold is the one detection path of every unit — a row, a text batch, a
// binary frame — and the single-writer hot path: no locks are taken,
// since the set is goroutine-owned and the status mirror is atomics. It
// folds the columns through the source's detector set's column kernels
// and publishes. A traced or recorded unit runs the same kernels,
// annotated (see transport.Annotator), so turning observability on never
// switches the code under observation. Verdicts are identical to feeding
// the pairs one at a time.
func (sh *shard) fold(src *source, free, swap []float64, wall int64, seq uint64) {
	r := sh.reg
	n := len(free)
	var events []detect.Event
	if seq == 0 && src.fr == nil {
		events = src.mon.AddColumns(free, swap)
	} else {
		ann := sh.ann.Begin(src.mon, n, src.fr.Depth(), seq)
		events = src.mon.AddColumns(free, swap, ann...)
		for _, ev := range events {
			if ev.Kind == detect.EventJump {
				sh.ann.Jump(ev.Sample, src.mon.Ladder(ev))
			}
		}
		sh.ann.End(free, swap, wall, r.tr, src.fr, src.id, sh.id)
	}
	sh.commit(src, events, free[n-1], swap[n-1], n, wall, seq)
}

// commit publishes one source's post-Add bookkeeping: status mirrors,
// watchdog, and alerts for n newly ingested samples whose most recent
// pair is (free, swap), committed at wall (UnixNano). Every event carries
// its emitting detector's label into the alert stream, so two detectors
// firing on one tick yield two distinguishable alerts.
func (sh *shard) commit(src *source, events []detect.Event, free, swap float64, n int, wall int64, seq uint64) {
	r := sh.reg
	src.samples.Add(int64(n))
	src.lastFree.Store(math.Float64bits(free))
	src.lastSwap.Store(math.Float64bits(swap))
	src.lastSeen.Store(wall)
	var alertStart time.Time
	if seq != 0 {
		alertStart = time.Now()
	}
	if src.wd.Pet() {
		src.stalled.Store(false)
		r.publishAlert(control.Resume(src.id))
	}

	// The verdict boundary: each detect event crosses into the control
	// plane exactly once, via the canonical translation.
	for _, ev := range events {
		m := src.det(ev.Detector)
		if ev.Kind == detect.EventRecalibrate {
			if m != nil {
				m.recals.Add(1)
			}
		} else { // detect.EventJump
			src.jumps.Add(1)
			if m != nil {
				m.jumps.Add(1)
			}
		}
		r.publishAlert(control.FromDetectEvent(src.id, ev))
	}
	if len(events) > 0 {
		// Detector phases only move when events fire; refresh the
		// per-detector mirrors off the hot steady-state path.
		for i, m := range src.dets {
			m.phase.Store(int32(src.mon.Detector(i).Phase()))
		}
	}
	if phase := src.mon.Phase(); phase != src.lastPhase {
		r.publishAlert(control.PhaseChange(src.id, src.mon.SamplesSeen(), src.lastPhase, phase))
		src.lastPhase = phase
		src.phase.Store(int32(phase))
	}
	if seq != 0 {
		r.tr.Record(trace.StageAlerts, src.id, sh.id, seq, alertStart, time.Since(alertStart))
	}
}
