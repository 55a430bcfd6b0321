package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"agingmf/internal/ingest"
	"agingmf/internal/source"
)

// wireUnit is one frame or line of an encoded stream.
type wireUnit struct {
	src int // source index
	n   int // samples
	end int // offset just past the unit in the stream's bytes
}

// wireStream is one connection's bytes and the units they carry.
type wireStream struct {
	data  []byte
	units []wireUnit
	n     int // samples
}

// wire is a workload's inputs encoded for the wire, split into phases.
type wire struct {
	// setup is written at exec (agingmon only: the first frame).
	setup wireStream
	// closed holds one stream per producer connection.
	closed []wireStream
	// lag is the open-loop stream, every source on one connection.
	lag wireStream
}

// closedN is the samples of the closed-loop phase.
func (wr *wire) closedN() int {
	n := 0
	for _, s := range wr.closed {
		n += s.n
	}
	return n
}

// total is every sample the wire carries.
func (wr *wire) total() int { return wr.setup.n + wr.closedN() + wr.lag.n }

// replayStream concatenates the phases in the order one source sees
// them, for the in-process replay.
func (wr *wire) replayStream() ([]byte, []wireUnit) {
	var (
		data  []byte
		units []wireUnit
	)
	for _, s := range append(append([]wireStream{wr.setup}, wr.closed...), wr.lag) {
		for _, u := range s.units {
			u.end += len(data)
			units = append(units, u)
		}
		data = append(data, s.data...)
	}
	return data, units
}

// encodeUnit appends source src's samples [a,b) as one frame, or as one
// text line per sample.
func encodeUnit(dst []byte, w *Workload, in *Inputs, src, a, b int) ([]byte, error) {
	if w.Frame == 0 {
		for k := a; k < b; k++ {
			dst = append(dst, ingest.FormatLine(ingest.Sample{
				Source: in.IDs[src], Free: in.Free[src][k], Swap: in.Swap[src][k],
			})...)
			dst = append(dst, '\n')
		}
		return dst, nil
	}
	id := in.IDs[src]
	if w.Daemon == "agingmon" {
		id = "" // a single stream: agingmon ignores the id
	}
	return source.AppendFrame(dst, &source.ColumnarBatch{
		Source: id, Free: in.Free[src][a:b], Swap: in.Swap[src][a:b],
	})
}

// interleave encodes the given per-source ranges round-robin, one unit
// (frame or line) per source per round, as a fleet relay multiplexes.
func interleave(w *Workload, in *Inputs, srcs []int, from, to []int) (wireStream, error) {
	step := max(w.Frame, 1)
	var (
		s   wireStream
		err error
	)
	for round := 0; ; round++ {
		progressed := false
		for _, i := range srcs {
			a := from[i] + round*step
			if a >= to[i] {
				continue
			}
			b := min(a+step, to[i])
			if s.data, err = encodeUnit(s.data, w, in, i, a, b); err != nil {
				return s, err
			}
			s.n += b - a
			s.units = append(s.units, wireUnit{src: i, n: b - a, end: len(s.data)})
			progressed = true
		}
		if !progressed {
			return s, nil
		}
	}
}

// encodeWire splits every source's trace into setup, closed-loop and
// lag segments: the lag phase carries each source's last LagSamples.
func encodeWire(w *Workload, in *Inputs) (*wire, error) {
	wr := &wire{}
	start := make([]int, w.Sources)
	split := make([]int, w.Sources)
	end := make([]int, w.Sources)
	if w.Daemon == "agingmon" {
		start[0] = min(w.Frame, len(in.Free[0]))
		var err error
		if wr.setup, err = interleave(w, in, []int{0}, []int{0}, start); err != nil {
			return nil, err
		}
	}
	for i := range end {
		end[i] = len(in.Free[i])
		split[i] = max(start[i], end[i]-w.LagSamples)
	}
	for c := 0; c < w.Conns; c++ {
		var srcs []int
		for i := c; i < w.Sources; i += w.Conns {
			srcs = append(srcs, i)
		}
		s, err := interleave(w, in, srcs, start, split)
		if err != nil {
			return nil, err
		}
		wr.closed = append(wr.closed, s)
	}
	all := make([]int, w.Sources)
	for i := range all {
		all[i] = i
	}
	var err error
	wr.lag, err = interleave(w, in, all, split, end)
	return wr, err
}

// lifecycle is the measurement of one daemon start → load → shutdown.
type lifecycle struct {
	// setups holds the lifecycle's own start-up and those of the set-up
	// probes run after it.
	setups     []time.Duration
	throughput float64         // samples/s, closed loop
	cpuNs      float64         // daemon CPU ns per committed sample, closed loop
	lags       []time.Duration // sent → committed (see unitLags), per lag unit
	floors     []time.Duration // sent → next poll, per lag unit
	late       []time.Duration // generator lateness (due → sent) per lag unit
	rssKiB     float64         // VmHWM growth per source
	shutdown   time.Duration
	sent       int
	failed     int
}

// env carries the per-run settings every lifecycle shares.
type env struct {
	w        *Workload
	in       *Inputs
	wire     *wire
	expected map[string][]byte // oracle states by source id
	bin      string            // directory holding the built binaries
	work     string            // scratch directory inside the checkout
}

const (
	// pollEvery paces agingmon's readiness poll.
	pollEvery = 500 * time.Microsecond
	// lagBurst is the samples the open loop's generator writes at once: a
	// frame, or 256 text lines, as a relay flushes its buffer. Lines then
	// queue behind each other in the daemon, so their lag follows the
	// per-line cost rather than only the wake-up latency of one line.
	lagBurst = 256
	// pollGap is the pause between the open loop's scrapes (CPU is not
	// measured there), short enough to resolve sub-ms lag.
	pollGap = 250 * time.Microsecond
	// closedPollEvery paces them in the closed loop, where the daemon's
	// CPU is measured: each scrape costs the daemon ~0.1 ms, so scraping
	// stays ~5% of a core, while the window's end is still resolved to
	// ~0.2% of a one-second window.
	closedPollEvery = 2 * time.Millisecond
	// setupProbes is the extra start-ups per lifecycle that only time
	// set-up (start, ready, kill), so setup_s is a median of many.
	setupProbes = 1
	// readyTimeout bounds a daemon's start-up, restore included.
	readyTimeout = 60 * time.Second
)

// runLifecycle runs one daemon lifecycle of the workload, then the
// set-up probes.
func runLifecycle(ctx context.Context, e *env) (lifecycle, error) {
	run, start := runAgingd, startAgingd
	if e.w.Daemon == "agingmon" {
		run, start = runAgingmon, startAgingmon
	}
	lc, err := run(ctx, e)
	if err != nil {
		return lc, err
	}
	for i := 0; i < setupProbes; i++ {
		d, err := start(ctx, e)
		if err != nil {
			return lc, err
		}
		d.p.kill()
		lc.setups = append(lc.setups, d.setup)
	}
	return lc, nil
}

// daemon is a started daemon that has reached ready.
type daemon struct {
	p     *proc
	setup time.Duration
	tcp   string   // agingd: the ingest listener
	base  string   // agingd: the HTTP API root
	sc    *scraper // the /metrics scraper
}

// startAgingd execs agingd at its shipped defaults with loopback
// listeners, the workload's flags and the snapshot file the oracle reads
// (pre-filled when the workload restores one), and waits until its TCP
// listener accepts.
func startAgingd(ctx context.Context, e *env) (*daemon, error) {
	snap := filepath.Join(e.work, "agingd.snap")
	if err := os.Remove(snap); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	if e.in.Prepared != nil {
		if err := os.WriteFile(snap, e.in.Prepared, 0o600); err != nil {
			return nil, err
		}
	}
	args := append([]string{"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0", "-snapshot", snap}, e.w.Flags...)
	p, err := startProc(filepath.Join(e.bin, "agingd"), args, false)
	if err != nil {
		return nil, err
	}
	d := &daemon{p: p}
	var api string
	if d.tcp, err = d.waitReady(ctx, "ingest: tcp://"); err == nil {
		api, _, err = p.waitLine("api: http://", readyTimeout)
	}
	if err != nil {
		p.kill()
		return nil, err
	}
	d.base = "http://" + strings.TrimSuffix(api, "/api/sources")
	d.sc = newScraper(d.base + "/metrics")
	if e.in.Prepared != nil {
		want := fmt.Sprintf("restored %d sources", len(e.in.PreparedStates))
		if !strings.Contains(p.output(), want) {
			p.kill()
			return nil, fmt.Errorf("agingd did not report %q:\n%s", want, p.output())
		}
	}
	return d, nil
}

// waitReady waits for the ready line and dials the address it names:
// set-up ends when the listener accepts that connection.
func (d *daemon) waitReady(ctx context.Context, prefix string) (string, error) {
	addr, _, err := d.p.waitLine(prefix, readyTimeout)
	if err != nil {
		return "", err
	}
	var dl net.Dialer
	c, err := dl.DialContext(ctx, "tcp", addr)
	if err != nil {
		return "", fmt.Errorf("dial %s: %w", addr, err)
	}
	d.setup = time.Since(d.p.started)
	c.Close()
	return addr, nil
}

func runAgingd(ctx context.Context, e *env) (lc lifecycle, err error) {
	d, err := startAgingd(ctx, e)
	if err != nil {
		return lc, err
	}
	defer d.p.kill()
	lc.setups = append(lc.setups, d.setup)
	pid := d.p.cmd.Process.Pid
	st0, err := readProcStat(pid)
	if err != nil {
		return lc, err
	}
	committed := func() ([]uint64, error) { return shardCounts(ctx, d.sc) }

	// Closed loop: every connection writes as fast as TCP backpressure
	// allows; the window ends when the daemon has committed it all.
	conns, err := dialAll(ctx, d.tcp, len(e.wire.closed))
	if err != nil {
		return lc, err
	}
	lc.throughput, lc.cpuNs, err = closedLoop(ctx, pid, writers(conns), e.wire.closed, committed)
	closeAll(conns)
	if err != nil {
		return lc, err
	}

	// Open loop on one connection, units mapped onto their shards.
	shardOf, err := sourceShards(ctx, d.base)
	if err != nil {
		return lc, err
	}
	base0, err := committed()
	if err != nil {
		return lc, err
	}
	units := make([]lagUnit, len(e.wire.lag.units))
	need := map[int]uint64{}
	for sh, n := range base0 {
		need[sh] = n
	}
	for k, u := range e.wire.lag.units {
		sh, ok := shardOf[e.in.IDs[u.src]]
		if !ok {
			return lc, fmt.Errorf("source %s missing from /api/sources", e.in.IDs[u.src])
		}
		need[sh] += uint64(u.n)
		units[k] = lagUnit{shard: sh, need: need[sh]}
	}
	conn, err := dialAll(ctx, d.tcp, 1)
	if err != nil {
		return lc, err
	}
	lc.lags, lc.floors, lc.late, err = openLoop(ctx, conn[0], e.wire.lag, e.w.LagRate, units, committed)
	closeAll(conn)
	if err != nil {
		return lc, err
	}

	st1, err := readProcStat(pid)
	if err != nil {
		return lc, err
	}
	lc.rssKiB = float64(st1.hwmKB-st0.hwmKB) / float64(e.w.Sources)
	acct, err := ingestAccounting(ctx, d.sc)
	if err != nil {
		return lc, err
	}
	// Shutdown must not wait on the scraper's idle keep-alive connection.
	d.sc.client.CloseIdleConnections()
	if lc.shutdown, err = d.p.interrupt(60 * time.Second); err != nil {
		return lc, err
	}
	states, err := ingest.ReadSnapshot(filepath.Join(e.work, "agingd.snap"))
	if err != nil {
		return lc, err
	}
	lc.sent = e.wire.total()
	lc.failed = failedSamples(e.in, e.expected, states, lc.sent, acct)
	return lc, nil
}

// startAgingmon execs agingmon -stdin at its defaults with a loopback
// metrics listener and the state file the oracle reads, writes the first
// frame, and waits until agingmon has consumed it: set-up ends there.
func startAgingmon(ctx context.Context, e *env) (*daemon, error) {
	state := filepath.Join(e.work, "agingmon.state")
	if err := os.Remove(state); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	args := []string{"-stdin", "-metrics-addr", "127.0.0.1:0", "-state", state}
	p, err := startProc(filepath.Join(e.bin, "agingmon"), args, true)
	if err != nil {
		return nil, err
	}
	d := &daemon{p: p}
	fail := func(err error) (*daemon, error) {
		p.kill()
		return nil, err
	}
	if _, err := p.stdin.Write(e.wire.setup.data); err != nil {
		return fail(fmt.Errorf("write first frame: %w", err))
	}
	url, _, err := p.waitLine("metrics: ", readyTimeout)
	if err != nil {
		return fail(err)
	}
	d.sc = newScraper(url)
	for deadline := time.Now().Add(readyTimeout); ; {
		c, err := monitorCount(ctx, d.sc)
		if err != nil {
			return fail(err)
		}
		if c[0] >= uint64(e.wire.setup.n) {
			d.setup = time.Since(p.started)
			return d, nil
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("agingmon consumed %d of the first %d samples within %v:\n%s", c[0], e.wire.setup.n, readyTimeout, p.output()))
		}
		time.Sleep(pollEvery)
	}
}

func runAgingmon(ctx context.Context, e *env) (lc lifecycle, err error) {
	d, err := startAgingmon(ctx, e)
	if err != nil {
		return lc, err
	}
	defer d.p.kill()
	lc.setups = append(lc.setups, d.setup)
	committed := func() ([]uint64, error) { return monitorCount(ctx, d.sc) }
	pid := d.p.cmd.Process.Pid
	st0, err := readProcStat(pid)
	if err != nil {
		return lc, err
	}
	lc.throughput, lc.cpuNs, err = closedLoop(ctx, pid, []io.Writer{d.p.stdin}, e.wire.closed, committed)
	if err != nil {
		return lc, err
	}
	units := make([]lagUnit, len(e.wire.lag.units))
	need := uint64(e.wire.setup.n + e.wire.closedN())
	for k, u := range e.wire.lag.units {
		need += uint64(u.n)
		units[k] = lagUnit{need: need}
	}
	lc.lags, lc.floors, lc.late, err = openLoop(ctx, d.p.stdin, e.wire.lag, e.w.LagRate, units, committed)
	if err != nil {
		return lc, err
	}
	st1, err := readProcStat(pid)
	if err != nil {
		return lc, err
	}
	lc.rssKiB = float64(st1.hwmKB - st0.hwmKB)
	bad, err := scrapeSum(ctx, d.sc, "agingmf_monitor_bad_samples_total")
	if err != nil {
		return lc, err
	}
	final, err := committed()
	if err != nil {
		return lc, err
	}
	// Shutdown must not wait on the scraper's idle keep-alive connection.
	d.sc.client.CloseIdleConnections()
	if lc.shutdown, err = d.p.interrupt(60 * time.Second); err != nil {
		return lc, err
	}
	got, err := os.ReadFile(filepath.Join(e.work, "agingmon.state"))
	if err != nil {
		return lc, err
	}
	lc.sent = e.wire.total()
	states := map[string][]byte{e.in.IDs[0]: got}
	lc.failed = failedSamples(e.in, e.expected, states, lc.sent, accounting{accepted: final[0], rejected: uint64(bad)})
	return lc, nil
}

func dialAll(ctx context.Context, addr string, n int) ([]net.Conn, error) {
	var d net.Dialer
	conns := make([]net.Conn, 0, n)
	for i := 0; i < n; i++ {
		c, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			closeAll(conns)
			return nil, err
		}
		conns = append(conns, c)
	}
	return conns, nil
}

func writers(conns []net.Conn) []io.Writer {
	ws := make([]io.Writer, len(conns))
	for i, c := range conns {
		ws[i] = c
	}
	return ws
}

func closeAll(conns []net.Conn) {
	for _, c := range conns {
		c.Close()
	}
}

// closedLoop writes each stream on its connection as fast as the peer
// takes it and polls the committed counters until total samples are in.
// It returns samples/s from the first byte to the poll that saw the last
// sample committed, and the daemon's CPU ns per sample over that window.
func closedLoop(ctx context.Context, pid int, conns []io.Writer, streams []wireStream, committed func() ([]uint64, error)) (float64, float64, error) {
	total := 0
	for _, s := range streams {
		total += s.n
	}
	before, err := committed()
	if err != nil {
		return 0, 0, err
	}
	goal := sum(before) + uint64(total)
	st0, err := readProcStat(pid)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	errc := make(chan error, len(conns))
	for i, c := range conns {
		wg.Add(1)
		go func(c io.Writer, b []byte) {
			defer wg.Done()
			if _, err := c.Write(b); err != nil {
				errc <- err
			}
		}(c, streams[i].data)
	}
	var t1 time.Time
	for {
		counts, err := committed()
		if err != nil {
			return 0, 0, err
		}
		if sum(counts) >= goal {
			t1 = time.Now()
			break
		}
		select {
		case err := <-errc:
			return 0, 0, fmt.Errorf("closed loop write: %w", err)
		case <-ctx.Done():
			return 0, 0, ctx.Err()
		case <-time.After(closedPollEvery):
		}
	}
	st1, err := readProcStat(pid)
	wg.Wait()
	if err != nil {
		return 0, 0, err
	}
	return float64(total) / t1.Sub(t0).Seconds(), float64((st1.cpu - st0.cpu).Nanoseconds()) / float64(total), nil
}

// openLoop sends the lag stream on one connection at rate samples/s and
// returns every unit's lag and floor (see unitLags) and the generator's
// lateness (due → sent). A poller scrapes the committed counters every
// pollGap meanwhile. Unit needs are absolute committed counts.
func openLoop(ctx context.Context, c io.Writer, s wireStream, rate float64, units []lagUnit, committed func() ([]uint64, error)) (lags, floors, late []time.Duration, err error) {
	if len(units) == 0 {
		return nil, nil, nil, errors.New("open loop: no units")
	}
	// Due times follow the fixed rate over cumulative samples, a burst of
	// lagBurst samples at a time.
	cum := 0
	for k, u := range s.units {
		units[k].due = time.Duration(float64(cum/lagBurst*lagBurst) / rate * float64(time.Second))
		cum += u.n
	}
	final := map[int]uint64{}
	for _, u := range units {
		final[u.shard] = u.need
	}
	var (
		polls []shardPoll
		wg    sync.WaitGroup
		perr  error
	)
	stop := make(chan struct{})
	t0 := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		stopping := false
		for {
			asked := time.Since(t0)
			counts, err := committed()
			if err != nil {
				perr = err
				return
			}
			got := time.Since(t0)
			polls = append(polls, shardPoll{at: asked + (got-asked)/2, counts: counts})
			if stopping {
				done := true
				for sh, n := range final {
					if sh >= len(counts) || counts[sh] < n {
						done = false
					}
				}
				if done {
					return
				}
			}
			select {
			case <-stop:
				stopping = true
			case <-ctx.Done():
				perr = ctx.Err()
				return
			default:
				sleepPrecise(pollGap)
			}
		}
	}()
	late = make([]time.Duration, len(units))
	var (
		werr  error
		wrote time.Duration // when the last write returned
	)
	for k := 0; k < len(units); {
		now := time.Since(t0)
		if d := units[k].due - now; d > 0 {
			sleepPrecise(d)
			now = time.Since(t0)
		}
		// Send every unit already due in one write.
		j := k
		for j < len(units) && units[j].due <= now {
			units[j].sent = now
			units[j].held = max(0, wrote-units[j].due)
			late[j] = now - units[j].due
			j++
		}
		from := 0
		if k > 0 {
			from = s.units[k-1].end
		}
		if _, werr = c.Write(s.data[from:s.units[j-1].end]); werr != nil {
			break
		}
		wrote = time.Since(t0)
		k = j
	}
	close(stop)
	wg.Wait()
	if werr != nil {
		return nil, nil, nil, fmt.Errorf("open loop write: %w", werr)
	}
	if perr != nil {
		return nil, nil, nil, perr
	}
	lags, floors, err = unitLags(units, polls)
	return lags, floors, late, err
}

// shardCounts scrapes agingd's per-shard committed-sample counters.
func shardCounts(ctx context.Context, sc *scraper) ([]uint64, error) {
	var counts []uint64
	err := sc.scrape(ctx, func(name, labels string, v float64) {
		if name != "agingmf_ingest_samples_total" {
			return
		}
		sh, err := strconv.Atoi(labelValue(labels, "shard"))
		if err != nil || sh < 0 {
			return
		}
		for len(counts) <= sh {
			counts = append(counts, 0)
		}
		counts[sh] = uint64(v)
	})
	return counts, err
}

// monitorCount scrapes agingmon's consumed-sample counter (one stream:
// the free-memory monitor sees every sample).
func monitorCount(ctx context.Context, sc *scraper) ([]uint64, error) {
	counts := []uint64{0}
	err := sc.scrape(ctx, func(name, labels string, v float64) {
		if name == "agingmf_monitor_samples_total" && labelValue(labels, "counter") == "free-memory" {
			counts[0] = uint64(v)
		}
	})
	return counts, err
}

func scrapeSum(ctx context.Context, sc *scraper, metric string) (float64, error) {
	total := 0.0
	err := sc.scrape(ctx, func(name, _ string, v float64) {
		if name == metric {
			total += v
		}
	})
	return total, err
}

// accounting is the daemon's own sample ledger after the load.
type accounting struct {
	accepted uint64 // samples committed to monitors
	rejected uint64 // samples dropped, plus bad lines and bad frames
}

func ingestAccounting(ctx context.Context, sc *scraper) (accounting, error) {
	var a accounting
	err := sc.scrape(ctx, func(name, _ string, v float64) {
		switch name {
		case "agingmf_ingest_samples_total":
			a.accepted += uint64(v)
		case "agingmf_ingest_dropped_total", "agingmf_ingest_bad_lines_total", "agingmf_ingest_bad_frames_total":
			a.rejected += uint64(v)
		}
	})
	return a, err
}

// sourceShards maps every source to its shard, from /api/sources.
func sourceShards(ctx context.Context, base string) (map[string]int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/sources", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc struct {
		Sources []struct {
			ID    string `json:"id"`
			Shard int    `json:"shard"`
		} `json:"sources"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("/api/sources: %w", err)
	}
	out := make(map[string]int, len(doc.Sources))
	for _, s := range doc.Sources {
		out[s.ID] = s.Shard
	}
	return out, nil
}

func sum(xs []uint64) uint64 {
	var t uint64
	for _, x := range xs {
		t += x
	}
	return t
}

// sleepPrecise blocks the calling thread in nanosleep(2) for d. The open
// loop's generator and poller use it in place of time.Sleep: in an
// otherwise idle process the Go runtime wakes sub-millisecond sleeps on
// its ~1 ms poll tick, which locked the poller's scrapes to the
// generator's sends, and every workload then read about one tick of lag
// whatever its per-unit cost.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
