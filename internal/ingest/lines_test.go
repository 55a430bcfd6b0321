package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"agingmf/internal/aging"
	"agingmf/internal/control"
	"agingmf/internal/obs"
	"agingmf/internal/trace"
)

// paddedLine is a valid single-sample line of exactly n bytes: spaces
// between the source field and the counters pad it out.
func paddedLine(t *testing.T, id string, n int) string {
	t.Helper()
	head, tail := "source="+id, " 1e9 2048"
	if pad := n - len(head) - len(tail); pad >= 0 {
		return head + strings.Repeat(" ", pad) + tail
	}
	t.Fatalf("a %d-byte line cannot hold %q", n, head+tail)
	return ""
}

// waitClosed reports whether the server closed conn within 5 s.
func waitClosed(t *testing.T, conn net.Conn) bool {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err := io.Copy(io.Discard, conn)
	var ne net.Error
	return !(errors.As(err, &ne) && ne.Timeout())
}

// TestServerMaxLineBytesEnforced pins the line bound at its configured
// value on both text transports, for a bound below 4 KiB too: a line of
// MaxLineBytes passes (with "\n" or "\r\n"), a longer one is counted as
// bad and ends the connection.
func TestServerMaxLineBytesEnforced(t *testing.T) {
	const max = 256
	srv := startTestServer(t, func(c *ServerConfig) { c.MaxLineBytes = max })
	reg := srv.Registry()

	conn, err := net.Dial("tcp", srv.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "%s\n%s\r\n", paddedLine(t, "fits", max), paddedLine(t, "fits", max))
	waitAccepted(t, reg, 2)
	fmt.Fprintf(conn, "%s\n", paddedLine(t, "long", 1000))
	if !waitClosed(t, conn) {
		t.Error("connection still open after a 1000-byte line with MaxLineBytes 256")
	}
	if got := reg.BadLines(); got != 1 {
		t.Errorf("bad lines = %d, want 1", got)
	}

	base := "http://" + srv.HTTPAddr().String()
	resp, err := http.Post(base+"/ingest", "text/plain", strings.NewReader(paddedLine(t, "post", max+1)+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("POST of a %d-byte line: status %d, want 400", max+1, resp.StatusCode)
	}
	if got := reg.BadLines(); got != 2 {
		t.Errorf("bad lines = %d after the POST, want 2", got)
	}
	if _, ok := reg.Source("long"); ok {
		t.Error("over-long TCP line was ingested")
	}
	if _, ok := reg.Source("post"); ok {
		t.Error("over-long POST line was ingested")
	}
	if st, _ := reg.Source("fits"); st.Samples != 2 {
		t.Errorf("lines of exactly MaxLineBytes: %d ingested, want 2", st.Samples)
	}
}

// TestServerOverlongLineCounted checks the default bound: a 70 KB line
// is counted in BadLines and agingmf_ingest_bad_lines_total before the
// connection closes, and the lines before it in the same write count.
func TestServerOverlongLineCounted(t *testing.T) {
	srv := startTestServer(t, func(c *ServerConfig) { c.Registry.Obs = obs.NewRegistry() })
	conn, err := net.Dial("tcp", srv.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "source=ok 1 2\n%s\n", paddedLine(t, "huge", 70_000))
	if !waitClosed(t, conn) {
		t.Error("connection still open after a 70 KB line")
	}
	reg := srv.Registry()
	waitAccepted(t, reg, 1)
	if got := reg.BadLines(); got != 1 {
		t.Errorf("bad lines = %d, want 1", got)
	}
	resp, err := http.Get("http://" + srv.HTTPAddr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), metricBadLines+" 1\n") {
		t.Errorf("/metrics does not count the over-long line as %s 1", metricBadLines)
	}
}

// TestServerLastLineAndCRLF: CRLF lines, and a last line without a
// newline before EOF, are ingested on TCP and on POST /ingest.
func TestServerLastLineAndCRLF(t *testing.T) {
	srv := startTestServer(t, nil)
	reg := srv.Registry()
	conn, err := net.Dial("tcp", srv.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "source=tcp 1 2\r\nsource=tcp 3 4\r\nsource=tcp 5 6")
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	waitAccepted(t, reg, 3)
	conn.Close()

	resp, err := http.Post("http://"+srv.HTTPAddr().String()+"/ingest?source=post", "text/plain",
		strings.NewReader("7 8\r\n9 10"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("POST status %d", resp.StatusCode)
	}
	waitAccepted(t, reg, 5)
	for id, want := range map[string][3]float64{"tcp": {3, 5, 6}, "post": {2, 9, 10}} {
		st, ok := reg.Source(id)
		if !ok || st.Samples != int64(want[0]) || st.LastFree != want[1] || st.LastSwap != want[2] {
			t.Errorf("source %s: ok=%v %+v, want %v samples ending (%v, %v)", id, ok, st, want[0], want[1], want[2])
		}
	}
}

// TestServerMixedLinesKeepOrder sends one write that mixes lone lines and
// batch; lines of one source (with other sources' lines between them):
// the source's state and jump verdicts must equal a per-sample monitor's
// over the same samples, so row messages and batches never overtook
// each other.
func TestServerMixedLinesKeepOrder(t *testing.T) {
	cfg := testMonitorConfig()
	srv := startTestServer(t, nil)
	reg := srv.Registry()

	rng := rand.New(rand.NewSource(7))
	tr := make([][2]float64, 400)
	for i := range tr {
		free := 1e9
		if i >= 150 {
			free += rng.NormFloat64() * 1e7 // late noisy regime: jumps fire
		}
		tr[i] = [2]float64{free, float64(i)}
	}
	var wire strings.Builder
	other := 0
	for off, k := 0, 0; off < len(tr); k++ {
		n := min([]int{5, 7, 3, 1, 11}[k%5], len(tr)-off)
		if k%2 == 0 {
			for _, p := range tr[off : off+n] {
				wire.WriteString(FormatLine(Sample{Source: "s", Free: p[0], Swap: p[1]}) + "\n")
			}
		} else {
			wire.WriteString(FormatBatch(Batch{Source: "s", Pairs: tr[off : off+n]}) + "\n")
		}
		off += n
		wire.WriteString(FormatLine(Sample{Source: fmt.Sprintf("o%d", k%5), Free: 1, Swap: 2}) + "\n")
		other++
	}
	conn, err := net.Dial("tcp", srv.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, wire.String()); err != nil {
		t.Fatal(err)
	}
	waitAccepted(t, reg, uint64(len(tr)+other))

	got, err := reg.MonitorState("s")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, referenceState(t, cfg, tr)) {
		t.Error("source s diverged from the per-sample reference")
	}
	ref, err := aging.NewDualMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want []aging.DualJump
	for _, p := range tr {
		want = append(want, ref.Add(p[0], p[1])...)
	}
	if len(want) == 0 {
		t.Fatal("reference monitor detected nothing; test signal is too tame")
	}
	var jumps []control.Alert
	for _, a := range reg.Alerts().Recent(0) {
		if a.Kind == control.KindJump && a.Source == "s" {
			jumps = append(jumps, a)
		}
	}
	if len(jumps) != len(want) {
		t.Fatalf("%d jump alerts, reference monitor %d", len(jumps), len(want))
	}
	for i, a := range jumps {
		if j := want[i]; a.Sample != j.Jump.SampleIndex || a.Score != j.Jump.Score || a.Counter != j.Counter.String() {
			t.Errorf("alert %d = %+v, want jump %+v", i, a, j)
		}
	}
}

// wedge parks shard 0 on a control message until the returned release
// is called.
func wedge(t *testing.T, r *Registry) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	parked := make(chan struct{})
	ctl := &ctlMsg{fn: func(*shard) { close(parked); <-gate }, done: make(chan struct{})}
	r.shards[0].ch <- shardMsg{ctl: ctl}
	<-parked
	return func() {
		close(gate)
		<-ctl.done
	}
}

// lonesFor renders n single-sample lines of source id.
func lonesFor(id string, n int) []string {
	lines := make([]string, n)
	for i := range lines {
		lines[i] = FormatLine(Sample{Source: id, Free: float64(i), Swap: 1})
	}
	return lines
}

// TestRegistryDropWhenFullRowMessages: with a wedged shard, a row message
// that finds no room is dropped whole, every row counted under
// queue_full and handed to reject, so accepted + dropped = sent.
func TestRegistryDropWhenFullRowMessages(t *testing.T) {
	const queue, sent = 8, 30
	r, err := NewRegistry(Config{
		Shards: 1, QueueSize: queue, DropWhenFull: true, Monitor: testMonitorConfig(), Obs: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	release := wedge(t, r)
	full := 0
	accepted, err := r.IngestLines("peer", lonesFor("s", sent), func(_ string, err error) {
		if !errors.Is(err, ErrQueueFull) {
			t.Errorf("rejected with %v, want ErrQueueFull", err)
		}
		full++
	})
	if err != nil {
		t.Fatal(err)
	}
	release()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if accepted != queue || full != sent-queue {
		t.Errorf("accepted %d and rejected %d lines, want %d and %d", accepted, full, queue, sent-queue)
	}
	if got := r.Dropped(); got != uint64(full) {
		t.Errorf("dropped = %d, want %d", got, full)
	}
	if got := r.met.dropped.With("queue_full").Value(); got != uint64(full) {
		t.Errorf("%s{reason=queue_full} = %d, want %d", metricDropped, got, full)
	}
	if got := r.Accepted() + r.Dropped(); got != sent {
		t.Errorf("accepted + dropped = %d, want %d sent", got, sent)
	}
}

// TestRegistryQueuedRowsBounded: producers blocked on a wedged shard
// never queue more than QueueSize rows, and every line arrives once the
// shard resumes.
func TestRegistryQueuedRowsBounded(t *testing.T) {
	const queue, producers, perProducer = 16, 3, 100
	r, err := NewRegistry(Config{Shards: 1, QueueSize: queue, Monitor: testMonitorConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	release := wedge(t, r)
	sh := r.shards[0]
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			lines := lonesFor(fmt.Sprintf("p%d", p), perProducer)
			for off := 0; off < len(lines); off += 4 { // 4 divides QueueSize: the queue can fill exactly
				if _, err := r.IngestLines("peer", lines[off:off+4], nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	peak := int64(0)
	deadline := time.Now().Add(5 * time.Second)
	for peak < queue && time.Now().Before(deadline) {
		peak = max(peak, sh.rows.Load())
		time.Sleep(100 * time.Microsecond)
	}
	for i := 0; i < 100; i++ { // the producers are parked; watch a while
		peak = max(peak, sh.rows.Load())
		time.Sleep(100 * time.Microsecond)
	}
	if peak != queue {
		t.Errorf("queued rows peaked at %d with blocked producers, want exactly QueueSize %d", peak, queue)
	}
	release()
	wg.Wait()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if got := r.Accepted(); got != producers*perProducer {
		t.Errorf("accepted = %d, want %d", got, producers*perProducer)
	}
	if got := sh.rows.Load(); got != 0 {
		t.Errorf("%d rows still counted as queued after Close", got)
	}
}

// TestTextLinesObservedRowPath: with every unit traced, with the flight
// recorder on, and with both, lone lines still travel as one row
// message per shard and read — one queue span each when traced — and
// every source gets its spans and its recorder tail.
func TestTextLinesObservedRowPath(t *testing.T) {
	const sources, rounds, depth = 12, 5, 3
	for _, tc := range []struct {
		name          string
		every, record int
	}{{"traced", 1, 0}, {"recorded", 0, depth}, {"both", 1, depth}} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewRegistry(Config{
				Shards: 2, Monitor: testMonitorConfig(), TraceSampleEvery: tc.every, FlightRecorderDepth: tc.record,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			var lines []string
			for k := 0; k < rounds; k++ {
				for i := 0; i < sources; i++ {
					lines = append(lines, FormatLine(Sample{Source: fmt.Sprintf("m%02d", i), Free: float64(k), Swap: float64(i)}))
				}
			}
			if n, err := r.IngestLines("peer", lines, nil); err != nil || n != len(lines) {
				t.Fatalf("accepted %d of %d lines: %v", n, len(lines), err)
			}
			if err := r.Drain(); err != nil {
				t.Fatal(err)
			}
			perStage := map[trace.Stage]map[string]bool{}
			queueSpans := 0
			for _, sp := range r.Tracer().Spans() {
				if perStage[sp.Stage] == nil {
					perStage[sp.Stage] = map[string]bool{}
				}
				perStage[sp.Stage][sp.Source] = true
				if sp.Stage == trace.StageQueue {
					queueSpans++
				}
			}
			if tc.every > 0 && (queueSpans == 0 || queueSpans > len(r.shards)) {
				t.Errorf("%d queue spans for one call over %d shards: lines did not travel as row messages", queueSpans, len(r.shards))
			}
			for i := 0; i < sources; i++ {
				id := fmt.Sprintf("m%02d", i)
				for _, stage := range []trace.Stage{trace.StageDetect, trace.StageAlerts} {
					if tc.every > 0 && !perStage[stage][id] {
						t.Errorf("no %v span for %s", stage, id)
					}
				}
				recs, err := r.FlightRecords(id)
				if err != nil {
					t.Fatal(err)
				}
				if tc.record == 0 {
					if len(recs) != 0 {
						t.Errorf("%s: %d records with the recorder off", id, len(recs))
					}
					continue
				}
				if len(recs) != depth || recs[depth-1].Free != rounds-1 || recs[depth-1].Swap != float64(i) || recs[depth-1].Wall == 0 {
					t.Errorf("%s recorder tail = %+v, want the last %d samples", id, recs, depth)
				}
			}
		})
	}
}

// TestRegistryCloseReleasesRowWaiters: producers waiting for row room
// on a wedged shard get ErrClosed from Close, and the message each was
// waiting with is counted as dropped.
func TestRegistryCloseReleasesRowWaiters(t *testing.T) {
	const queue, producers, perProducer = 4, 3, 40
	r, err := NewRegistry(Config{Shards: 1, QueueSize: queue, Monitor: testMonitorConfig()})
	if err != nil {
		t.Fatal(err)
	}
	release := wedge(t, r)
	closed := make(chan error, producers)
	for p := 0; p < producers; p++ {
		go func(p int) {
			_, err := r.IngestLines("peer", lonesFor(fmt.Sprintf("p%d", p), perProducer), nil)
			closed <- err
		}(p)
	}
	for r.shards[0].rows.Load() < queue { // the queue is full: the rest wait
		time.Sleep(100 * time.Microsecond)
	}
	closeErr := make(chan error, 1)
	go func() { closeErr <- r.Close() }()
	for p := 0; p < producers; p++ {
		if err := <-closed; !errors.Is(err, ErrClosed) {
			t.Errorf("waiting producer returned %v, want ErrClosed", err)
		}
	}
	release()
	if err := <-closeErr; err != nil {
		t.Fatal(err)
	}
	// One message of QueueSize rows got in; each producer then waited
	// with one more.
	if r.Accepted() != queue || r.Dropped() != producers*queue {
		t.Errorf("accepted %d, dropped %d; want %d and %d", r.Accepted(), r.Dropped(), queue, producers*queue)
	}
}
