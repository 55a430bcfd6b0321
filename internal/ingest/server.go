package ingest

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"agingmf/internal/obs"
	"agingmf/internal/runtime"
	transport "agingmf/internal/source"
)

// ServerConfig parameterizes a Server.
type ServerConfig struct {
	// Registry configures the sharded monitor registry the server feeds.
	Registry Config
	// TCPAddr is the line-protocol listener address (e.g. ":9178";
	// empty disables the TCP transport).
	TCPAddr string
	// HTTPAddr is the API listener address, serving POST /ingest, the
	// /api endpoints, /metrics and /healthz (empty disables).
	HTTPAddr string
	// MaxLineBytes bounds one wire line, not counting its "\n" or
	// "\r\n", and one binary frame (0 selects 64 KiB). A longer line or
	// frame poisons the connection: it is counted (BadLines, or BadFrames
	// as too_large), then the connection is closed (POST /ingest answers
	// 400).
	MaxLineBytes int
	// MaxBadLines is the per-connection malformed-line budget; past it
	// the connection is closed (0 selects 100, negative means unlimited).
	MaxBadLines int
	// IdleTimeout closes a TCP connection that sends nothing for this
	// long (0 disables). Slow clients beyond it are evicted, not served.
	IdleTimeout time.Duration
	// SnapshotPath enables state persistence: the registry's monitor
	// states are saved there every SnapshotEvery and on Shutdown, and
	// loaded from there (when the file exists) by NewServer.
	SnapshotPath string
	// SnapshotEvery is the periodic snapshot cadence (0 selects 1m;
	// meaningless without SnapshotPath).
	SnapshotEvery time.Duration
	// EnablePprof additionally serves net/http/pprof on the API listener.
	EnablePprof bool
}

// withDefaults resolves the zero-value conveniences.
func (c ServerConfig) withDefaults() ServerConfig {
	if c.MaxLineBytes <= 0 {
		c.MaxLineBytes = 64 << 10
	}
	if c.MaxBadLines == 0 {
		c.MaxBadLines = 100
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = time.Minute
	}
	return c
}

// Server is the ingestion daemon: the sharded registry plus its TCP and
// HTTP transports, periodic snapshots and graceful shutdown.
type Server struct {
	cfg ServerConfig
	reg *Registry
	ev  *obs.Events

	tcpLn   net.Listener
	httpLn  net.Listener
	httpSrv *http.Server

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	router Router  // the registry itself unless SetRouter interposes one
	mounts []mount // extra HTTP handlers (the cluster endpoints)

	snap        *runtime.SnapshotManager
	snapSources atomic.Int64
	wg          sync.WaitGroup
	started     atomic.Bool
	stopping    atomic.Bool
	stopOnce    sync.Once

	stallc        chan struct{} // closed by Shutdown; stops watchShards
	stalledShards atomic.Int32  // shards holding queued work without progress
}

// Router takes every unit the transports read: the text wire lines of
// each read (TCP and POST /ingest alike; see Registry.IngestLines for
// the contract), and binary-wire frames in decoded form (taking
// ownership of each batch — route, forward or Release). The Registry is
// one; the cluster node is the other, routing each line to its owning
// peer instead of the local registry.
type Router interface {
	IngestLines(defaultSource string, lines []string, reject func(line string, err error)) (accepted int, err error)
	IngestColumns(cb *transport.ColumnarBatch) error
}

// mount is one extra HTTP route registered via Mount.
type mount struct {
	pattern string
	handler http.Handler
}

// NewServer builds a server. When cfg.SnapshotPath names an existing
// snapshot, every source in it is restored before the first sample
// arrives; a snapshot that fails to decode or restore is quarantined to
// <path>.corrupt (event "ingest_snapshot_corrupt", counter
// agingmf_snapshot_corrupt_total) and the server starts fresh — corrupt
// state must never brick a restart. Call Start to bind the listeners.
func NewServer(cfg ServerConfig) (*Server, error) {
	cfg = cfg.withDefaults()
	fromSnapshot := false
	if cfg.SnapshotPath != "" && cfg.Registry.Restore == nil {
		restore, err := ReadSnapshot(cfg.SnapshotPath)
		if err != nil {
			quarantineSnapshot(cfg, err)
		} else {
			cfg.Registry.Restore = restore
			fromSnapshot = restore != nil
		}
	}
	reg, err := NewRegistry(cfg.Registry)
	if err != nil && fromSnapshot {
		// The file decoded but a monitor blob inside it would not restore
		// (a bit flip keeps the gob frame parseable surprisingly often).
		quarantineSnapshot(cfg, err)
		cfg.Registry.Restore = nil
		reg, err = NewRegistry(cfg.Registry)
	}
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		reg:    reg,
		router: reg,
		ev:     cfg.Registry.Events,
		conns:  make(map[net.Conn]struct{}),
	}
	s.snap = &runtime.SnapshotManager{
		Path:  cfg.SnapshotPath,
		Every: cfg.SnapshotEvery,
		State: func() ([]byte, error) {
			states, err := s.reg.SnapshotStates()
			if err != nil {
				return nil, err
			}
			s.snapSources.Store(int64(len(states)))
			return EncodeSnapshot(states)
		},
		OnSave: func() {
			s.ev.Info("ingest_snapshot_saved", obs.Fields{
				"path": cfg.SnapshotPath, "sources": int(s.snapSources.Load()),
			})
		},
		OnError: func(err error) {
			s.ev.Error("ingest_snapshot_failed", obs.Fields{"error": err.Error()})
		},
	}
	return s, nil
}

// quarantineSnapshot moves a corrupt snapshot aside and reports it.
func quarantineSnapshot(cfg ServerConfig, cause error) {
	dst, qerr := runtime.Quarantine(cfg.SnapshotPath)
	fields := obs.Fields{"path": cfg.SnapshotPath, "error": cause.Error()}
	if qerr != nil {
		fields["quarantine_error"] = qerr.Error()
	} else {
		fields["quarantined_to"] = dst
	}
	cfg.Registry.Events.Error("ingest_snapshot_corrupt", fields)
	cfg.Registry.Obs.Counter(metricSnapshotCorrupt,
		"Snapshots quarantined as undecodable or unrestorable at startup.").Inc()
}

// Registry exposes the underlying registry (statuses, alerts, states).
func (s *Server) Registry() *Registry { return s.reg }

// SetRouter interposes r on every unit the transports read (TCP lines
// and frames, POST /ingest) — the cluster routing hook. Call before
// Start; nil restores direct registry ingestion.
func (s *Server) SetRouter(r Router) {
	if r == nil {
		r = s.reg
	}
	s.router = r
}

// Mount registers an extra HTTP handler on the API mux (the cluster
// endpoints ride the same listener). Call before Start or Handler.
func (s *Server) Mount(pattern string, handler http.Handler) {
	s.mounts = append(s.mounts, mount{pattern: pattern, handler: handler})
}

// Start binds the configured listeners and begins serving. It returns
// once the listeners are bound (serving continues on background
// goroutines until Shutdown).
func (s *Server) Start() error {
	if !s.started.CompareAndSwap(false, true) {
		return errors.New("ingest: server already started")
	}
	if s.cfg.TCPAddr != "" {
		ln, err := net.Listen("tcp", s.cfg.TCPAddr)
		if err != nil {
			return fmt.Errorf("ingest: tcp listener: %w", err)
		}
		s.tcpLn = ln
		s.wg.Add(1)
		go s.acceptLoop(ln)
	}
	if s.cfg.HTTPAddr != "" {
		ln, err := net.Listen("tcp", s.cfg.HTTPAddr)
		if err != nil {
			if s.tcpLn != nil {
				s.tcpLn.Close()
			}
			return fmt.Errorf("ingest: http listener: %w", err)
		}
		s.httpLn = ln
		s.httpSrv = &http.Server{Handler: s.Handler()}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			_ = s.httpSrv.Serve(ln)
		}()
	}
	s.snap.Start()
	if s.cfg.Registry.StallTimeout > 0 {
		s.stallc = make(chan struct{})
		s.wg.Add(1)
		go s.watchShards(s.cfg.Registry.StallTimeout)
	}
	return nil
}

// watchShards polls per-shard progress and flips /healthz to 503 when any
// shard holds queued work without accepting a sample for at least timeout.
// Progress is inferred from the accepted counter, not from watchdog pets:
// an idle shard (empty queue, nothing to do) is healthy, only a shard that
// has work and is not draining it is stalled — the failure mode where a
// wedged monitor or a stuck control closure silently freezes one
// partition of the fleet while the others keep serving.
func (s *Server) watchShards(timeout time.Duration) {
	defer s.wg.Done()
	tick := timeout / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	type progress struct {
		accepted uint64
		since    time.Time
	}
	last := make([]progress, len(s.reg.shards))
	now := time.Now()
	for i, sh := range s.reg.shards {
		last[i] = progress{accepted: sh.accepted.Load(), since: now}
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.stallc:
			return
		case <-t.C:
		}
		now = time.Now()
		stalled := int32(0)
		for i, sh := range s.reg.shards {
			acc := sh.accepted.Load()
			if acc != last[i].accepted || sh.depth.Load() == 0 {
				last[i] = progress{accepted: acc, since: now}
				continue
			}
			if now.Sub(last[i].since) >= timeout {
				stalled++
			}
		}
		if prev := s.stalledShards.Swap(stalled); prev == 0 && stalled > 0 {
			s.ev.Warn("ingest_shard_stalled", obs.Fields{"shards": int(stalled)})
		}
	}
}

// TCPAddr returns the bound TCP listener address (nil when disabled).
func (s *Server) TCPAddr() net.Addr {
	if s.tcpLn == nil {
		return nil
	}
	return s.tcpLn.Addr()
}

// HTTPAddr returns the bound API listener address (nil when disabled).
func (s *Server) HTTPAddr() net.Addr {
	if s.httpLn == nil {
		return nil
	}
	return s.httpLn.Addr()
}

// acceptLoop accepts line-protocol connections until the listener closes.
func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed by Shutdown
		}
		s.reg.met.conns.With("tcp").Inc()
		s.reg.met.connsOpen.Add(1)
		s.connMu.Lock()
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

// dropConn unregisters and closes one connection.
func (s *Server) dropConn(conn net.Conn) {
	s.connMu.Lock()
	_, live := s.conns[conn]
	delete(s.conns, conn)
	s.connMu.Unlock()
	if live {
		s.reg.met.connsOpen.Add(-1)
		conn.Close()
	}
}

// handleConn consumes one ingest connection. The first byte negotiates
// the protocol: a columnar frame's magic (0xA9, never the first byte of
// a text line) selects the binary frame loop, anything else the text
// line loop — producers pick a wire by just writing it, no handshake.
func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer s.dropConn(conn)

	defaultSource := hostOf(conn.RemoteAddr())
	if s.cfg.IdleTimeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
	}
	br := bufio.NewReaderSize(conn, 4096)
	first, err := br.Peek(1)
	if err != nil {
		return // closed before the first byte: nothing to serve
	}
	if first[0] == transport.FrameMagic0 {
		s.serveFrames(conn, br, defaultSource)
		return
	}
	s.serveLines(conn, br, defaultSource)
}

// serveLines consumes one text line-protocol connection, handing the
// router every line of each read at once. Lines without a source= field
// are attributed to the peer's host. Malformed lines are counted against
// the connection's budget; exceeding it (checked after each read), the
// line length bound or the idle timeout closes the connection. A closed
// or mid-stream-reset connection is normal fleet behaviour, not an
// error.
func (s *Server) serveLines(conn net.Conn, br *bufio.Reader, defaultSource string) {
	bad := 0
	reject := func(line string, err error) {
		if errors.Is(err, ErrQueueFull) {
			// Drop already counted; in drop mode the producer is not
			// throttled, so keep reading.
			return
		}
		bad++
		s.ev.Warn("ingest_bad_line", obs.Fields{
			"peer":  conn.RemoteAddr().String(),
			"line":  truncate(line, 64),
			"error": err.Error(),
		})
	}
	lr := newLineReader(br, s.cfg.MaxLineBytes)
	for {
		if s.cfg.IdleTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		}
		lines, err := lr.next()
		if err != nil {
			// EOF, reset, eviction by deadline, or an over-long line —
			// all are expected producer behaviour; anything but EOF is
			// surfaced as an event for the curious.
			if errors.Is(err, errLineTooLong) {
				s.reg.countBadLine()
			}
			if !errors.Is(err, io.EOF) {
				s.connEvent(conn, err)
			}
			return
		}
		if _, err := s.router.IngestLines(defaultSource, lines, reject); err != nil {
			return // the registry is closing
		}
		if s.cfg.MaxBadLines >= 0 && bad > s.cfg.MaxBadLines {
			fmt.Fprintf(conn, "ERR too many malformed lines (%d)\n", bad)
			return
		}
	}
}

// errLineTooLong reports a text line longer than MaxLineBytes.
var errLineTooLong = errors.New("ingest: line longer than MaxLineBytes")

// lineReadSize is lineReader's read buffer: one read of a busy
// connection yields a few hundred lines, the batch IngestLines spreads
// over the shards.
const lineReadSize = 16 << 10

// lineReader cuts a text stream into lines, handing out every line one
// read completed at once. Lines lose their "\n" or "\r\n"; a last line
// without a newline counts at EOF. A line longer than max bytes ends the
// stream with errLineTooLong, after the lines before it.
type lineReader struct {
	rd    io.Reader
	max   int
	buf   []byte // buf[:n] is the unfinished line
	n     int
	err   error // sticky: returned once the lines before it are out
	lines []string
}

func newLineReader(rd io.Reader, max int) *lineReader {
	return &lineReader{rd: rd, max: max, buf: make([]byte, lineReadSize)}
}

// next returns the lines of the next read that completed any. The slice
// is reused by the following call.
func (lr *lineReader) next() ([]string, error) {
	for lr.err == nil {
		if lr.n == len(lr.buf) {
			// The unfinished line fills the buffer. It is at most max+1
			// bytes (a longer one has failed below), so max+2 bytes hold
			// it and the next byte.
			buf := make([]byte, min(2*len(lr.buf), lr.max+2))
			copy(buf, lr.buf[:lr.n])
			lr.buf = buf
		}
		m, err := lr.rd.Read(lr.buf[lr.n:])
		lr.err = err
		end := lr.n + m
		cut := bytes.LastIndexByte(lr.buf[lr.n:end], '\n')
		if cut < 0 {
			lr.n = end
			lr.checkUnfinished()
			continue
		}
		cut += lr.n
		text := string(lr.buf[:cut]) // one copy per read; lines share it
		lr.n = copy(lr.buf, lr.buf[cut+1:end])
		lines := lr.split(text)
		lr.checkUnfinished()
		if len(lines) > 0 {
			return lines, nil
		}
	}
	if lr.n > 0 && errors.Is(lr.err, io.EOF) {
		// The stream ended cleanly inside a line: that is the last line.
		// A reset or timeout mid-line drops it instead.
		text := string(lr.buf[:lr.n])
		lr.n = 0
		if lines := lr.split(text); len(lines) > 0 {
			return lines, nil
		}
	}
	return nil, lr.err
}

// checkUnfinished fails the stream once the unfinished line is longer
// than max bytes plus a possible '\r'.
func (lr *lineReader) checkUnfinished() {
	if lr.n > lr.max+1 {
		lr.n, lr.err = 0, errLineTooLong
	}
}

// split cuts text into lines, stopping at the first over-long one.
func (lr *lineReader) split(text string) []string {
	lr.lines = lr.lines[:0]
	for more := true; more; {
		var line string
		line, text, more = strings.Cut(text, "\n")
		line = strings.TrimSuffix(line, "\r")
		if len(line) > lr.max {
			lr.n, lr.err = 0, errLineTooLong
			break
		}
		lr.lines = append(lr.lines, line)
	}
	return lr.lines
}

// serveFrames consumes one binary frame-protocol connection. Each frame
// is read whole (bounded by MaxLineBytes, like a text line), decoded
// zero-copy into a pooled ColumnarBatch and handed to the registry as
// one unit. A frame that fails its CRC or its syntax is rejected whole
// and counted by reason against the malformed budget — the length
// framing already consumed it, so the stream continues at the next
// frame boundary. Losing the magic (desync) or an over-long frame
// poisons the connection: with length-prefixed framing there is nothing
// to resync on.
func (s *Server) serveFrames(conn net.Conn, br *bufio.Reader, defaultSource string) {
	var buf []byte
	bad := 0
	// Per-connection source-id intern: producers repeat one id frame
	// after frame; re-use the last string instead of re-allocating it.
	var lastSrc string
	intern := func(raw []byte) string {
		if string(raw) != lastSrc { // alloc-free comparison
			lastSrc = string(raw)
		}
		return lastSrc
	}
	for {
		if s.cfg.IdleTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		}
		frame, err := transport.ReadFrame(br, buf, s.cfg.MaxLineBytes)
		if err != nil {
			switch {
			case errors.Is(err, io.EOF):
			case errors.Is(err, transport.ErrFrameTooLarge):
				s.reg.rejectFrame("too_large")
				s.connEvent(conn, err)
			case errors.Is(err, transport.ErrNotFrame), errors.Is(err, transport.ErrBadFrame):
				s.reg.rejectFrame("desync")
				s.connEvent(conn, err)
			default:
				// Read error, reset, eviction by deadline — expected
				// producer behaviour, surfaced for the curious.
				s.connEvent(conn, err)
			}
			return
		}
		buf = frame
		cb := transport.AcquireColumnarBatch()
		if derr := transport.DecodeFrame(frame, cb, intern); derr != nil {
			cb.Release()
			reason := "malformed"
			if errors.Is(derr, transport.ErrFrameCRC) {
				reason = "crc"
			}
			s.reg.rejectFrame(reason)
			bad++
			s.ev.Warn("ingest_bad_frame", obs.Fields{
				"peer": conn.RemoteAddr().String(), "reason": reason, "error": derr.Error(),
			})
			if s.cfg.MaxBadLines >= 0 && bad > s.cfg.MaxBadLines {
				return
			}
			continue
		}
		if cb.Source == "" {
			cb.Source = defaultSource
		}
		switch err := s.router.IngestColumns(cb); {
		case err == nil:
		case errors.Is(err, ErrClosed):
			return
		case errors.Is(err, ErrQueueFull):
			// Drop already counted; in drop mode the producer is not
			// throttled, so keep reading.
		default:
			// Bad source id or non-finite sample smuggled through a
			// float64 column: the frame was well-formed on the wire but
			// unacceptable as data.
			s.reg.rejectFrame("bad_sample")
			bad++
			s.ev.Warn("ingest_bad_frame", obs.Fields{
				"peer": conn.RemoteAddr().String(), "reason": "bad_sample", "error": err.Error(),
			})
			if s.cfg.MaxBadLines >= 0 && bad > s.cfg.MaxBadLines {
				return
			}
		}
	}
}

// connEvent reports one connection-terminating condition (unless the
// server is draining, when closed connections are the plan).
func (s *Server) connEvent(conn net.Conn, err error) {
	if s.stopping.Load() {
		return
	}
	s.ev.Info("ingest_conn_error", obs.Fields{
		"peer": conn.RemoteAddr().String(), "error": err.Error(),
	})
}

// hostOf extracts the host part of a peer address — the stable identity
// across reconnects (ports churn).
func hostOf(addr net.Addr) string {
	if addr == nil {
		return "unknown"
	}
	host, _, err := net.SplitHostPort(addr.String())
	if err != nil || host == "" {
		return addr.String()
	}
	return host
}

// truncate bounds wire-controlled content before it lands in an event.
func truncate(s string, max int) string {
	if len(s) > max {
		return s[:max] + "..."
	}
	return s
}

// Handler returns the HTTP API:
//
//	POST /ingest[?source=ID]        wire lines in the request body
//	GET  /api/sources               every source's status
//	GET  /api/sources/{id}/status   one source's status
//	GET  /api/alerts[?n=N]          most recent alerts, oldest first
//	GET  /api/shards                per-shard accounting
//	GET  /api/trace/export          sampled spans, Chrome/Perfetto JSON
//	GET  /api/trace/{source}        one source's flight-recorder tail
//	GET  /metrics, /healthz         telemetry (plus /debug/pprof opt-in)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", s.handleIngest)
	mux.HandleFunc("GET /api/sources", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]any{"sources": s.reg.Sources()})
	})
	mux.HandleFunc("GET /api/sources/{id}/status", func(w http.ResponseWriter, r *http.Request) {
		st, ok := s.reg.Source(r.PathValue("id"))
		if !ok {
			http.Error(w, "unknown source", http.StatusNotFound)
			return
		}
		writeJSON(w, st)
	})
	mux.HandleFunc("GET /api/alerts", func(w http.ResponseWriter, r *http.Request) {
		n := 0
		if q := r.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 0 {
				http.Error(w, "bad n", http.StatusBadRequest)
				return
			}
			n = v
		}
		writeJSON(w, map[string]any{
			"total":  s.reg.Alerts().Total(),
			"alerts": s.reg.Alerts().Recent(n),
		})
	})
	mux.HandleFunc("GET /api/shards", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]any{"shards": s.reg.ShardStats()})
	})
	// The literal route wins over the {source} wildcard, so a source
	// cannot shadow the export endpoint (ids can't contain '/').
	mux.HandleFunc("GET /api/trace/export", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = s.reg.Tracer().WriteChromeTrace(w)
	})
	mux.HandleFunc("GET /api/trace/{source}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("source")
		recs, err := s.reg.FlightRecords(id)
		if err != nil {
			http.Error(w, "unknown source", http.StatusNotFound)
			return
		}
		writeJSON(w, map[string]any{
			"source":  id,
			"depth":   len(recs),
			"records": recs,
		})
	})
	for _, m := range s.mounts {
		mux.Handle(m.pattern, m.handler)
	}
	obsH := obs.NewHandler(s.cfg.Registry.Obs, obs.HandlerConfig{
		EnablePprof: s.cfg.EnablePprof,
		Health:      s.health,
	})
	mux.Handle("/metrics", obsH)
	mux.Handle("/healthz", obsH)
	if s.cfg.EnablePprof {
		mux.Handle("/debug/pprof/", obsH)
	}
	return mux
}

// health feeds /healthz: draining and stalled shards are the unhealthy
// states.
func (s *Server) health() error {
	if s.stopping.Load() {
		return errors.New("draining")
	}
	if n := s.stalledShards.Load(); n > 0 {
		return fmt.Errorf("stalled: %d shard(s) not draining", n)
	}
	return nil
}

// handleIngest consumes wire lines from a POST body, read by read. The
// default source for source-less lines is ?source=, else the peer host.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	s.reg.met.conns.With("http").Inc()
	defaultSource := r.URL.Query().Get("source")
	if defaultSource == "" {
		defaultSource = hostOf(addrOf(r))
	} else if err := validSource(defaultSource); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	accepted, rejected := 0, 0
	reject := func(string, error) { rejected++ }
	lr := newLineReader(r.Body, s.cfg.MaxLineBytes)
	for {
		lines, err := lr.next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			if errors.Is(err, errLineTooLong) {
				s.reg.countBadLine()
			}
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		n, err := s.router.IngestLines(defaultSource, lines, reject)
		accepted += n
		if err != nil {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
	}
	status := http.StatusOK
	if accepted == 0 && rejected > 0 {
		status = http.StatusBadRequest
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]int{
		"accepted": accepted, "rejected": rejected,
	})
}

// addrOf recovers the peer address of an HTTP request.
func addrOf(r *http.Request) net.Addr {
	if r.RemoteAddr == "" {
		return nil
	}
	return strAddr(r.RemoteAddr)
}

// strAddr adapts a pre-formatted address string to net.Addr.
type strAddr string

func (a strAddr) Network() string { return "tcp" }
func (a strAddr) String() string  { return string(a) }

// writeJSON writes one JSON response.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// SaveSnapshot persists every source's monitor state to
// cfg.SnapshotPath (periodic saves run through the same manager).
func (s *Server) SaveSnapshot() error {
	return s.snap.Flush()
}

// Shutdown drains gracefully: stop accepting, close the transports,
// drain every queued sample into its monitor, write the final snapshot,
// and stop the API server. Safe to call once; ctx bounds the HTTP
// server's drain.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	s.stopOnce.Do(func() {
		s.stopping.Store(true)
		if s.stallc != nil {
			close(s.stallc)
		}
		if s.tcpLn != nil {
			s.tcpLn.Close()
		}
		// Producers are one-way writers: a graceful drain cannot wait for
		// them to hang up, so close their connections. Whatever their
		// kernels had buffered is lost — the snapshot records a sample
		// boundary, which is all restart-resume needs.
		s.connMu.Lock()
		conns := make([]net.Conn, 0, len(s.conns))
		for c := range s.conns {
			conns = append(conns, c)
		}
		s.connMu.Unlock()
		for _, c := range conns {
			s.dropConn(c)
		}
		var errs []error
		if cerr := s.reg.Close(); cerr != nil {
			errs = append(errs, cerr)
		}
		// Stop the periodic loop and capture the post-drain state in one
		// step — Stop alone would discard everything consumed since the
		// last periodic save.
		if serr := s.snap.StopAndFlush(); serr != nil {
			errs = append(errs, serr)
		}
		if s.httpSrv != nil {
			if herr := s.httpSrv.Shutdown(ctx); herr != nil {
				errs = append(errs, herr)
			}
		}
		s.wg.Wait()
		err = errors.Join(errs...)
	})
	return err
}
