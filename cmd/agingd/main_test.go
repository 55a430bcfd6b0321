package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// syncBuf is a goroutine-safe stdout sink for a daemon under test.
type syncBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// waitPrefix polls the daemon's stdout for a line with the given prefix
// and returns the rest of that line.
func waitPrefix(t *testing.T, buf *syncBuf, prefix string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, line := range strings.Split(buf.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				return strings.TrimSpace(rest)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("daemon never printed %q; output so far:\n%s", prefix, buf.String())
	return ""
}

// TestSelfTestMode runs the daemon's built-in end-to-end verification:
// simulated machines through the real socket, zero loss, monitor parity.
func TestSelfTestMode(t *testing.T) {
	var buf syncBuf
	err := run([]string{
		"-listen", "127.0.0.1:0", "-http", "",
		"-selftest", "-selftest-sources", "48", "-selftest-samples", "32",
		"-selftest-conns", "7", "-seed", "3",
	}, &buf)
	if err != nil {
		t.Fatalf("selftest failed: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "selftest: PASS") {
		t.Errorf("no PASS verdict:\n%s", buf.String())
	}
}

// TestSelfTestBinaryMode runs the binary-wire twin of the self-test at a
// small size: columnar frames through the real socket, zero loss, zero
// rejects and row-path parity.
func TestSelfTestBinaryMode(t *testing.T) {
	var buf syncBuf
	err := run([]string{
		"-listen", "127.0.0.1:0", "-http", "",
		"-selftest-binary", "-selftest-binary-sources", "2",
		"-selftest-binary-samples", "16384", "-seed", "5",
	}, &buf)
	if err != nil {
		t.Fatalf("binary selftest failed: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "selftest-binary: PASS") {
		t.Errorf("no PASS verdict:\n%s", out)
	}
	if !strings.Contains(out, " 0 parity mismatches") {
		t.Errorf("parity mismatches reported:\n%s", out)
	}
}

// TestSelfTestModeTraced runs the same verification with the pipeline
// tracer and flight recorder on: parity must hold on the annotated path,
// every source's recorder tail must match the wire trace, and the live
// /api/trace/export endpoint must serve valid Perfetto JSON.
func TestSelfTestModeTraced(t *testing.T) {
	var buf syncBuf
	err := run([]string{
		"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0",
		"-trace-sample", "1/16", "-flight-recorder-depth", "32",
		"-selftest", "-selftest-sources", "24", "-selftest-samples", "48",
		"-selftest-conns", "5", "-seed", "11",
	}, &buf)
	if err != nil {
		t.Fatalf("traced selftest failed: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "selftest: PASS") {
		t.Errorf("no PASS verdict:\n%s", out)
	}
	if !strings.Contains(out, "trace export ok") {
		t.Errorf("no trace export verification:\n%s", out)
	}
	if strings.Contains(out, " 0 trace spans") {
		t.Errorf("tracer recorded nothing:\n%s", out)
	}
}

// TestSelfTestWithRejuvenation runs the end-to-end verification with the
// rejuvenation controller live on the alert bus: the controller (dry-run
// actuation) must not perturb ingestion, parity or the PASS verdict.
func TestSelfTestWithRejuvenation(t *testing.T) {
	var buf syncBuf
	err := run([]string{
		"-listen", "127.0.0.1:0", "-http", "",
		"-rejuv-policy", "phase:aging-onset:8",
		"-selftest", "-selftest-sources", "24", "-selftest-samples", "48",
		"-selftest-conns", "5", "-seed", "3",
	}, &buf)
	if err != nil {
		t.Fatalf("selftest with rejuvenation failed: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "selftest: PASS") {
		t.Errorf("no PASS verdict:\n%s", out)
	}
	if !strings.Contains(out, "rejuvenation: policy phase:aging-onset:8") {
		t.Errorf("controller banner missing:\n%s", out)
	}
}

// sourceStatus polls the daemon's HTTP API for one source's sample count.
func sourceSamples(t *testing.T, api, id string) (int64, bool) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s/api/sources/%s/status", api, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, false
	}
	var st struct {
		Samples int64 `json:"samples"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.Samples, true
}

func waitSamples(t *testing.T, api, id string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if n, ok := sourceSamples(t, api, id); ok && n >= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("source %s never reached %d samples", id, want)
}

// TestInterruptRestartResumes is the daemon-level crash-recovery test:
// feed a daemon, kill it with SIGINT (graceful drain + final snapshot),
// restart it on the same snapshot file, and verify every source resumes
// exactly where its monitor stopped.
func TestInterruptRestartResumes(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "agingd.snap")

	daemon := func() (*syncBuf, chan error, string, string) {
		var buf syncBuf
		errc := make(chan error, 1)
		go func() {
			errc <- run([]string{
				"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0",
				"-snapshot", snap, "-history-limit", "128",
			}, &buf)
		}()
		tcp := waitPrefix(t, &buf, "ingest: tcp://")
		api := waitPrefix(t, &buf, "api: http://")
		api = strings.TrimSuffix(api, "/api/sources")
		// -history-limit is deprecated: accepted, ignored, warned once.
		if n := strings.Count(buf.String(), "-history-limit is deprecated and ignored"); n != 1 {
			t.Errorf("-history-limit warning printed %d times, want once", n)
		}
		return &buf, errc, tcp, api
	}
	feed := func(tcp string, from, to int) {
		conn, err := net.Dial("tcp", tcp)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		w := bufio.NewWriter(conn)
		for i := from; i < to; i++ {
			fmt.Fprintf(w, "source=m %d %d\nsource=n %d 0\n", 1_000_000-i, i, 2_000_000-i)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	interrupt := func(buf *syncBuf, errc chan error) {
		// The daemon installs its handler before blocking on the signal
		// channel; both addresses printing means setup is done.
		if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("daemon exit: %v\n%s", err, buf.String())
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("daemon did not drain on SIGINT:\n%s", buf.String())
		}
		if !strings.Contains(buf.String(), "drained:") {
			t.Errorf("no drain report:\n%s", buf.String())
		}
	}

	buf1, errc1, tcp1, api1 := daemon()
	feed(tcp1, 0, 50)
	waitSamples(t, api1, "m", 50)
	waitSamples(t, api1, "n", 50)
	time.Sleep(20 * time.Millisecond) // let the daemon reach its signal wait
	interrupt(buf1, errc1)

	buf2, errc2, tcp2, api2 := daemon()
	if rest := waitPrefix(t, buf2, "restored "); !strings.HasPrefix(rest, "2 sources") {
		t.Errorf("restart restored %q, want 2 sources", rest)
	}
	if n, ok := sourceSamples(t, api2, "m"); !ok || n != 50 {
		t.Errorf("source m resumed at %d samples (ok=%v), want 50", n, ok)
	}
	if n, ok := sourceSamples(t, api2, "n"); !ok || n != 50 {
		t.Errorf("source n resumed at %d samples (ok=%v), want 50", n, ok)
	}
	feed(tcp2, 50, 80)
	waitSamples(t, api2, "m", 80)
	time.Sleep(20 * time.Millisecond)
	interrupt(buf2, errc2)
}

// TestClusterSelfTestSmoke runs the daemon's in-process cluster
// verification small: 3 nodes, kill/restart/rebalance churn, zero loss
// and oracle parity.
func TestClusterSelfTestSmoke(t *testing.T) {
	var buf syncBuf
	err := run([]string{
		"-selftest-cluster",
		"-selftest-cluster-sources", "300",
		"-selftest-cluster-samples", "9",
		"-seed", "5",
	}, &buf)
	if err != nil {
		t.Fatalf("cluster selftest failed: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "cluster selftest: PASS") {
		t.Errorf("no PASS verdict:\n%s", buf.String())
	}
}

// freeAddr reserves a loopback address a daemon can be told to advertise
// before its listener exists.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// TestClusterDaemonsRouteOverHTTP stands up two real daemons joined via
// -cluster-addr/-cluster-peers and verifies the wired path end to end:
// lines fed to one daemon's TCP socket land on each source's ring owner
// (forwarded over the /cluster/* HTTP protocol), every source is held by
// exactly one node, and /api/cluster reports a healthy membership.
func TestClusterDaemonsRouteOverHTTP(t *testing.T) {
	addrA, addrB := freeAddr(t), freeAddr(t)

	daemon := func(self, peer string) (*syncBuf, chan error, string) {
		var buf syncBuf
		errc := make(chan error, 1)
		go func() {
			errc <- run([]string{
				"-listen", "127.0.0.1:0", "-http", self,
				"-cluster-addr", self, "-cluster-peers", peer,
			}, &buf)
		}()
		tcp := waitPrefix(t, &buf, "ingest: tcp://")
		waitPrefix(t, &buf, "cluster: node")
		return &buf, errc, tcp
	}
	bufA, errcA, tcpA := daemon(addrA, addrB)
	bufB, errcB, _ := daemon(addrB, addrA)

	// Feed every line through daemon A: sources owned by B must be
	// forwarded, not double-counted.
	const sources, perSource = 16, 5
	conn, err := net.Dial("tcp", tcpA)
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(conn)
	for k := 0; k < perSource; k++ {
		for i := 0; i < sources; i++ {
			fmt.Fprintf(w, "source=cl-%02d %d %d\n", i, 5_000_000-i*1000-k, k)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	onB := 0
	for i := 0; i < sources; i++ {
		id := fmt.Sprintf("cl-%02d", i)
		deadline := time.Now().Add(15 * time.Second)
		for {
			na, oka := sourceSamples(t, addrA, id)
			nb, okb := sourceSamples(t, addrB, id)
			if oka && na == perSource && !okb {
				break
			}
			if okb && nb == perSource && !oka {
				onB++
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("source %s never settled on one owner: A(%d,%v) B(%d,%v)\nA:\n%s\nB:\n%s",
					id, na, oka, nb, okb, bufA.String(), bufB.String())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	if onB == 0 || onB == sources {
		dump := func(addr string) string {
			resp, err := http.Get("http://" + addr + "/api/cluster")
			if err != nil {
				return err.Error()
			}
			defer resp.Body.Close()
			b := new(strings.Builder)
			_, _ = fmt.Fprintf(b, "%d: ", resp.StatusCode)
			_, _ = io.Copy(b, resp.Body)
			return b.String()
		}
		t.Errorf("ownership never split across the ring: %d/%d on B\nA status: %s\nB status: %s",
			onB, sources, dump(addrA), dump(addrB))
	}

	// The status document must show both members and count the forwards.
	resp, err := http.Get("http://" + addrA + "/api/cluster")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Members  []struct{ Name string } `json:"members"`
		Forwards uint64                  `json:"forwards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(st.Members) != 2 {
		t.Errorf("/api/cluster reports %d members, want 2", len(st.Members))
	}
	if st.Forwards == 0 {
		t.Error("/api/cluster reports zero forwards after cross-owner ingest")
	}

	time.Sleep(20 * time.Millisecond) // let both daemons reach their signal wait
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	for _, d := range []struct {
		buf  *syncBuf
		errc chan error
	}{{bufA, errcA}, {bufB, errcB}} {
		select {
		case err := <-d.errc:
			if err != nil {
				t.Fatalf("daemon exit: %v\n%s", err, d.buf.String())
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("daemon did not drain on SIGINT:\n%s", d.buf.String())
		}
	}
}

// TestBadFlags keeps flag parsing honest.
func TestBadFlags(t *testing.T) {
	var buf syncBuf
	if err := run([]string{"-definitely-not-a-flag"}, &buf); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"-shards", "0", "-listen", "", "-http", "", "-selftest",
		"-selftest-sources", "2", "-selftest-samples", "4"}, &buf); err == nil {
		t.Error("selftest without a TCP listener succeeded")
	}
}
