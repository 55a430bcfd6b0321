package ingest

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"agingmf/internal/control"
	"agingmf/internal/obs"
)

// startTestServer boots a server on loopback ephemeral ports.
func startTestServer(t *testing.T, mutate func(*ServerConfig)) *Server {
	t.Helper()
	cfg := ServerConfig{
		Registry: Config{Shards: 2, Monitor: testMonitorConfig()},
		TCPAddr:  "127.0.0.1:0",
		HTTPAddr: "127.0.0.1:0",
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv
}

// waitAccepted polls until the registry has consumed want samples.
func waitAccepted(t *testing.T, reg *Registry, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for reg.Accepted() < want {
		if time.Now().After(deadline) {
			t.Fatalf("accepted %d, want %d", reg.Accepted(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestServerTCPIngest(t *testing.T) {
	srv := startTestServer(t, nil)
	conn, err := net.Dial("tcp", srv.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "source=web-01 1e9 0\n")
	fmt.Fprintf(conn, "source=web-01 9.9e8 1e6\n")
	fmt.Fprintf(conn, "# keep-alive\n\n")
	fmt.Fprintf(conn, "1e8 5e6\n") // source-less: keyed by peer host
	waitAccepted(t, srv.Registry(), 3)

	st, ok := srv.Registry().Source("web-01")
	if !ok || st.Samples != 2 || st.LastFree != 9.9e8 || st.LastSwap != 1e6 {
		t.Errorf("web-01 status: ok=%v %+v", ok, st)
	}
	if st, ok := srv.Registry().Source("127.0.0.1"); !ok || st.Samples != 1 {
		t.Errorf("peer-keyed status: ok=%v %+v", ok, st)
	}
}

func TestServerTCPBadLineBudget(t *testing.T) {
	srv := startTestServer(t, func(c *ServerConfig) { c.MaxBadLines = 2 })
	conn, err := net.Dial("tcp", srv.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 5; i++ {
		fmt.Fprintf(conn, "garbage line %d\n", i)
	}
	// Past the budget the server says why and hangs up.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	reply, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("no error reply before close: %v", err)
	}
	if !strings.Contains(reply, "malformed") {
		t.Errorf("reply = %q", reply)
	}
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Error("connection still open past the bad-line budget")
	}
	if srv.Registry().BadLines() < 3 {
		t.Errorf("bad lines = %d, want >= 3", srv.Registry().BadLines())
	}
}

func TestServerHTTPIngestAndAPI(t *testing.T) {
	srv := startTestServer(t, nil)
	base := "http://" + srv.HTTPAddr().String()

	body := "source=db-1 1e9 0\nsource=db-1 9e8 1e5\nsource=db-2 5e8 0\nbogus\n"
	resp, err := http.Post(base+"/ingest", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var counts map[string]int
	if err := json.NewDecoder(resp.Body).Decode(&counts); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || counts["accepted"] != 3 || counts["rejected"] != 1 {
		t.Errorf("POST /ingest: status %d counts %v", resp.StatusCode, counts)
	}
	waitAccepted(t, srv.Registry(), 3)

	// ?source= keys source-less lines.
	resp, err = http.Post(base+"/ingest?source=relay-9", "text/plain", strings.NewReader("1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitAccepted(t, srv.Registry(), 4)

	var list struct {
		Sources []SourceStatus `json:"sources"`
	}
	getJSON(t, base+"/api/sources", &list)
	if len(list.Sources) != 3 {
		t.Fatalf("GET /api/sources returned %d sources: %+v", len(list.Sources), list)
	}

	var st SourceStatus
	getJSON(t, base+"/api/sources/db-1/status", &st)
	if st.ID != "db-1" || st.Samples != 2 {
		t.Errorf("GET status = %+v", st)
	}
	if resp, err := http.Get(base + "/api/sources/nope/status"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown source: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}

	var shards struct {
		Shards []ShardStat `json:"shards"`
	}
	getJSON(t, base+"/api/shards", &shards)
	var sum uint64
	for _, s := range shards.Shards {
		sum += s.Accepted
	}
	if len(shards.Shards) != 2 || sum != 4 {
		t.Errorf("GET /api/shards = %+v (sum %d)", shards.Shards, sum)
	}

	var alerts struct {
		Total  uint64          `json:"total"`
		Alerts []control.Alert `json:"alerts"`
	}
	getJSON(t, base+"/api/alerts", &alerts)
	if alerts.Total != uint64(len(alerts.Alerts)) {
		t.Errorf("GET /api/alerts = %+v", alerts)
	}
	if resp, err := http.Get(base + "/api/alerts?n=bogus"); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad n: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}

	// Telemetry endpoints ride the same listener.
	for _, path := range []string{"/metrics", "/healthz"} {
		resp, err := http.Get(base + path)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: %v %v", path, resp, err)
		}
		if resp != nil {
			resp.Body.Close()
		}
	}
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

func TestServerMetricsExposition(t *testing.T) {
	srv := startTestServer(t, func(c *ServerConfig) {
		c.Registry.Obs = obs.NewRegistry()
	})
	conn, err := net.Dial("tcp", srv.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "source=m 1 2\n")
	conn.Close()
	waitAccepted(t, srv.Registry(), 1)

	resp, err := http.Get("http://" + srv.HTTPAddr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, family := range []string{
		metricSamples, metricSources, metricConns, metricQueueDepth,
	} {
		if !strings.Contains(text, family) {
			t.Errorf("/metrics missing %s", family)
		}
	}
}

// TestServerShutdownSnapshotRestart is the kill-and-resume integration
// path at the package level: feed a server, shut it down (final snapshot),
// then boot a second server on the same snapshot file and verify every
// source resumed with its exact monitor state.
func TestServerShutdownSnapshotRestart(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "agingd.snap")
	tr := testTrace(3, 80)

	srv1 := startTestServer(t, func(c *ServerConfig) { c.SnapshotPath = snap })
	conn, err := net.Dial("tcp", srv1.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(conn)
	for _, s := range tr[:40] {
		fmt.Fprintf(w, "source=m %v %v\nsource=other 1 2\n", s[0], s[1])
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitAccepted(t, srv1.Registry(), 80)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	srv2 := startTestServer(t, func(c *ServerConfig) { c.SnapshotPath = snap })
	if n := srv2.Registry().NumSources(); n != 2 {
		t.Fatalf("restarted server resumed %d sources, want 2", n)
	}
	if st, ok := srv2.Registry().Source("m"); !ok || st.Samples != 40 {
		t.Fatalf("restored m status: ok=%v %+v", ok, st)
	}
	conn, err = net.Dial("tcp", srv2.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	w = bufio.NewWriter(conn)
	for _, s := range tr[40:] {
		fmt.Fprintf(w, "source=m %v %v\n", s[0], s[1])
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitAccepted(t, srv2.Registry(), 40)

	got, err := srv2.Registry().MonitorState("m")
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceState(t, srv2.Registry().Config().Monitor, tr); !bytes.Equal(got, want) {
		t.Error("kill+restart state differs from uninterrupted single-process run")
	}
}

func TestServerStartErrors(t *testing.T) {
	srv := startTestServer(t, nil)
	if err := srv.Start(); err == nil {
		t.Error("double Start accepted")
	}
	// A taken address must fail cleanly.
	bad, err := NewServer(ServerConfig{
		Registry: Config{Monitor: testMonitorConfig()},
		TCPAddr:  srv.TCPAddr().String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.Start(); err == nil {
		t.Error("Start on a taken port succeeded")
	}
	_ = bad.Registry().Close()
}
