package ingest

import (
	"bytes"
	"errors"
	"testing"

	"agingmf/internal/trace"
)

func TestPeekSource(t *testing.T) {
	cases := []struct {
		name, line, want string
	}{
		{"blank", "   ", ""},
		{"comment", "# keep-alive", ""},
		{"plain pair", "1e9 2e8", "dflt"},
		{"csv pair", "1e9,2e8", "dflt"},
		{"tagged", "source=web-01 1e9 2e8", "web-01"},
		{"tagged tab", "source=web-01\t1e9 2e8", "web-01"},
		{"tagged invalid id", "source=a,b 1e9 2e8", "dflt"},
		{"batch tagged", "batch;source=db/2;1 2;3 4", "db/2"},
		{"batch untagged", "batch;1 2;3 4", "dflt"},
		{"batch bad id", "batch;source=has space;1 2", "dflt"},
		{"leading space tagged", "  source=s1 1 2", "s1"},
	}
	for _, c := range cases {
		if got := PeekSource("dflt", c.line); got != c.want {
			t.Errorf("%s: PeekSource(%q) = %q, want %q", c.name, c.line, got, c.want)
		}
	}
	// PeekSource must agree with the real parser on where a sample lands:
	// the id it predicts is the registry the line's samples are counted
	// under.
	r, err := NewRegistry(Config{Shards: 2, QueueSize: 16, Monitor: testMonitorConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, line := range []string{"source=peeked 1e9 2e8", "batch;source=peeked;1e9 2e8;2e9 1e8"} {
		want := PeekSource("dflt", line)
		if err := ingestLine(r, "dflt", line); err != nil {
			t.Fatalf("ingest %q: %v", line, err)
		}
		if err := r.Drain(); err != nil {
			t.Fatal(err)
		}
		if _, ok := r.Source(want); !ok {
			t.Errorf("line %q: parser did not land samples under peeked id %q", line, want)
		}
	}
}

func TestDetachAttachRoundTrip(t *testing.T) {
	r, err := NewRegistry(Config{Shards: 2, QueueSize: 16, Monitor: testMonitorConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 9; i++ {
		if err := r.Ingest(Sample{Source: "mig-1", Free: 1e9 + float64(i)*1e6, Swap: 2e8}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
	before, err := r.MonitorState("mig-1")
	if err != nil {
		t.Fatal(err)
	}

	blob, recs, err := r.DetachSource("mig-1")
	if err != nil {
		t.Fatalf("detach: %v", err)
	}
	if !bytes.Equal(blob, before) {
		t.Fatal("detached state differs from the live monitor state")
	}
	if _, ok := r.Source("mig-1"); ok {
		t.Fatal("detached source still registered")
	}
	if _, _, err := r.DetachSource("mig-1"); !errors.Is(err, ErrUnknownSource) {
		t.Fatalf("double detach: %v, want ErrUnknownSource", err)
	}

	// Re-attach (the migration target side, or a rollback): the monitor
	// resumes exactly where the blob stopped.
	if err := r.AttachSource("mig-1", blob, recs); err != nil {
		t.Fatalf("attach: %v", err)
	}
	st, ok := r.Source("mig-1")
	if !ok || st.Samples != 9 {
		t.Fatalf("attached source: ok=%v samples=%d, want 9", ok, st.Samples)
	}
	after, err := r.MonitorState("mig-1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatal("attach did not restore the monitor byte-for-byte")
	}
	if err := r.AttachSource("mig-1", blob, nil); !errors.Is(err, ErrSourceExists) {
		t.Fatalf("duplicate attach: %v, want ErrSourceExists", err)
	}
}

func TestAttachSourceValidation(t *testing.T) {
	r, err := NewRegistry(Config{Shards: 1, QueueSize: 16, FlightRecorderDepth: 8, Monitor: testMonitorConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.AttachSource("bad id", nil, nil); err == nil {
		t.Fatal("invalid source id accepted")
	}
	if err := r.AttachSource("fresh", nil, nil); err != nil {
		t.Fatalf("fresh attach: %v", err)
	}
	if st, ok := r.Source("fresh"); !ok || st.Samples != 0 {
		t.Fatalf("fresh attach: ok=%v samples=%d, want 0", ok, st.Samples)
	}
	if err := r.AttachSource("hosed", []byte("not a state blob"), nil); err == nil {
		t.Fatal("unrestorable state blob accepted")
	}
	// Attach seeds the flight recorder with the records that travelled in
	// the envelope.
	recs := []trace.Record{{Seq: 1, Free: 1e9, Phase: "baseline"}}
	if err := r.AttachSource("with-tail", nil, recs); err != nil {
		t.Fatal(err)
	}
	if got, err := r.FlightRecords("with-tail"); err != nil || len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("flight recorder not seeded: %+v (%v)", got, err)
	}
}

func TestAttachSourceRespectsCap(t *testing.T) {
	r, err := NewRegistry(Config{Shards: 1, QueueSize: 16, MaxSources: 1, Monitor: testMonitorConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.AttachSource("one", nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.AttachSource("two", nil, nil); err == nil {
		t.Fatal("attach beyond MaxSources accepted")
	}
}
