package ingest

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
)

func TestParseBatchFormats(t *testing.T) {
	cases := []struct {
		name string
		line string
		want Batch
	}{
		{"sourced", "batch;source=web-01;1e6 2048;2e6 4096", Batch{
			Source: "web-01",
			Pairs:  [][2]float64{{1e6, 2048}, {2e6, 4096}},
		}},
		{"anonymous", "batch;1e6 2048", Batch{
			Pairs: [][2]float64{{1e6, 2048}},
		}},
		{"padded", "  batch;source=db/2;1 2;3 4  ", Batch{
			Source: "db/2",
			Pairs:  [][2]float64{{1, 2}, {3, 4}},
		}},
		{"inner spaces", "batch;  1   2 ;3 4", Batch{
			Pairs: [][2]float64{{1, 2}, {3, 4}},
		}},
		{"negative", "batch;-1 -2", Batch{
			Pairs: [][2]float64{{-1, -2}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ParseBatch(tc.line)
			if err != nil {
				t.Fatalf("ParseBatch(%q): %v", tc.line, err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("ParseBatch(%q) = %+v, want %+v", tc.line, got, tc.want)
			}
			if !IsBatchLine(tc.line) {
				t.Errorf("IsBatchLine(%q) = false", tc.line)
			}
		})
	}
	if IsBatchLine("1e6 2048") {
		t.Error("IsBatchLine accepted a plain sample line")
	}
}

// TestParseBatchRejects: a batch with any bad segment must be rejected
// whole, never half-ingested.
func TestParseBatchRejects(t *testing.T) {
	lines := []string{
		"1e6 2048",             // no prefix
		"batch;",               // no pairs
		"batch;source=web-01",  // source, no pairs
		"batch;source=web-01;", // trailing ; still yields an empty segment
		"batch;source= 1 2",    // empty source
		"batch;source=ctl\x01chr;1 2",
		"batch;1 2;3",      // odd segment
		"batch;1 2 3;4 5",  // three fields
		"batch;1 2;;3 4",   // empty middle segment
		"batch;NaN 2",      // non-finite
		"batch;1 +Inf;3 4", // non-finite later segment
		"batch;1e309 0",    // overflow
		"batch;free swap",  // non-numeric
	}
	for _, line := range lines {
		if b, err := ParseBatch(line); err == nil {
			t.Errorf("ParseBatch(%q) accepted: %+v", line, b)
		} else if !errors.Is(err, ErrBadLine) {
			t.Errorf("ParseBatch(%q) error %v is not ErrBadLine", line, err)
		}
	}
}

func TestFormatBatchRoundTrip(t *testing.T) {
	batches := []Batch{
		{Pairs: [][2]float64{{1e6, 2048}}},
		{Source: "web-01", Pairs: [][2]float64{{3.5e9, 0}, {-1.5, math.MaxFloat64}}},
		{Source: "db/2", Pairs: [][2]float64{{0, 0}, {1, 2}, {3, 4}}},
	}
	for _, want := range batches {
		got, err := ParseBatch(FormatBatch(want))
		if err != nil {
			t.Fatalf("round trip of %+v: %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip of %+v: got %+v (line %q)", want, got, FormatBatch(want))
		}
	}
	if s := FormatBatch(Batch{Source: "x"}); s != "" {
		t.Errorf("FormatBatch of empty batch = %q, want \"\"", s)
	}
}

// FuzzParseBatch mirrors FuzzParseLine for the batched form: no panics,
// no non-finite values, lossless canonical round trip.
func FuzzParseBatch(f *testing.F) {
	for _, seed := range []string{
		"batch;source=web-01;1e6 2048;2e6 4096",
		"batch;1 2",
		"batch;1 2;;3 4",
		"batch;source=a,b;1 2",
		"batch;NaN 0",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		b, err := ParseBatch(line)
		if err != nil {
			if !errors.Is(err, ErrBadLine) {
				t.Fatalf("ParseBatch(%q) error %v is not ErrBadLine", line, err)
			}
			return
		}
		for _, p := range b.Pairs {
			for _, v := range p {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("ParseBatch(%q) accepted non-finite %v", line, v)
				}
			}
		}
		rt, err := ParseBatch(FormatBatch(b))
		if err != nil {
			t.Fatalf("FormatBatch(%+v) does not re-parse: %v", b, err)
		}
		if !reflect.DeepEqual(rt, b) {
			t.Fatalf("round trip of %q: got %+v, want %+v", line, rt, b)
		}
	})
}

// TestIngestBatchValidation covers a multi-sample unit's way in: a batch
// with no source of its own and no default is refused with ErrNoSource,
// one under a bad id with ErrBadLine, one with a non-finite value past
// the first with ErrBadSample, an empty column batch is a no-op, and
// after Close a batch is refused with ErrClosed and all its samples are
// counted as dropped.
func TestIngestBatchValidation(t *testing.T) {
	r, err := NewRegistry(Config{Monitor: testMonitorConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := ingestLine(r, "", "batch;1 2"); !errors.Is(err, ErrNoSource) {
		t.Errorf("sourceless batch: err = %v, want ErrNoSource", err)
	}
	if err := ingestLine(r, "bad peer", "batch;1 2;3 4"); !errors.Is(err, ErrBadLine) {
		t.Errorf("batch under an invalid default source: err = %v, want ErrBadLine", err)
	}
	if err := r.IngestColumns(columnBatch("a", [][2]float64{{1, 2}, {math.NaN(), 0}})); !errors.Is(err, ErrBadSample) {
		t.Errorf("non-finite batch: err = %v, want ErrBadSample", err)
	}
	if err := r.IngestColumns(columnBatch("a", nil)); err != nil {
		t.Errorf("empty batch: err = %v, want nil no-op", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if got := r.Accepted(); got != 0 {
		t.Errorf("accepted = %d after only rejected batches", got)
	}
	if err := ingestLine(r, "peer", "batch;source=a;1 2;3 4"); !errors.Is(err, ErrClosed) {
		t.Errorf("batch after close: err = %v, want ErrClosed", err)
	}
	if got := r.Dropped(); got != 2 {
		t.Errorf("dropped = %d after a 2-pair batch hit a closed registry, want 2", got)
	}
}

// TestRegistryBatchParity feeds the same traces as batch; wire lines of
// mixed sizes and as one whole-trace batch line through IngestLines; both
// registries must hold monitor state byte-identical to the per-sample
// reference, with exact sample accounting.
func TestRegistryBatchParity(t *testing.T) {
	const nSources, nSamples = 6, 240
	cfg := testMonitorConfig()
	traces := make([][][2]float64, nSources)
	for i := range traces {
		traces[i] = testTrace(i, nSamples)
	}

	feed := func(t *testing.T, feedOne func(r *Registry, id string, tr [][2]float64) error) *Registry {
		t.Helper()
		r, err := NewRegistry(Config{Shards: 2, Monitor: cfg})
		if err != nil {
			t.Fatal(err)
		}
		for i, tr := range traces {
			if err := feedOne(r, fmt.Sprintf("src-%03d", i), tr); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		return r
	}

	chunks := []int{1, 7, 64, 500} // 500 > trace length: whole-trace batch
	batched := feed(t, func(r *Registry, id string, tr [][2]float64) error {
		ci := 0
		for off := 0; off < len(tr); {
			n := chunks[ci%len(chunks)]
			ci++
			if off+n > len(tr) {
				n = len(tr) - off
			}
			if err := ingestLine(r, "fallback", FormatBatch(Batch{Source: id, Pairs: tr[off : off+n]})); err != nil {
				return err
			}
			off += n
		}
		return nil
	})
	lined := feed(t, func(r *Registry, id string, tr [][2]float64) error {
		return ingestLine(r, "fallback", FormatBatch(Batch{Source: id, Pairs: tr}))
	})

	for _, r := range []*Registry{batched, lined} {
		if got, want := r.Accepted(), uint64(nSources*nSamples); got != want {
			t.Errorf("accepted = %d, want %d", got, want)
		}
		if r.Dropped() != 0 {
			t.Errorf("dropped = %d, want 0", r.Dropped())
		}
	}
	for i, tr := range traces {
		id := fmt.Sprintf("src-%03d", i)
		want := referenceState(t, cfg, tr)
		for name, r := range map[string]*Registry{"chunked": batched, "whole": lined} {
			got, err := r.MonitorState(id)
			if err != nil {
				t.Fatalf("%s state %s: %v", name, id, err)
			}
			if string(got) != string(want) {
				t.Errorf("%s: source %s diverged from per-sample reference", name, id)
			}
		}
		st, ok := batched.Source(id)
		if !ok || st.Samples != int64(nSamples) {
			t.Errorf("source %s status samples = %d, want %d", id, st.Samples, nSamples)
		}
	}
}
