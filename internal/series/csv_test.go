package series

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestCSVRoundTrip(t *testing.T) {
	start := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	a := MustNew("free_memory", start, 2*time.Second, []float64{100, 90, 80.5})
	b := MustNew("used_swap", start, 2*time.Second, []float64{0, 5, 11.25})

	var buf bytes.Buffer
	if err := WriteCSV(&buf, a, b); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d series, want 2", len(got))
	}
	for i, want := range []Series{a, b} {
		g := got[i]
		if g.Name != want.Name {
			t.Errorf("series %d name = %q, want %q", i, g.Name, want.Name)
		}
		if !g.Start.Equal(want.Start) {
			t.Errorf("series %d start = %v, want %v", i, g.Start, want.Start)
		}
		if g.Step != want.Step {
			t.Errorf("series %d step = %v, want %v", i, g.Step, want.Step)
		}
		if g.Len() != want.Len() {
			t.Fatalf("series %d length = %d, want %d", i, g.Len(), want.Len())
		}
		for j := range g.Values {
			if g.Values[j] != want.Values[j] {
				t.Errorf("series %d value[%d] = %v, want %v", i, j, g.Values[j], want.Values[j])
			}
		}
	}
}

func TestWriteCSVErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf); err == nil {
		t.Error("WriteCSV with no series should fail")
	}
	a := FromValues("a", []float64{1, 2})
	b := FromValues("b", []float64{1})
	if err := WriteCSV(&buf, a, b); err == nil {
		t.Error("WriteCSV with mismatched lengths should fail")
	}
}

func TestReadCSVErrors(t *testing.T) {
	tests := []struct {
		name  string
		input string
	}{
		{name: "empty", input: ""},
		{name: "header only", input: "timestamp,a\n"},
		{name: "bad header", input: "time,a\n2026-01-01T00:00:00Z,1\n"},
		{name: "bad timestamp", input: "timestamp,a\nnot-a-time,1\n"},
		{name: "bad value", input: "timestamp,a\n2026-01-01T00:00:00Z,xyz\n"},
		{name: "ragged row", input: "timestamp,a\n2026-01-01T00:00:00Z,1,2\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadCSV(strings.NewReader(tt.input)); err == nil {
				t.Errorf("ReadCSV(%q) succeeded, want error", tt.input)
			}
		})
	}
}

func TestReadCSVSingleRowAssumesOneSecond(t *testing.T) {
	in := "timestamp,a\n2026-01-01T00:00:00Z,3.5\n"
	got, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if got[0].Step != time.Second {
		t.Errorf("step = %v, want 1s", got[0].Step)
	}
	if got[0].Values[0] != 3.5 {
		t.Errorf("value = %v, want 3.5", got[0].Values[0])
	}
}

// TestReadCSVSkipsTruncationMarker: a trace cut short by a signal ends
// in a "# truncated:" comment line, which the reader must skip.
func TestReadCSVSkipsTruncationMarker(t *testing.T) {
	var buf bytes.Buffer
	free := Series{Name: "free", Step: time.Second, Values: []float64{10, 20}}
	if err := WriteCSV(&buf, free); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	buf.WriteString("# truncated: received interrupt after 2 samples\n")
	cols, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV on truncated trace: %v", err)
	}
	if len(cols) != 1 || cols[0].Len() != 2 {
		t.Fatalf("got %d columns x %d rows, want the 2 data rows (marker skipped)", len(cols), cols[0].Len())
	}
}
