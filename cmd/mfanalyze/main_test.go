package main

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"agingmf"
)

// syntheticCSV renders a two-column CSV with a sine and a noisy walk.
func syntheticCSV(t *testing.T, n int) string {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	smooth := make([]float64, n)
	rough := make([]float64, n)
	level := 0.0
	for i := 0; i < n; i++ {
		smooth[i] = math.Sin(2 * math.Pi * float64(i) / 64)
		level += rng.NormFloat64()
		rough[i] = level
	}
	a, err := agingmf.NewSeries("smooth", time.Unix(0, 0).UTC(), time.Second, smooth)
	if err != nil {
		t.Fatal(err)
	}
	b, err := agingmf.NewSeries("rough", time.Unix(0, 0).UTC(), time.Second, rough)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := agingmf.WriteSeriesCSV(&buf, a, b); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestRunAnalyzesDefaultColumn(t *testing.T) {
	in := strings.NewReader(syntheticCSV(t, 4096))
	var out bytes.Buffer
	if err := run(nil, in, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	text := out.String()
	for _, want := range []string{`series "smooth"`, "DFA-1 exponent", "MF-DFA h(q)", "aging phase"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

func TestRunSelectsColumn(t *testing.T) {
	in := strings.NewReader(syntheticCSV(t, 2048))
	var out bytes.Buffer
	if err := run([]string{"-column", "rough"}, in, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), `series "rough"`) {
		t.Errorf("wrong column analyzed:\n%s", out.String())
	}
}

func TestRunUnknownColumn(t *testing.T) {
	in := strings.NewReader(syntheticCSV(t, 256))
	var out bytes.Buffer
	err := run([]string{"-column", "nope"}, in, &out)
	if err == nil {
		t.Fatal("unknown column should fail")
	}
	if !strings.Contains(err.Error(), "smooth") {
		t.Errorf("error should list available columns: %v", err)
	}
}

func TestRunShortSeriesDegradesGracefully(t *testing.T) {
	in := strings.NewReader(syntheticCSV(t, 128))
	var out bytes.Buffer
	if err := run(nil, in, &out); err != nil {
		t.Fatalf("run on short input: %v", err)
	}
	if !strings.Contains(out.String(), "aging analysis skipped") {
		t.Errorf("short series should skip the aging analysis:\n%s", out.String())
	}
}

func TestRunBadInput(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, strings.NewReader("not,a,csv"), &out); err == nil {
		t.Error("malformed input should fail")
	}
	if err := run([]string{"-file", "/nonexistent/x.csv"}, nil, &out); err == nil {
		t.Error("missing file should fail")
	}
	if err := run([]string{"-zzz"}, nil, &out); err == nil {
		t.Error("unknown flag should fail")
	}
}

func TestRunRejectsNonFiniteColumn(t *testing.T) {
	// A leaking free-memory counter with a NaN every 500 samples: the
	// run must fail naming the column, before it prints any figure.
	rng := rand.New(rand.NewSource(3))
	free := make([]float64, 9000)
	for i := range free {
		free[i] = 8e9 - 4e5*float64(i) + 1e7*rng.NormFloat64()
		if i%500 == 499 {
			free[i] = math.NaN()
		}
	}
	s, err := agingmf.NewSeries("free_memory", time.Unix(0, 0).UTC(), time.Second, free)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "leak.csv")
	var csv bytes.Buffer
	if err := agingmf.WriteSeriesCSV(&csv, s); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, csv.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = run([]string{"-file", path}, nil, &out)
	if err == nil || !strings.Contains(err.Error(), `"free_memory"`) {
		t.Errorf("run error = %v, want one naming column \"free_memory\"", err)
	}
	if out.Len() != 0 {
		t.Errorf("figures printed for a non-finite column:\n%s", out.String())
	}
}
