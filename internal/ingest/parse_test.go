package ingest

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestParseLineFormats(t *testing.T) {
	cases := []struct {
		name string
		line string
		want Sample
	}{
		{"comma", "1000000,2048", Sample{Free: 1e6, Swap: 2048}},
		{"comma spaced", " 3.5e9 , 0 ", Sample{Free: 3.5e9, Swap: 0}},
		{"whitespace", "1e6 2048", Sample{Free: 1e6, Swap: 2048}},
		{"tabs", "1e6\t2048", Sample{Free: 1e6, Swap: 2048}},
		{"timestamp", "17.5 1e6 2048", Sample{Timestamp: 17.5, HasTimestamp: true, Free: 1e6, Swap: 2048}},
		{"source comma", "source=web-01 1000000,2048", Sample{Source: "web-01", Free: 1e6, Swap: 2048}},
		{"source whitespace", "source=web-01 1e6 2048", Sample{Source: "web-01", Free: 1e6, Swap: 2048}},
		{"source timestamp", "source=db/2 17.5 1e6 2048", Sample{Source: "db/2", Timestamp: 17.5, HasTimestamp: true, Free: 1e6, Swap: 2048}},
		{"negative", "-1,-2", Sample{Free: -1, Swap: -2}},
		{"padded", "  1 2  ", Sample{Free: 1, Swap: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ParseLine(tc.line)
			if err != nil {
				t.Fatalf("ParseLine(%q): %v", tc.line, err)
			}
			if got != tc.want {
				t.Errorf("ParseLine(%q) = %+v, want %+v", tc.line, got, tc.want)
			}
		})
	}
}

func TestParseLineRejects(t *testing.T) {
	lines := []string{
		"",
		"   ",
		"free,swap",
		"1,2,3",
		"1",
		"1 2 3 4",
		"NaN,0",
		"0,+Inf",
		"-Inf 0",
		"1e309,0",
		"NaN 1 2",
		"source=web-01",
		"source=web-01 ",
		"source= 1 2",
		"source=a,b 1 2",
		"source=a b", // source consumes "a", leaving one field
		"source=" + strings.Repeat("x", MaxSourceLen+1) + " 1 2",
		"source=ctl\x01chr 1 2",
		"1\x00,2",
	}
	for _, line := range lines {
		if s, err := ParseLine(line); err == nil {
			t.Errorf("ParseLine(%q) accepted: %+v", line, s)
		} else if !errors.Is(err, ErrBadLine) {
			t.Errorf("ParseLine(%q) error %v is not ErrBadLine", line, err)
		}
	}
}

func TestParseLineSourceLimits(t *testing.T) {
	longest := strings.Repeat("x", MaxSourceLen)
	s, err := ParseLine("source=" + longest + " 1 2")
	if err != nil {
		t.Fatalf("max-length source rejected: %v", err)
	}
	if s.Source != longest {
		t.Errorf("source = %q", s.Source)
	}
}

func TestFormatLineRoundTrip(t *testing.T) {
	samples := []Sample{
		{Free: 1e6, Swap: 2048},
		{Source: "web-01", Free: 3.5e9, Swap: 0},
		{Source: "db/2", Timestamp: 17.25, HasTimestamp: true, Free: 1e6, Swap: 2048},
		{Free: -1.5, Swap: math.MaxFloat64},
		{Source: "x", Timestamp: 0, HasTimestamp: true, Free: 0, Swap: 0},
	}
	for _, want := range samples {
		got, err := ParseLine(FormatLine(want))
		if err != nil {
			t.Fatalf("round trip of %+v: %v", want, err)
		}
		if got != want {
			t.Errorf("round trip of %+v: got %+v (line %q)", want, got, FormatLine(want))
		}
	}
}

// FuzzParseLine hammers the wire parser with hostile lines: it must
// never panic, never accept non-finite counters, and its canonical
// re-rendering must round-trip losslessly.
func FuzzParseLine(f *testing.F) {
	for _, seed := range []string{
		"1000000,2048",
		"source=web-01 17.5 1e6 2048",
		"source=a,b 1 2",
		"NaN 0",
		"1e309,0",
		strings.Repeat("9", 400) + " " + strings.Repeat("9", 400),
		"source=\x7f 1 2",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		s, err := ParseLine(line)
		if err != nil {
			if !errors.Is(err, ErrBadLine) {
				t.Fatalf("ParseLine(%q) error %v is not ErrBadLine", line, err)
			}
			return
		}
		for name, v := range map[string]float64{"free": s.Free, "swap": s.Swap, "ts": s.Timestamp} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("ParseLine(%q) accepted non-finite %s %v", line, name, v)
			}
		}
		rt, err := ParseLine(FormatLine(s))
		if err != nil {
			t.Fatalf("FormatLine(%+v) does not re-parse: %v", s, err)
		}
		if rt != s {
			t.Fatalf("round trip of %q: got %+v, want %+v", line, rt, s)
		}
	})
}

// fieldsParseLine is ParseLine's counter split as it was written on
// strings.Fields and strings.Split: the reference the in-place split
// must match line for line.
func fieldsParseLine(line string) (Sample, error) {
	var s Sample
	rest := strings.TrimSpace(line)
	if rest == "" {
		return s, fmt.Errorf("%w: empty", ErrBadLine)
	}
	if strings.HasPrefix(rest, "source=") {
		id := rest[len("source="):]
		if sp := strings.IndexAny(id, " \t"); sp >= 0 {
			rest = strings.TrimSpace(id[sp+1:])
			id = id[:sp]
		} else {
			rest = ""
		}
		if err := validSource(id); err != nil {
			return s, err
		}
		s.Source = id
	}
	if rest == "" {
		return s, fmt.Errorf("%w: source field without counters", ErrBadLine)
	}
	var err error
	if strings.ContainsRune(rest, ',') {
		parts := strings.Split(rest, ",")
		if len(parts) != 2 {
			return s, fmt.Errorf(`%w: want "free,swap", got %d fields`, ErrBadLine, len(parts))
		}
		if s.Free, err = parseFinite("free", parts[0]); err != nil {
			return s, err
		}
		s.Swap, err = parseFinite("swap", parts[1])
		return s, err
	}
	fields := strings.Fields(rest)
	switch len(fields) {
	case 2:
		if s.Free, err = parseFinite("free", fields[0]); err != nil {
			return s, err
		}
		s.Swap, err = parseFinite("swap", fields[1])
	case 3:
		if s.Timestamp, err = parseFinite("timestamp", fields[0]); err != nil {
			return s, err
		}
		s.HasTimestamp = true
		if s.Free, err = parseFinite("free", fields[1]); err != nil {
			return s, err
		}
		s.Swap, err = parseFinite("swap", fields[2])
	default:
		return s, fmt.Errorf("%w: want 2 or 3 fields, got %d", ErrBadLine, len(fields))
	}
	return s, err
}

// TestParseLineMatchesFieldsReference crafts lines of one to four
// fields joined and padded by ASCII and Unicode whitespace (tab, U+0085,
// U+00A0, U+2003, vertical tab), with and without a source or a comma,
// and invalid UTF-8 next to a separator, and requires ParseLine to
// return what the strings.Fields reference returns: the same sample, or
// the same error text.
func TestParseLineMatchesFieldsReference(t *testing.T) {
	seps := []string{" ", "\t", "\u0085", "\u00a0", " \t ", "\u2003", "\v", "\xff", "\u0085\xff "}
	words := []string{"1", "-2.5", "1e6", "x", "3,4", "\u00a01", "NaN"}
	prefixes := []string{"", "source=web-01 ", "source=web-01\t", "\u0085", "\u00a0source=a "}
	suffixes := []string{"", " ", "\u0085", "\t\u00a0"}
	rng := rand.New(rand.NewSource(5))
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	for i := 0; i < 20000; i++ {
		line := pick(prefixes) + pick(words)
		for n := i % 4; n > 0; n-- {
			line += pick(seps) + pick(words)
		}
		line += pick(suffixes)
		want, werr := fieldsParseLine(line)
		got, gerr := ParseLine(line)
		if got != want || (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("ParseLine(%q) = %+v, %v; strings.Fields reference %+v, %v", line, got, gerr, want, werr)
		}
	}
}

// TestParseLineAllocatesNothing gates every accepted line form at zero
// heap allocations.
func TestParseLineAllocatesNothing(t *testing.T) {
	for _, line := range []string{
		"1000000,2048",
		" 3.5e9 , 0 ",
		"1e6 2048",
		"17.5\t1e6 2048",
		"source=web-01 1000000,2048",
		"source=web-01 1e6 2048",
		"source=db/2 17.5 1e6 2048",
	} {
		if a := testing.AllocsPerRun(100, func() {
			if _, err := ParseLine(line); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("ParseLine(%q): %v allocs, want 0", line, a)
		}
	}
}
