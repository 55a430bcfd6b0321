package ingest

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// ErrBadLine reports a wire line that does not parse as a sample.
var ErrBadLine = errors.New("ingest: bad line")

// MaxSourceLen bounds the length of a source identifier on the wire, so a
// hostile producer cannot inflate the registry's keys.
const MaxSourceLen = 128

// Sample is one parsed counter observation from the wire.
type Sample struct {
	// Source identifies the producing machine. Empty when the line did
	// not carry a source= field — the transport then supplies a default
	// (the remote peer).
	Source string
	// Timestamp is the producer's clock in seconds (only meaningful when
	// HasTimestamp is set; the monitor itself is sample-indexed, so the
	// timestamp is carried for display, not analysis).
	Timestamp float64
	// HasTimestamp reports whether the line carried a timestamp field.
	HasTimestamp bool
	// Free is the free-memory counter in bytes.
	Free float64
	// Swap is the used-swap counter in bytes.
	Swap float64
}

// ParseLine parses one line of the fleet wire protocol. Every format the
// repository's binaries ever spoke is accepted, so one parser serves both
// cmd/agingmon (stdin) and cmd/agingd (TCP/HTTP):
//
//	FREE,SWAP                      the original agingmon stdin format
//	FREE SWAP                      whitespace form
//	TIMESTAMP FREE SWAP            with a producer timestamp
//	source=ID <any of the above>   fleet form, keying the source
//
// Leading/trailing whitespace is ignored. All numeric fields must be
// finite — a NaN smuggled into the monitor would silently poison every
// downstream statistic. Callers are expected to skip blank lines and
// '#' comments themselves (the transports treat those as keep-alives).
func ParseLine(line string) (Sample, error) {
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

	if free, swap, ok := strings.Cut(rest, ","); ok {
		// Comma form: exactly "free,swap" (spaces around the comma are
		// tolerated, matching the original stdin parser).
		if strings.Contains(swap, ",") {
			return s, fmt.Errorf(`%w: want "free,swap", got %d fields`, ErrBadLine, strings.Count(rest, ",")+1)
		}
		var err error
		if s.Free, err = parseFinite("free", free); err != nil {
			return s, err
		}
		if s.Swap, err = parseFinite("swap", swap); err != nil {
			return s, err
		}
		return s, nil
	}

	var fields [3]string
	var err error
	switch n := splitFields(rest, &fields); n {
	case 2:
		if s.Free, err = parseFinite("free", fields[0]); err != nil {
			return s, err
		}
		if s.Swap, err = parseFinite("swap", fields[1]); err != nil {
			return s, err
		}
	case 3:
		if s.Timestamp, err = parseFinite("timestamp", fields[0]); err != nil {
			return s, err
		}
		s.HasTimestamp = true
		if s.Free, err = parseFinite("free", fields[1]); err != nil {
			return s, err
		}
		if s.Swap, err = parseFinite("swap", fields[2]); err != nil {
			return s, err
		}
	default:
		return s, fmt.Errorf("%w: want 2 or 3 fields, got %d", ErrBadLine, n)
	}
	return s, nil
}

// splitFields splits s around runs of whitespace exactly as
// strings.Fields does — unicode.IsSpace decides, so U+0085 and U+00A0
// separate fields too — without allocating: the first len(fields) fields
// land in fields, and the return value counts them all.
func splitFields(s string, fields *[3]string) int {
	n := 0
	for i := 0; i < len(s); {
		if w, sp := spaceAt(s, i); sp {
			i += w
			continue
		}
		start := i
		for i < len(s) {
			w, sp := spaceAt(s, i)
			if sp {
				break
			}
			i += w
		}
		if n < len(fields) {
			fields[n] = s[start:i]
		}
		n++
	}
	return n
}

// spaceAt decodes the rune at s[i] as strings.Fields does (an invalid
// byte is one RuneError wide) and reports its width and whether it is
// whitespace.
func spaceAt(s string, i int) (int, bool) {
	r, w := rune(s[i]), 1
	if r >= utf8.RuneSelf {
		r, w = utf8.DecodeRuneInString(s[i:])
	}
	return w, unicode.IsSpace(r)
}

// FormatLine renders a sample in the canonical wire form, the inverse of
// ParseLine: "source=ID [TIMESTAMP] FREE SWAP" (the source field is
// omitted when empty).
func FormatLine(s Sample) string {
	var b strings.Builder
	if s.Source != "" {
		b.WriteString("source=")
		b.WriteString(s.Source)
		b.WriteByte(' ')
	}
	if s.HasTimestamp {
		b.WriteString(strconv.FormatFloat(s.Timestamp, 'g', -1, 64))
		b.WriteByte(' ')
	}
	b.WriteString(strconv.FormatFloat(s.Free, 'g', -1, 64))
	b.WriteByte(' ')
	b.WriteString(strconv.FormatFloat(s.Swap, 'g', -1, 64))
	return b.String()
}

// PeekSource returns the source id a wire line will be attributed to —
// the line's own source= field when present and valid, defaultSource
// otherwise — without parsing the numeric payload. "" means the line is
// blank or a '#' comment keep-alive and carries no sample. The cluster
// router keys ownership off this before paying for a full parse; lines
// whose payload later fails to parse are still counted as bad by the
// registry they land on.
func PeekSource(defaultSource, line string) string {
	t := trimLine(line)
	if t == "" {
		return ""
	}
	if strings.HasPrefix(t, BatchPrefix) {
		rest := t[len(BatchPrefix):]
		if strings.HasPrefix(rest, "source=") {
			if id, _, found := strings.Cut(rest[len("source="):], ";"); found && validSource(id) == nil {
				return id
			}
		}
		return defaultSource
	}
	if strings.HasPrefix(t, "source=") {
		id := t[len("source="):]
		if sp := strings.IndexAny(id, " \t"); sp >= 0 {
			id = id[:sp]
		}
		if validSource(id) == nil {
			return id
		}
	}
	return defaultSource
}

// parseFinite parses one numeric field, rejecting non-finite values.
func parseFinite(name, field string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
	if err != nil {
		return 0, fmt.Errorf("%w: %s: %v", ErrBadLine, name, err)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("%w: %s: non-finite value %v", ErrBadLine, name, v)
	}
	return v, nil
}

// validSource vets a wire-supplied source identifier: non-empty, bounded,
// and free of control characters, spaces and commas (which would collide
// with the line syntax and the CSV exports downstream).
// Every byte of a multi-byte UTF-8 rune is above 0x7f, so a bytewise scan
// vets text ids and the raw ids of a row batch alike.
func validSource[T ~string | ~[]byte](id T) error {
	if len(id) == 0 {
		return fmt.Errorf("%w: empty source id", ErrBadLine)
	}
	if len(id) > MaxSourceLen {
		return fmt.Errorf("%w: source id longer than %d bytes", ErrBadLine, MaxSourceLen)
	}
	for i := 0; i < len(id); i++ {
		if c := id[i]; c <= 0x20 || c == 0x7f || c == ',' {
			return fmt.Errorf("%w: source id contains %q", ErrBadLine, rune(c))
		}
	}
	return nil
}
