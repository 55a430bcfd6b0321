package source_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"agingmf/internal/source"
)

// parsePair is the test ParseFunc: "free,swap" floats, one pair per line.
func parsePair(line string) (source.Item, error) {
	parts := strings.Split(line, ",")
	if len(parts) != 2 {
		return source.Item{}, fmt.Errorf("want 2 fields, got %d", len(parts))
	}
	var p [2]float64
	for i, s := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return source.Item{}, err
		}
		p[i] = v
	}
	return source.Item{Pairs: [][2]float64{p}}, nil
}

// memorySource yields a fixed slice of items: the in-memory Source the
// fault-injection tests wrap.
type memorySource struct {
	items []source.Item
	pos   int
}

func newMemory(items ...source.Item) *memorySource { return &memorySource{items: items} }

func (s *memorySource) Next(ctx context.Context) (source.Item, error) {
	if err := ctx.Err(); err != nil {
		return source.Item{}, context.Cause(ctx)
	}
	if s.pos >= len(s.items) {
		return source.Item{}, io.EOF
	}
	it := s.items[s.pos]
	s.pos++
	return it, nil
}

func (s *memorySource) Close() error { return nil }

func TestMemorySource(t *testing.T) {
	src := newMemory(
		source.Item{Source: "a", Pairs: [][2]float64{{1, 2}}},
		source.Item{Source: "b", Pairs: [][2]float64{{3, 4}, {5, 6}}},
	)
	ctx := context.Background()
	it, err := src.Next(ctx)
	if err != nil || it.Source != "a" || len(it.Pairs) != 1 {
		t.Fatalf("first item %+v, err %v", it, err)
	}
	it, err = src.Next(ctx)
	if err != nil || it.Source != "b" || len(it.Pairs) != 2 {
		t.Fatalf("second item %+v, err %v", it, err)
	}
	if _, err := src.Next(ctx); err != io.EOF {
		t.Fatalf("after exhaustion err = %v, want io.EOF", err)
	}
	if err := src.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestMemorySourceCancel(t *testing.T) {
	src := newMemory(source.Item{Pairs: [][2]float64{{1, 2}}})
	cause := errors.New("stop now")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	if _, err := src.Next(ctx); !errors.Is(err, cause) {
		t.Fatalf("cancelled Next err = %v, want cause %v", err, cause)
	}
}

func TestLineSourceSkipsBlanksAndComments(t *testing.T) {
	in := "1,2\n\n# a comment\n   \n3,4\n"
	src := source.NewLines(strings.NewReader(in), parsePair)
	defer src.Close()
	ctx := context.Background()
	var got [][2]float64
	for {
		it, err := src.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		got = append(got, it.Pairs...)
	}
	want := [][2]float64{{1, 2}, {3, 4}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestLineSourceBadLineIsRecoverable(t *testing.T) {
	src := source.NewLines(strings.NewReader("garbage\n7,8\n"), parsePair)
	defer src.Close()
	ctx := context.Background()
	_, err := src.Next(ctx)
	var ble *source.BadLineError
	if !errors.As(err, &ble) {
		t.Fatalf("first Next err = %v, want *BadLineError", err)
	}
	if ble.Line != "garbage" || ble.Err == nil {
		t.Fatalf("BadLineError = %+v", ble)
	}
	// The stream stays readable after a bad line.
	it, err := src.Next(ctx)
	if err != nil || it.Pairs[0] != [2]float64{7, 8} {
		t.Fatalf("after bad line: item %+v, err %v", it, err)
	}
	if _, err := src.Next(ctx); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

func TestLineSourceReaderError(t *testing.T) {
	boom := errors.New("boom")
	r := io.MultiReader(strings.NewReader("1,2\n"), errReader{boom})
	src := source.NewLines(r, parsePair)
	defer src.Close()
	ctx := context.Background()
	if _, err := src.Next(ctx); err != nil {
		t.Fatalf("first Next: %v", err)
	}
	if _, err := src.Next(ctx); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

func TestLineSourceCancelWhileBlocked(t *testing.T) {
	pr, pw := io.Pipe() // never written: the scanner blocks forever
	defer pw.Close()
	src := source.NewLines(pr, parsePair)
	defer src.Close()
	cause := errors.New("drained")
	ctx, cancel := context.WithCancelCause(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := src.Next(ctx)
		done <- err
	}()
	cancel(cause)
	if err := <-done; !errors.Is(err, cause) {
		t.Fatalf("blocked Next err = %v, want cause %v", err, cause)
	}
}

func TestBadLineErrorUnwrap(t *testing.T) {
	inner := errors.New("parse failed")
	e := &source.BadLineError{Line: "x", Err: inner}
	if !errors.Is(e, inner) {
		t.Fatal("BadLineError does not unwrap to its cause")
	}
	if !strings.Contains(e.Error(), `"x"`) {
		t.Fatalf("Error() = %q, want the offending line quoted", e.Error())
	}
}
