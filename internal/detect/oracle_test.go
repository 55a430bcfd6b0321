package detect

import (
	"bytes"
	"reflect"
	"testing"
)

var allKinds = []string{KindHolder, KindEntropy, KindAdaptive}

// TestReplayMatchesColumnKernels: the oracle's state equals a set fed
// the same trace through the column kernels, and splitting the trace
// into runs does not change it.
func TestReplayMatchesColumnKernels(t *testing.T) {
	pairs := agingPairs(3, 1500)
	whole, err := Replay(allKinds, testConfig(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	split, err := Replay(allKinds, testConfig(), pairs[:700], nil, pairs[700:])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(whole, split) {
		t.Fatal("replaying the trace in runs changed the state")
	}
	set, err := New(allKinds, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	addColumnsChunked(set, pairs, 256)
	if got := mustSave(t, set); Mismatches("m1", got, whole) != nil {
		t.Fatalf("column kernels diverge from the oracle: %v", Mismatches("m1", got, whole))
	}
	if _, err := Replay([]string{"bogus"}, testConfig()); err == nil {
		t.Fatal("unknown detector kind accepted")
	}
}

// TestMismatchesNamesDetector: a divergence is attributed to the
// detector whose state differs, not to the whole source.
func TestMismatchesNamesDetector(t *testing.T) {
	pairs := agingPairs(5, 1200)
	cfg := testConfig()
	a, err := New(allKinds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New([]string{KindEntropy}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		a.Add(p[0], p[1])
	}
	for _, p := range pairs[:len(pairs)-1] {
		b.Add(p[0], p[1])
	}
	want := mustSave(t, a)
	// The same set with only its entropy detector one sample behind.
	mixed := &MonitorSet{dets: []Detector{a.dets[0], b.dets[0], a.dets[2]}}
	got := mustSave(t, mixed)
	if m := Mismatches("m1", got, want); !reflect.DeepEqual(m, []string{"m1/entropy"}) {
		t.Fatalf("Mismatches = %v, want [m1/entropy]", m)
	}
	if m := Mismatches("m1", want, want); m != nil {
		t.Fatalf("equal states reported as %v", m)
	}
	holderOnly, err := Replay(nil, cfg, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if m := Mismatches("m1", holderOnly, want); !reflect.DeepEqual(m, []string{"m1"}) {
		t.Fatalf("structural mismatch reported as %v, want [m1]", m)
	}
	shorter, err := Replay(nil, cfg, pairs[:600])
	if err != nil {
		t.Fatal(err)
	}
	if m := Mismatches("m1", shorter, holderOnly); !reflect.DeepEqual(m, []string{"m1/holder"}) {
		t.Fatalf("legacy holder blobs reported as %v, want [m1/holder]", m)
	}
	if m := Mismatches("m1", []byte("garbage"), want); !reflect.DeepEqual(m, []string{"m1"}) {
		t.Fatalf("undecodable state reported as %v, want [m1]", m)
	}
}
