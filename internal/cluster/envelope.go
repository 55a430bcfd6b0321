package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"

	"agingmf/internal/trace"
)

// EnvelopeVersion guards the migration wire format. Decoders reject
// anything newer; older versions restore as long as their fields are a
// subset (the gob property the snapshot machinery already relies on).
const EnvelopeVersion = 1

// envelopeMagic opens every framed envelope; a handoff endpoint fed
// arbitrary bytes fails on the first four instead of mid-gob.
var envelopeMagic = [4]byte{'A', 'G', 'M', 'V'}

// maxEnvelopeBytes bounds a decoded payload (64 MiB) so a corrupted
// length field cannot make the decoder allocate unbounded memory.
const maxEnvelopeBytes = 64 << 20

// ErrBadEnvelope reports a migration envelope that failed framing or
// integrity checks. Decode errors wrap it; they are never panics — the
// fuzz target in envelope_fuzz_test.go holds the codec to that.
var ErrBadEnvelope = errors.New("cluster: bad migration envelope")

// Envelope is one source's migration payload: everything the target
// needs to continue the source exactly where the origin stopped — the
// versioned gob monitor state (estimator ladder, volatility ring,
// standardizer baseline, refractory gate, jumps) plus the flight
// recorder tail, so post-hoc forensics survive the move too.
type Envelope struct {
	// Version is the envelope schema version (EnvelopeVersion).
	Version int
	// Source is the migrating source id.
	Source string
	// Origin and Target name the nodes on either side of the handoff.
	Origin string
	Target string
	// State is the source's detect.MonitorSet.SaveState blob (a
	// holder-only set writes the legacy aging.DualMonitor format).
	State []byte
	// Records is the source's flight-recorder tail, oldest first (empty
	// when the recorder is disabled).
	Records []trace.Record
}

// EncodeEnvelope frames e for the wire: magic, payload length, CRC-32
// (IEEE) of the payload, then the gob payload. The CRC turns any
// single-bit corruption in transit into a decode error instead of a
// silently wrong monitor state.
func EncodeEnvelope(e Envelope) ([]byte, error) {
	if e.Source == "" {
		return nil, fmt.Errorf("%w: empty source", ErrBadEnvelope)
	}
	if e.Version == 0 {
		e.Version = EnvelopeVersion
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(e); err != nil {
		return nil, fmt.Errorf("cluster: encode envelope: %w", err)
	}
	out := make([]byte, 0, 12+payload.Len())
	out = append(out, envelopeMagic[:]...)
	out = binary.BigEndian.AppendUint32(out, uint32(payload.Len()))
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(payload.Bytes()))
	out = append(out, payload.Bytes()...)
	return out, nil
}

// DecodeEnvelope parses a framed envelope. Corrupted, truncated or
// oversized input returns an error wrapping ErrBadEnvelope; a clean
// round-trip restores the envelope exactly (State byte-identical).
func DecodeEnvelope(b []byte) (Envelope, error) {
	var e Envelope
	if len(b) < 12 {
		return e, fmt.Errorf("%w: %d bytes, want >= 12", ErrBadEnvelope, len(b))
	}
	if !bytes.Equal(b[:4], envelopeMagic[:]) {
		return e, fmt.Errorf("%w: bad magic %q", ErrBadEnvelope, b[:4])
	}
	size := binary.BigEndian.Uint32(b[4:8])
	if size > maxEnvelopeBytes {
		return e, fmt.Errorf("%w: payload %d bytes exceeds limit", ErrBadEnvelope, size)
	}
	if int(size) != len(b)-12 {
		return e, fmt.Errorf("%w: payload length %d, frame carries %d", ErrBadEnvelope, size, len(b)-12)
	}
	payload := b[12:]
	if sum := crc32.ChecksumIEEE(payload); sum != binary.BigEndian.Uint32(b[8:12]) {
		return e, fmt.Errorf("%w: crc mismatch", ErrBadEnvelope)
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&e); err != nil {
		return Envelope{}, fmt.Errorf("%w: %v", ErrBadEnvelope, err)
	}
	if e.Version > EnvelopeVersion {
		return Envelope{}, fmt.Errorf("%w: unsupported version %d", ErrBadEnvelope, e.Version)
	}
	if e.Source == "" {
		return Envelope{}, fmt.Errorf("%w: empty source", ErrBadEnvelope)
	}
	return e, nil
}
