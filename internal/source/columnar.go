package source

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"
)

// Columnar wire form. The text protocols (one line per sample, or
// "batch;" lines) spend most of their budget formatting and parsing
// decimal floats; a producer that samples fast ships the same data as a
// compact binary frame instead — one frame per source per flush, the
// counters as fixed-width columns:
//
//	offset  size      field
//	0       1         magic 0xA9 (> 0x7f, so never the first byte of a
//	                  text line — the TCP listener disambiguates on it)
//	1       1         magic 'F'
//	2       1         version (1)
//	3       1         flags (bit 0: timestamp column present)
//	4       uvarint   payload length: every byte after this varint,
//	                  CRC trailer included
//	        1+N       source id length (0 = transport default), id bytes
//	        uvarint   sample count (>= 1)
//	        varints   timestamps, if flagged: zigzag base unix-nanos,
//	                  then count-1 zigzag deltas
//	        1+count*w free-memory column:  encoding tag, then values
//	        1+count*w used-swap column:    encoding tag, then values
//	        4         CRC-32C (Castagnoli) of every preceding frame
//	                  byte, little-endian
//
// A column's encoding tag picks the narrowest fixed-width form that
// round-trips the float64 values bit-exactly — 0: float64, 1: uint64,
// 2: float32, all little-endian — so detection verdicts downstream of a
// frame are byte-for-byte those of the text path (the property the
// differential fuzz target and the binary self-test assert). A frame
// that fails its CRC or its syntax is rejected whole; half a batch is
// never ingested.
const (
	// FrameMagic0 and FrameMagic1 open every columnar frame.
	FrameMagic0 = 0xA9
	FrameMagic1 = 'F'
	// FrameVersion is the current frame schema version.
	FrameVersion = 1

	frameFlagTimes = 0x01

	colEncFloat64 = 0
	colEncUint64  = 1
	colEncFloat32 = 2

	// frameHeaderLen is the fixed prefix before the payload-length varint.
	frameHeaderLen = 4
)

// Columnar frame errors. ErrNotFrame means the bytes never were a frame
// (wrong magic — the reader has lost sync or the peer speaks text);
// ErrFrameCRC means a well-framed payload failed its checksum and was
// rejected whole; ErrBadFrame covers syntax violations inside a frame
// that passed its CRC; ErrFrameTooLarge reports a declared length above
// the reader's bound.
var (
	ErrNotFrame      = errors.New("source: not a columnar frame")
	ErrFrameCRC      = errors.New("source: columnar frame CRC mismatch")
	ErrBadFrame      = errors.New("source: malformed columnar frame")
	ErrFrameTooLarge = errors.New("source: columnar frame too large")
)

// crcTable is the Castagnoli table shared by encode and decode.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ColumnarBatch is the in-memory form of one columnar frame: a run of
// counter samples from one source, column per counter, oldest first.
// The column slices are reused across frames when the batch cycles
// through the pool (AcquireColumnarBatch / Release).
type ColumnarBatch struct {
	// Source identifies the producing machine; empty means the transport
	// supplies a default, exactly as on the text wire.
	Source string
	// Times optionally carries per-sample producer timestamps
	// (unix-nanos). Either empty or exactly Len() long. Like text batch
	// timestamps, they ride along for display — detection is
	// sample-indexed.
	Times []int64
	// Free and Swap are the counter columns: Free[i], Swap[i] is sample
	// pair i. Always equal length.
	Free []float64
	Swap []float64
}

// Len returns the number of sample pairs in the batch.
func (b *ColumnarBatch) Len() int { return len(b.Free) }

// Reset empties the batch, keeping column capacity.
func (b *ColumnarBatch) Reset() {
	b.Source = ""
	b.Times = b.Times[:0]
	b.Free = b.Free[:0]
	b.Swap = b.Swap[:0]
}

// AppendPairs appends the batch's samples to dst in row form — the
// bridge to row-oriented consumers (Item, text-wire forwarding).
func (b *ColumnarBatch) AppendPairs(dst [][2]float64) [][2]float64 {
	for i, f := range b.Free {
		dst = append(dst, [2]float64{f, b.Swap[i]})
	}
	return dst
}

// batchPool recycles ColumnarBatch objects (and their column capacity)
// across frames, so the steady-state decode path allocates nothing.
var batchPool = sync.Pool{New: func() any { return new(ColumnarBatch) }}

// AcquireColumnarBatch returns an empty batch from the pool. Pass it to
// Release when done — or hand it to a consumer documented to take
// ownership (the ingest registry's IngestColumns does).
func AcquireColumnarBatch() *ColumnarBatch {
	b := batchPool.Get().(*ColumnarBatch)
	b.Reset()
	return b
}

// Release returns the batch to the pool. The batch must not be used
// after Release.
func (b *ColumnarBatch) Release() { batchPool.Put(b) }

// chooseColEnc picks the narrowest encoding that round-trips every
// value of the column bit-exactly.
func chooseColEnc(col []float64) byte {
	const twoTo64 = 1 << 64 // exact as float64
	u64ok, f32ok := true, true
	for _, v := range col {
		if u64ok && !(v >= 0 && v < twoTo64 && float64(uint64(v)) == v) {
			u64ok = false
		}
		if f32ok && float64(float32(v)) != v {
			f32ok = false
		}
		if !u64ok && !f32ok {
			return colEncFloat64
		}
	}
	if f32ok {
		return colEncFloat32
	}
	return colEncUint64
}

// appendCol appends one encoded column (tag + values) to dst.
func appendCol(dst []byte, col []float64) []byte {
	enc := chooseColEnc(col)
	dst = append(dst, enc)
	switch enc {
	case colEncUint64:
		for _, v := range col {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
		}
	case colEncFloat32:
		for _, v := range col {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(v)))
		}
	default:
		for _, v := range col {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst
}

// payloadScratch recycles the encoder's payload staging buffers.
var payloadScratch = sync.Pool{New: func() any { return new([]byte) }}

// AppendFrame appends the batch's columnar frame to dst and returns the
// extended slice. The frame decodes (DecodeFrame) back to a batch whose
// columns equal b's bit-for-bit.
func AppendFrame(dst []byte, b *ColumnarBatch) ([]byte, error) {
	n := b.Len()
	switch {
	case n == 0:
		return dst, fmt.Errorf("%w: empty batch", ErrBadFrame)
	case len(b.Swap) != n:
		return dst, fmt.Errorf("%w: free/swap columns %d/%d", ErrBadFrame, n, len(b.Swap))
	case len(b.Times) != 0 && len(b.Times) != n:
		return dst, fmt.Errorf("%w: %d timestamps for %d samples", ErrBadFrame, len(b.Times), n)
	case len(b.Source) > 255:
		return dst, fmt.Errorf("%w: source id %d bytes", ErrBadFrame, len(b.Source))
	}
	pp := payloadScratch.Get().(*[]byte)
	payload := (*pp)[:0]
	payload = append(payload, byte(len(b.Source)))
	payload = append(payload, b.Source...)
	payload = binary.AppendUvarint(payload, uint64(n))
	if len(b.Times) > 0 {
		payload = binary.AppendVarint(payload, b.Times[0])
		for i := 1; i < n; i++ {
			payload = binary.AppendVarint(payload, b.Times[i]-b.Times[i-1])
		}
	}
	payload = appendCol(payload, b.Free)
	payload = appendCol(payload, b.Swap)

	start := len(dst)
	flags := byte(0)
	if len(b.Times) > 0 {
		flags |= frameFlagTimes
	}
	dst = append(dst, FrameMagic0, FrameMagic1, FrameVersion, flags)
	dst = binary.AppendUvarint(dst, uint64(len(payload)+crc32.Size))
	dst = append(dst, payload...)
	*pp = payload
	payloadScratch.Put(pp)
	crc := crc32.Checksum(dst[start:], crcTable)
	return binary.LittleEndian.AppendUint32(dst, crc), nil
}

// DecodeFrame parses one complete frame into b (which it Resets first).
// The frame's CRC covers everything before the trailer, so corruption
// anywhere rejects the whole frame. intern, when non-nil, maps the raw
// source-id bytes to a string — a per-connection memo avoids
// re-allocating the same id on every frame; nil just allocates.
// The decoded columns are bit-exact copies of the encoded values; frame
// alone is borrowed, not retained.
func DecodeFrame(frame []byte, b *ColumnarBatch, intern func([]byte) string) error {
	b.Reset()
	if len(frame) < frameHeaderLen+1 {
		return fmt.Errorf("%w: %d bytes", ErrNotFrame, len(frame))
	}
	if frame[0] != FrameMagic0 || frame[1] != FrameMagic1 {
		return fmt.Errorf("%w: magic %#02x%02x", ErrNotFrame, frame[0], frame[1])
	}
	if frame[2] != FrameVersion {
		return fmt.Errorf("%w: version %d (supported %d)", ErrNotFrame, frame[2], FrameVersion)
	}
	flags := frame[3]
	plen, hn := binary.Uvarint(frame[frameHeaderLen:])
	if hn <= 0 {
		return fmt.Errorf("%w: payload length varint", ErrBadFrame)
	}
	body := frame[frameHeaderLen+hn:]
	if uint64(len(body)) != plen {
		return fmt.Errorf("%w: payload %d bytes, declared %d", ErrBadFrame, len(body), plen)
	}
	if len(body) < crc32.Size+2 {
		return fmt.Errorf("%w: payload too short", ErrBadFrame)
	}
	trailer := len(frame) - crc32.Size
	want := binary.LittleEndian.Uint32(frame[trailer:])
	if got := crc32.Checksum(frame[:trailer], crcTable); got != want {
		return fmt.Errorf("%w: %#08x != %#08x", ErrFrameCRC, got, want)
	}
	p := body[:len(body)-crc32.Size]

	srcLen := int(p[0])
	p = p[1:]
	if len(p) < srcLen {
		return fmt.Errorf("%w: source id truncated", ErrBadFrame)
	}
	if srcLen > 0 {
		if intern != nil {
			b.Source = intern(p[:srcLen])
		} else {
			b.Source = string(p[:srcLen])
		}
	}
	p = p[srcLen:]
	count64, cn := binary.Uvarint(p)
	if cn <= 0 || count64 == 0 || count64 > uint64(len(frame)) {
		return fmt.Errorf("%w: sample count", ErrBadFrame)
	}
	p = p[cn:]
	count := int(count64)
	if flags&frameFlagTimes != 0 {
		if cap(b.Times) < count {
			b.Times = make([]int64, 0, count)
		}
		t := int64(0)
		for i := 0; i < count; i++ {
			d, dn := binary.Varint(p)
			if dn <= 0 {
				return fmt.Errorf("%w: timestamp %d", ErrBadFrame, i)
			}
			p = p[dn:]
			if i == 0 {
				t = d
			} else {
				t += d
			}
			b.Times = append(b.Times, t)
		}
	}
	var err error
	if b.Free, p, err = decodeCol(b.Free, p, count, "free"); err != nil {
		return err
	}
	if b.Swap, p, err = decodeCol(b.Swap, p, count, "swap"); err != nil {
		return err
	}
	if len(p) != 0 {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrBadFrame, len(p))
	}
	return nil
}

// decodeCol decodes one column (tag + values) into dst, returning the
// extended column and the remaining payload.
func decodeCol(dst []float64, p []byte, count int, name string) ([]float64, []byte, error) {
	if len(p) < 1 {
		return dst, p, fmt.Errorf("%w: %s column tag missing", ErrBadFrame, name)
	}
	enc := p[0]
	p = p[1:]
	width := 8
	if enc == colEncFloat32 {
		width = 4
	}
	if enc > colEncFloat32 {
		return dst, p, fmt.Errorf("%w: %s column encoding %d", ErrBadFrame, name, enc)
	}
	if len(p) < count*width {
		return dst, p, fmt.Errorf("%w: %s column truncated", ErrBadFrame, name)
	}
	if cap(dst) < count {
		dst = make([]float64, 0, count)
	}
	// Full-width subslices with constant-offset loads let the compiler
	// drop the per-element bounds checks.
	src := p[:count*width]
	switch enc {
	case colEncUint64:
		for i := 0; i+8 <= len(src); i += 8 {
			dst = append(dst, float64(binary.LittleEndian.Uint64(src[i:i+8])))
		}
	case colEncFloat32:
		for i := 0; i+4 <= len(src); i += 4 {
			dst = append(dst, float64(math.Float32frombits(binary.LittleEndian.Uint32(src[i:i+4]))))
		}
	default:
		for i := 0; i+8 <= len(src); i += 8 {
			dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(src[i:i+8])))
		}
	}
	return dst, p[count*width:], nil
}

// ReadFrame reads one complete frame from br into buf (grown as needed)
// and returns the frame bytes, valid until the next call. maxBytes
// bounds the whole frame (<= 0 means unbounded); a frame declaring more
// returns ErrFrameTooLarge without consuming the payload — with
// length-prefixed framing the caller cannot resync past it, so treat it
// as poisoning the stream. io.EOF before the first header byte means a
// clean end of stream.
func ReadFrame(br *bufio.Reader, buf []byte, maxBytes int) ([]byte, error) {
	buf = buf[:0]
	hdr, err := br.Peek(1)
	if err != nil {
		return nil, err // io.EOF: clean end between frames
	}
	if hdr[0] != FrameMagic0 {
		return nil, fmt.Errorf("%w: first byte %#02x", ErrNotFrame, hdr[0])
	}
	var fixed [frameHeaderLen]byte
	if _, err := io.ReadFull(br, fixed[:]); err != nil {
		return nil, fmt.Errorf("source: frame header: %w", err)
	}
	if fixed[1] != FrameMagic1 {
		return nil, fmt.Errorf("%w: magic %#02x%02x", ErrNotFrame, fixed[0], fixed[1])
	}
	buf = append(buf, fixed[:]...)
	// The payload-length varint, byte at a time (it is at most 10 bytes).
	plen := uint64(0)
	for shift := 0; ; shift += 7 {
		if shift > 63 {
			return nil, fmt.Errorf("%w: payload length varint", ErrBadFrame)
		}
		c, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("source: frame length: %w", err)
		}
		buf = append(buf, c)
		plen |= uint64(c&0x7f) << shift
		if c < 0x80 {
			break
		}
	}
	total := uint64(len(buf)) + plen
	if maxBytes > 0 && total > uint64(maxBytes) {
		return nil, fmt.Errorf("%w: %d bytes (max %d)", ErrFrameTooLarge, total, maxBytes)
	}
	off := len(buf)
	if uint64(cap(buf)) < total {
		grown := make([]byte, total)
		copy(grown, buf)
		buf = grown
	} else {
		buf = buf[:total]
	}
	if _, err := io.ReadFull(br, buf[off:]); err != nil {
		return nil, fmt.Errorf("source: frame payload: %w", err)
	}
	return buf, nil
}

// FrameSource reads a stream of columnar frames as a Source — the
// binary counterpart of LineSource, used by consumers fed frames on
// stdin or a file. A frame that fails its CRC surfaces as a recoverable
// *BadLineError (the length framing already consumed it whole, so the
// stream continues at the next frame); losing the magic is terminal —
// sync is gone. The reader runs on its own goroutine so Next honours
// context cancellation even while a read blocks.
type FrameSource struct {
	frames chan []byte
	errc   chan error
	done   chan struct{}
	once   sync.Once

	batch ColumnarBatch
	pairs [][2]float64
}

// NewFrames builds a FrameSource over r. maxBytes bounds one frame
// (<= 0: unbounded).
func NewFrames(r io.Reader, maxBytes int) *FrameSource {
	s := &FrameSource{
		frames: make(chan []byte),
		errc:   make(chan error, 1),
		done:   make(chan struct{}),
	}
	go func() {
		defer close(s.frames)
		br := bufio.NewReader(r)
		for {
			frame, err := ReadFrame(br, nil, maxBytes)
			if err != nil {
				if !errors.Is(err, io.EOF) {
					s.errc <- err
				}
				return
			}
			out := make([]byte, len(frame))
			copy(out, frame)
			select {
			case s.frames <- out:
			case <-s.done:
				return
			}
		}
	}()
	return s
}

func (s *FrameSource) Next(ctx context.Context) (Item, error) {
	select {
	case <-ctx.Done():
		return Item{}, context.Cause(ctx)
	case frame, ok := <-s.frames:
		if !ok {
			select {
			case err := <-s.errc:
				return Item{}, err
			default:
			}
			return Item{}, io.EOF
		}
		if err := DecodeFrame(frame, &s.batch, nil); err != nil {
			return Item{}, &BadLineError{Line: fmt.Sprintf("frame[%d bytes]", len(frame)), Err: err}
		}
		s.pairs = s.batch.AppendPairs(s.pairs[:0])
		return Item{Source: s.batch.Source, Pairs: s.pairs}, nil
	}
}

// Close releases the reader goroutine (if it is not parked inside a
// blocking read). It never errors.
func (s *FrameSource) Close() error {
	s.once.Do(func() { close(s.done) })
	return nil
}
