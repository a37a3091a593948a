package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
	"strings"
)

// Column payloads carry evidence tables of a shape the reader already
// knows: the attacks' [chain][65536] digraph counts and ABSAB weights, and
// TKIP's per-class byte counts. A column payload is
//
//   - a 4-byte little-endian length, then that many bytes of the owner's
//     gob header (EncodeGob), which must record the count width;
//   - the count cells, row after row, each Width bytes little-endian,
//     where Width is the smallest of 1, 2, 4 or 8 that holds the largest
//     cell (CountWidth);
//   - the float cells, row after row, each the 8 little-endian bytes of
//     its IEEE-754 bits.
//
// The envelope's checksum trailer covers all of it. A reader checks the
// exact column length its own shape implies (CheckColumns) and then adds
// the cells straight into its tables (AddCounts, AddFloats), so no
// intermediate table is ever decoded.

// MaxColumnHeader bounds a column payload's gob header. Headers hold a
// configuration and a stream identity, a few hundred bytes; a longer one
// is refused before it is decoded.
const MaxColumnHeader = 64 << 10

// ErrOldLayout reports evidence written in a retired layout of the kind a
// reader asked for (say an attack.v1 gob snapshot where attack.v2 columns
// are wanted). Such evidence must be captured again.
var ErrOldLayout = errors.New("snapshot: evidence in a retired layout (re-capture it with this build)")

// chunkLen is the streaming writer's buffer: columns are encoded into it,
// checksummed while it is hot in cache, and written out.
const chunkLen = 64 << 10

// CountWidth returns the smallest cell width of 1, 2, 4 or 8 bytes that
// holds every count in rows.
func CountWidth(rows ...[]uint64) int {
	var all uint64
	for _, row := range rows {
		for _, v := range row {
			all |= v
		}
	}
	switch n := bits.Len64(all); {
	case n <= 8:
		return 1
	case n <= 16:
		return 2
	case n <= 32:
		return 4
	}
	return 8
}

// WriteColumns writes one envelope of kind holding a column payload: the
// canonical gob of header, then counts at width bytes per cell, then
// floats. The payload is streamed through one small buffer and
// checksummed on the way, so the only payload-sized buffer is the one w
// itself may keep (a bytes.Buffer is grown to the envelope's size first).
func WriteColumns(w io.Writer, kind string, header any, width int, counts [][]uint64, floats [][]float64) error {
	if !validWidth(width) {
		return fmt.Errorf("snapshot: count width %d is not 1, 2, 4 or 8", width)
	}
	hdr, err := EncodeGob(header)
	if err != nil {
		return err
	}
	if len(hdr) > MaxColumnHeader {
		return fmt.Errorf("snapshot: %d-byte column header exceeds %d bytes", len(hdr), MaxColumnHeader)
	}
	n := 4 + len(hdr) + width*cells(counts) + 8*cells(floats)
	head, err := appendHead(make([]byte, 0, chunkLen), kind, n)
	if err != nil {
		return err
	}
	if g, ok := w.(interface{ Grow(int) }); ok {
		g.Grow(len(head) + n + 8)
	}
	cw := &chunkWriter{w: w, buf: append(binary.LittleEndian.AppendUint32(head, uint32(len(hdr))), hdr...)}
	for _, row := range counts {
		cw.counts(row, width)
	}
	for _, row := range floats {
		cw.floats(row)
	}
	cw.flush()
	if cw.err != nil {
		return cw.err
	}
	_, err = w.Write(binary.BigEndian.AppendUint64(nil, cw.crc.sum()))
	return err
}

func cells[T any](rows [][]T) int {
	n := 0
	for _, row := range rows {
		n += len(row)
	}
	return n
}

func validWidth(width int) bool {
	return width == 1 || width == 2 || width == 4 || width == 8
}

// chunkWriter streams envelope bytes through buf, updating the checksum of
// everything it flushes.
type chunkWriter struct {
	w   io.Writer
	buf []byte
	crc checksum
	err error
}

func (c *chunkWriter) flush() {
	if c.err == nil && len(c.buf) > 0 {
		c.crc = c.crc.update(c.buf)
		_, c.err = c.w.Write(c.buf)
	}
	c.buf = c.buf[:0]
}

// room returns how many cells of size bytes fit in buf, flushing it first
// when none do.
func (c *chunkWriter) room(size int) int {
	if cap(c.buf)-len(c.buf) < size {
		c.flush()
	}
	return (cap(c.buf) - len(c.buf)) / size
}

func (c *chunkWriter) counts(row []uint64, width int) {
	for len(row) > 0 && c.err == nil {
		n := min(len(row), c.room(width))
		out := c.buf[len(c.buf) : len(c.buf)+n*width]
		switch width {
		case 1:
			for i, v := range row[:n] {
				out[i] = byte(v)
			}
		case 2:
			for i, v := range row[:n] {
				binary.LittleEndian.PutUint16(out[2*i:], uint16(v))
			}
		case 4:
			for i, v := range row[:n] {
				binary.LittleEndian.PutUint32(out[4*i:], uint32(v))
			}
		default:
			for i, v := range row[:n] {
				binary.LittleEndian.PutUint64(out[8*i:], v)
			}
		}
		c.buf = c.buf[:len(c.buf)+len(out)]
		row = row[n:]
	}
}

func (c *chunkWriter) floats(row []float64) {
	for len(row) > 0 && c.err == nil {
		n := min(len(row), c.room(8))
		out := c.buf[len(c.buf) : len(c.buf)+8*n]
		for i, v := range row[:n] {
			binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
		}
		c.buf = c.buf[:len(c.buf)+len(out)]
		row = row[n:]
	}
}

// OpenColumns verifies the envelope env holds (see Parse), checks that it
// carries kind, decodes its column header into header and returns the
// columns that follow, which alias env. Evidence of an older version of
// kind fails with ErrOldLayout.
func OpenColumns(env []byte, kind string, header any) ([]byte, error) {
	got, payload, err := Parse(env)
	if err != nil {
		return nil, err
	}
	return decodeColumns(got, payload, kind, header)
}

// ReadColumns is OpenColumns for an envelope read from r.
func ReadColumns(r io.Reader, kind string, header any) ([]byte, error) {
	got, payload, err := Read(r)
	if err != nil {
		return nil, err
	}
	return decodeColumns(got, payload, kind, header)
}

func decodeColumns(got string, payload []byte, kind string, header any) ([]byte, error) {
	if err := CheckKind(got, kind); err != nil {
		return nil, err
	}
	if len(payload) < 4 {
		return nil, errors.New("snapshot: column payload has no header")
	}
	n := binary.LittleEndian.Uint32(payload)
	if n > MaxColumnHeader || int(n) > len(payload)-4 {
		return nil, fmt.Errorf("snapshot: corrupt column header length %d", n)
	}
	if err := DecodeGob(payload[4:4+n], header); err != nil {
		return nil, fmt.Errorf("snapshot: column header: %w", err)
	}
	return payload[4+n:], nil
}

// CheckKind reports whether an envelope of kind got may be read as kind
// want: nil if they are equal, an error wrapping ErrOldLayout if got names
// an older version of want, and a kind mismatch otherwise.
func CheckKind(got, want string) error {
	switch {
	case got == want:
		return nil
	case olderKind(got, want):
		return fmt.Errorf("%w: envelope holds %q, this build reads %q", ErrOldLayout, got, want)
	}
	return fmt.Errorf("snapshot: envelope holds %q, want %q", got, want)
}

// olderKind reports whether got names an older version of want: the same
// kind up to a ".vN" suffix, with a lower N.
func olderKind(got, want string) bool {
	i, j := strings.LastIndex(got, ".v"), strings.LastIndex(want, ".v")
	if i < 0 || j < 0 || got[:i] != want[:j] {
		return false
	}
	gv, gerr := strconv.Atoi(got[i+2:])
	wv, werr := strconv.Atoi(want[j+2:])
	return gerr == nil && werr == nil && gv < wv
}

// CheckColumns checks that cols holds exactly counts cells of width bytes
// followed by floats float64 cells: the shape the reader expects. Call it
// before AddCounts and AddFloats, which trust the length.
func CheckColumns(cols []byte, width, counts, floats int) error {
	if !validWidth(width) {
		return fmt.Errorf("snapshot: count width %d is not 1, 2, 4 or 8", width)
	}
	if want := width*counts + 8*floats; len(cols) != want {
		return fmt.Errorf("snapshot: %d column bytes, shape needs %d", len(cols), want)
	}
	return nil
}

// AddCounts adds the len(dst) count cells of width bytes at the front of
// cols into dst and returns the rest of cols.
func AddCounts(dst []uint64, cols []byte, width int) []byte {
	src := cols[:len(dst)*width]
	switch width {
	case 1:
		for i, v := range src {
			dst[i] += uint64(v)
		}
	case 2:
		for i := range dst {
			dst[i] += uint64(binary.LittleEndian.Uint16(src[2*i:]))
		}
	case 4:
		for i := range dst {
			dst[i] += uint64(binary.LittleEndian.Uint32(src[4*i:]))
		}
	default:
		for i := range dst {
			dst[i] += binary.LittleEndian.Uint64(src[8*i:])
		}
	}
	return cols[len(src):]
}

// AddFloats adds the len(dst) float cells at the front of cols into dst
// and returns the rest of cols.
func AddFloats(dst []float64, cols []byte) []byte {
	src := cols[:8*len(dst)]
	for i := range dst {
		dst[i] += math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	return cols[len(src):]
}
