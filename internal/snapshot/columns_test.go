package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"
)

type colHeader struct {
	Name  string
	Width int
}

func TestCountWidth(t *testing.T) {
	for _, c := range []struct {
		max  uint64
		want int
	}{
		{0, 1}, {0xff, 1}, {0x100, 2}, {0xffff, 2}, {0x10000, 4},
		{math.MaxUint32, 4}, {math.MaxUint32 + 1, 8}, {math.MaxUint64, 8},
	} {
		if got := CountWidth([]uint64{1, c.max}, nil, []uint64{2}); got != c.want {
			t.Errorf("CountWidth(max %#x) = %d, want %d", c.max, got, c.want)
		}
	}
}

// TestColumnsRoundTrip writes tables at every width and adds them back
// into zeroed tables of the same shape: every count and every float bit
// (negative zero and NaN payloads included) must survive.
func TestColumnsRoundTrip(t *testing.T) {
	floats := [][]float64{{0.5, math.Copysign(0, -1), math.Float64frombits(0x7ff8000000000123)}, {-1e300}}
	for _, max := range []uint64{200, 60000, 1 << 31, 1 << 60} {
		counts := [][]uint64{{0, 1, max}, make([]uint64, 70000)}
		counts[1][69999] = max - 1
		width := CountWidth(counts...)
		var env bytes.Buffer
		if err := WriteColumns(&env, "test.cols.v2", colHeader{Name: "x", Width: width}, width, counts, floats); err != nil {
			t.Fatal(err)
		}
		var h colHeader
		cols, err := OpenColumns(env.Bytes(), "test.cols.v2", &h)
		if err != nil {
			t.Fatal(err)
		}
		if h.Name != "x" || h.Width != width {
			t.Fatalf("header = %+v", h)
		}
		if err := CheckColumns(cols, h.Width, 70003, 4); err != nil {
			t.Fatal(err)
		}
		gotC := [][]uint64{make([]uint64, 3), make([]uint64, 70000)}
		gotF := [][]float64{make([]float64, 3), make([]float64, 1)}
		rest := cols
		for _, row := range gotC {
			rest = AddCounts(row, rest, h.Width)
		}
		for _, row := range gotF {
			rest = AddFloats(row, rest)
		}
		if len(rest) != 0 {
			t.Fatalf("%d column bytes left over", len(rest))
		}
		for r := range counts {
			for i := range counts[r] {
				if gotC[r][i] != counts[r][i] {
					t.Fatalf("width %d: count [%d][%d] = %d, want %d", width, r, i, gotC[r][i], counts[r][i])
				}
			}
		}
		for r := range floats {
			for i := range floats[r] {
				// 0 + x is x bit for bit, except that 0 + -0 is +0.
				want := math.Float64bits(0 + floats[r][i])
				if got := math.Float64bits(gotF[r][i]); got != want {
					t.Fatalf("float [%d][%d] = %#x, want %#x", r, i, got, want)
				}
			}
		}
		// The stream form reads the same envelope.
		if _, err := ReadColumns(bytes.NewReader(env.Bytes()), "test.cols.v2", &h); err != nil {
			t.Fatal(err)
		}
	}
}

func TestColumnsRefusals(t *testing.T) {
	counts := [][]uint64{{1, 2, 3}}
	var env bytes.Buffer
	if err := WriteColumns(&env, "test.cols.v2", colHeader{Width: 1}, 1, counts, nil); err != nil {
		t.Fatal(err)
	}
	var h colHeader
	if _, err := OpenColumns(env.Bytes(), "test.cols.v3", &h); !errors.Is(err, ErrOldLayout) {
		t.Fatalf("older version: want ErrOldLayout, got %v", err)
	}
	if _, err := OpenColumns(env.Bytes(), "test.cols.v1", &h); err == nil || errors.Is(err, ErrOldLayout) {
		t.Fatalf("newer version: want a plain kind refusal, got %v", err)
	}
	if _, err := OpenColumns(env.Bytes(), "other.cols.v2", &h); err == nil || errors.Is(err, ErrOldLayout) {
		t.Fatalf("foreign kind: want a plain kind refusal, got %v", err)
	}
	if _, err := OpenColumns(append(env.Bytes(), 0), "test.cols.v2", &h); err == nil || !strings.Contains(err.Error(), "stray") {
		t.Fatalf("trailing byte: got %v", err)
	}
	cols, err := OpenColumns(env.Bytes(), "test.cols.v2", &h)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		width, counts, floats int
	}{{3, 1, 0}, {0, 3, 0}, {1, 2, 0}, {1, 4, 0}, {1, 3, 1}, {2, 3, 0}} {
		if err := CheckColumns(cols, c.width, c.counts, c.floats); err == nil {
			t.Errorf("CheckColumns(width %d, %d counts, %d floats) accepted 3 bytes", c.width, c.counts, c.floats)
		}
	}
	if err := WriteColumns(&env, "test.cols.v2", colHeader{}, 3, counts, nil); err == nil {
		t.Fatal("width 3 written")
	}
	// A header length beyond MaxColumnHeader, or beyond the payload, is
	// refused before anything is decoded.
	for _, n := range []uint32{MaxColumnHeader + 1, 100} {
		payload := binary.LittleEndian.AppendUint32(nil, n)
		payload = append(payload, make([]byte, 50)...)
		var bad bytes.Buffer
		if err := Write(&bad, "test.cols.v2", payload); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenColumns(bad.Bytes(), "test.cols.v2", &h); err == nil || !strings.Contains(err.Error(), "header length") {
			t.Fatalf("header length %d: got %v", n, err)
		}
	}
}

// TestReadFrameBound pins the raw frame reader: it returns an envelope
// verbatim, and refuses one longer than its bound from the head alone.
func TestReadFrameBound(t *testing.T) {
	var env bytes.Buffer
	if err := Write(&env, "k", make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(bytes.NewReader(env.Bytes()), env.Len())
	if err != nil || !bytes.Equal(got, env.Bytes()) {
		t.Fatalf("frame at its bound: %v", err)
	}
	head := env.Bytes()[:MagicLen+4+4+1+8]
	if _, err := ReadFrame(bytes.NewReader(head), env.Len()-1); err == nil || !strings.Contains(err.Error(), "bound") {
		t.Fatalf("frame over its bound: got %v", err)
	}
	if _, err := ReadFrame(bytes.NewReader(env.Bytes()[:env.Len()-1]), env.Len()); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short frame: want ErrTruncated, got %v", err)
	}
}
