package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("evidence bytes, arbitrary binary \x00\xff")
	if err := Write(&buf, "test.kind.v1", payload); err != nil {
		t.Fatal(err)
	}
	kind, got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if kind != "test.kind.v1" || !bytes.Equal(got, payload) {
		t.Fatalf("round trip mismatch: kind=%q payload=%q", kind, got)
	}
}

func TestRoundTripEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, "empty", nil); err != nil {
		t.Fatal(err)
	}
	kind, got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if kind != "empty" || len(got) != 0 {
		t.Fatalf("empty round trip mismatch: kind=%q len=%d", kind, len(got))
	}
}

func TestBadMagic(t *testing.T) {
	_, _, err := Read(strings.NewReader("NOTASNAPand more bytes here"))
	if !errors.Is(err, ErrNotSnapshot) {
		t.Fatalf("want ErrNotSnapshot, got %v", err)
	}
}

func TestTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, "trunc", []byte("some payload")); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every proper prefix must fail loudly, never decode quietly.
	for _, cut := range []int{0, 3, MagicLen, MagicLen + 2, MagicLen + 8, len(full) / 2, len(full) - 1} {
		_, _, err := Read(bytes.NewReader(full[:cut]))
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: want ErrTruncated, got %v", cut, err)
		}
	}
}

func TestFlippedByteCaughtByChecksum(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, "flip", bytes.Repeat([]byte{0xa5}, 1024)); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Flip one bit in the payload region.
	corrupt := append([]byte(nil), full...)
	corrupt[MagicLen+4+4+len("flip")+8+100] ^= 0x10
	if _, _, err := Read(bytes.NewReader(corrupt)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("payload flip: want ErrChecksum, got %v", err)
	}
	// Flip a bit in the kind region too.
	corrupt = append([]byte(nil), full...)
	corrupt[MagicLen+4+4] ^= 0x01
	if _, _, err := Read(bytes.NewReader(corrupt)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("kind flip: want ErrChecksum, got %v", err)
	}
}

func TestFutureVersionRejectedClearly(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, "vnext", []byte("x")); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	binary.BigEndian.PutUint32(full[MagicLen:], Version+7)
	_, _, err := Read(bytes.NewReader(full))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("want clear version error, got %v", err)
	}
}

func TestGobRoundTripAndKindMismatch(t *testing.T) {
	type state struct {
		Counts []uint64
		N      uint64
	}
	in := state{Counts: []uint64{1, 2, 3}, N: 6}
	var buf bytes.Buffer
	if err := WriteGob(&buf, "state.v1", in); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	var out state
	if err := ReadGob(bytes.NewReader(raw), "state.v1", &out); err != nil {
		t.Fatal(err)
	}
	if out.N != 6 || len(out.Counts) != 3 || out.Counts[2] != 3 {
		t.Fatalf("gob round trip mismatch: %+v", out)
	}
	err := ReadGob(bytes.NewReader(raw), "other.v1", &out)
	if err == nil || !strings.Contains(err.Error(), "other.v1") {
		t.Fatalf("want kind mismatch error, got %v", err)
	}
}

func TestWriteFileGobAtomicAndReadBack(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.snap")
	if err := WriteFileGob(path, "file.v1", []int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// Overwrite (the checkpoint loop does this every interval).
	if err := WriteFileGob(path, "file.v1", []int{4, 5}); err != nil {
		t.Fatal(err)
	}
	var got []int
	if err := ReadFileGob(path, "file.v1", &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 4 {
		t.Fatalf("read back %v", got)
	}
	// No leftover temp files.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}

func TestFingerprintStableAndDiscriminating(t *testing.T) {
	type cfg struct {
		A int
		B []byte
	}
	f1, err := Fingerprint(cfg{A: 1, B: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Fingerprint(cfg{A: 1, B: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Fatal("fingerprint not deterministic")
	}
	f3, err := Fingerprint(cfg{A: 2, B: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if f1 == f3 {
		t.Fatal("fingerprint does not discriminate configs")
	}
}

func TestBlobKeyContentAddressing(t *testing.T) {
	payload := []byte("shared model payload")
	k1 := BlobKey("model.v1", payload)
	k2 := BlobKey("model.v1", append([]byte(nil), payload...))
	if k1 != k2 {
		t.Fatal("identical (kind, payload) must map to one key")
	}
	if BlobKey("model.v2", payload) == k1 {
		t.Fatal("kind must be part of the address")
	}
	mutated := append([]byte(nil), payload...)
	mutated[3] ^= 1
	if BlobKey("model.v1", mutated) == k1 {
		t.Fatal("payload bit flip must change the key")
	}
	// The kind is folded in length-prefixed, so shifting bytes between kind
	// and payload must not alias.
	if BlobKey("ab", []byte("c")) == BlobKey("a", []byte("bc")) {
		t.Fatal("kind/payload boundary must be unambiguous")
	}
	if BlobKey("k", nil) == BlobKey("k", []byte{0}) {
		t.Fatal("empty payload must not alias a zero byte")
	}
}
