package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash/crc64"
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

// TestTrailerKnownAnswers pins each half of the version-2 trailer to its
// standard check value, the CRC of "123456789": CRC-32C in the high half,
// CRC-32 (IEEE) in the low half.
func TestTrailerKnownAnswers(t *testing.T) {
	c := checksum{}.update([]byte("123456789"))
	if c.castagnoli != 0xE3069283 || c.ieee != 0xCBF43926 {
		t.Fatalf("CRC-32C %#x, CRC-32 %#x; want 0xe3069283, 0xcbf43926", c.castagnoli, c.ieee)
	}
	if got := (checksum{}).update([]byte("1234")).update([]byte("56789")).sum(); got != 0xE3069283CBF43926 {
		t.Fatalf("trailer over split input = %#x, want 0xe3069283cbf43926", got)
	}
	var buf bytes.Buffer
	if err := Write(&buf, "kat", []byte("123456789")); err != nil {
		t.Fatal(err)
	}
	env := buf.Bytes()
	if v := binary.BigEndian.Uint32(env[MagicLen:]); v != 2 {
		t.Fatalf("Write emitted version %d, want 2", v)
	}
	if got, want := binary.BigEndian.Uint64(env[len(env)-8:]), (checksum{}).update(env[:len(env)-8]).sum(); got != want {
		t.Fatalf("trailer %#x, want CRC-32C||CRC-32 %#x", got, want)
	}
}

// v1Envelope builds a version-1 envelope as earlier builds wrote it: the
// same head and payload, under a CRC-64 (ECMA) trailer.
func v1Envelope(kind string, payload []byte) []byte {
	env := []byte(Magic)
	env = binary.BigEndian.AppendUint32(env, 1)
	env = binary.BigEndian.AppendUint32(env, uint32(len(kind)))
	env = append(env, kind...)
	env = binary.BigEndian.AppendUint64(env, uint64(len(payload)))
	env = append(env, payload...)
	return binary.BigEndian.AppendUint64(env, crc64.Checksum(env, crc64.MakeTable(crc64.ECMA)))
}

// TestVersion1EnvelopeReads reads a CRC-64 envelope through both readers:
// models, datasets, manifests and pool files written before version 2
// must still load.
func TestVersion1EnvelopeReads(t *testing.T) {
	payload := []byte("a model trained by an earlier build")
	env := v1Envelope("old.kind.v1", payload)
	kind, got, err := Read(bytes.NewReader(env))
	if err != nil || kind != "old.kind.v1" || !bytes.Equal(got, payload) {
		t.Fatalf("Read of a v1 envelope: kind %q payload %q err %v", kind, got, err)
	}
	if kind, got, err = Parse(env); err != nil || kind != "old.kind.v1" || !bytes.Equal(got, payload) {
		t.Fatalf("Parse of a v1 envelope: kind %q payload %q err %v", kind, got, err)
	}
	env[len(env)-20] ^= 0x04
	if _, _, err := Parse(env); !errors.Is(err, ErrChecksum) {
		t.Fatalf("flipped v1 payload: want ErrChecksum, got %v", err)
	}
}

// TestVersionFlipCaughtByChecksum relabels each version as the other: the
// version field is covered by the trailer, so the reader checks the wrong
// trailer and must refuse the envelope.
func TestVersionFlipCaughtByChecksum(t *testing.T) {
	var v2 bytes.Buffer
	if err := Write(&v2, "flip.kind", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		env []byte
		to  uint32
	}{{v2.Bytes(), 1}, {v1Envelope("flip.kind", []byte("payload")), 2}} {
		env := append([]byte(nil), c.env...)
		binary.BigEndian.PutUint32(env[MagicLen:], c.to)
		if _, _, err := Parse(env); !errors.Is(err, ErrChecksum) {
			t.Fatalf("version relabelled %d: want ErrChecksum, got %v", c.to, err)
		}
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

// TestBlobKeyIsTruncatedSHA256 pins the address construction: the first 16
// bytes of SHA-256 over the 4-byte big-endian kind length, the kind and
// the payload.
func TestBlobKeyIsTruncatedSHA256(t *testing.T) {
	sum := sha256.Sum256([]byte("\x00\x00\x00\x04blobevidence"))
	if got := BlobKey("blob", []byte("evidence")); !bytes.Equal(got[:], sum[:16]) {
		t.Fatalf("BlobKey = %x, want %x", got, sum[:16])
	}
}
