// Package snapshot defines the repository's attack-state persistence
// envelope: a versioned, checksummed binary container that every on-disk
// artifact — cookie-attack evidence, TKIP capture state, trained per-TSC
// models, keystream datasets — shares. The paper's collection campaigns run
// for hours across machines (§3.2's ~80-machine cluster, §5.4/§6.3's
// multi-hour captures), so shards must be able to checkpoint, crash, resume,
// and merge without one flipped bit or one mismatched layout silently
// corrupting billions of observations. The envelope gives each consumer:
//
//   - a magic marker, so stale or foreign files fail fast instead of
//     producing an opaque gob decode error;
//   - an explicit format version, so future layouts are rejected with a
//     message naming both versions;
//   - a kind string, so a TKIP model is never decoded as cookie evidence;
//   - a 64-bit checksum trailer over the whole envelope, so truncation and
//     bit flips are detected before any payload reaches a decoder. Version 2
//     envelopes carry CRC-32C (Castagnoli) in the trailer's high half and
//     CRC-32 (IEEE) in its low half, both of the same bytes; version 1
//     envelopes, which this package still reads but no longer writes,
//     carry a CRC-64 (ECMA).
//
// The envelope is deliberately ignorant of its payload's shape. Small
// payloads (models, manifests, fleet messages) are gob-encoded by the
// owning package (WriteGob, EncodeGob). Attack evidence is a column
// payload (columns.go): a small gob header, then the fixed-shape tables as
// raw little-endian columns that readers add straight into their own
// tables.
package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/crc64"
	"io"
	"os"

	"rc4break/internal/durable"
)

// Magic identifies a snapshot envelope; it is the first MagicLen bytes of
// every file the repository's tools write.
const Magic = "RC4BSNAP"

// MagicLen is the length of Magic in bytes.
const MagicLen = len(Magic)

// Version is the envelope format version this package writes and the newest
// it can read. Version 1 differs only in its trailer (see trailerOf).
const Version = 2

// Errors surfaced by Read. ErrNotSnapshot is also how a loader refuses a
// bare gob stream written before the envelope existed.
var (
	ErrNotSnapshot = errors.New("snapshot: not a snapshot envelope (bad magic)")
	ErrChecksum    = errors.New("snapshot: checksum mismatch (file corrupted)")
	ErrTruncated   = errors.New("snapshot: truncated envelope (incomplete write or cut-off file)")
)

// maxKindLen bounds the kind string; anything longer indicates corruption.
const maxKindLen = 256

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum is a version-2 trailer in progress: CRC-32C and CRC-32 (IEEE)
// of the same bytes. The two generator polynomials are coprime, so the
// pair is exactly a degree-64 CRC: it catches every burst error of up to
// 64 bits, and a random corruption passes with probability 2^-64, as the
// version-1 CRC-64 did. hash/crc32 runs both on the CPU's CRC instructions
// (SSE4.2 and carry-less multiply on amd64), several times faster than a
// table-driven CRC-64.
type checksum struct{ castagnoli, ieee uint32 }

// update adds b to both CRCs a chunkLen block at a time, so the second
// pass over each block reads it from cache: a lane envelope being opened is
// usually cold, and two whole passes would read it from memory twice.
func (c checksum) update(b []byte) checksum {
	for len(b) > 0 {
		n := min(len(b), chunkLen)
		c = checksum{crc32.Update(c.castagnoli, castagnoli, b[:n]), crc32.Update(c.ieee, crc32.IEEETable, b[:n])}
		b = b[n:]
	}
	return c
}

func (c checksum) sum() uint64 { return uint64(c.castagnoli)<<32 | uint64(c.ieee) }

// trailerOf returns the trailer an envelope of the given version carries
// over env, everything before the trailer.
func trailerOf(version uint32, env []byte) uint64 {
	if version == 1 {
		return crc64.Checksum(env, crc64.MakeTable(crc64.ECMA))
	}
	return checksum{}.update(env).sum()
}

// fixedLen is the length of an envelope's fixed prefix: magic, version and
// kind length.
const fixedLen = MagicLen + 4 + 4

// MaxFraming is the most an envelope adds around its payload: the fixed
// prefix, the longest kind, the payload length and the checksum trailer.
const MaxFraming = fixedLen + maxKindLen + 8 + 8

// maxPayload bounds a payload length field; anything longer indicates
// corruption.
const maxPayload = 1 << 40

// appendHead appends an envelope's head, everything before the payload.
func appendHead(b []byte, kind string, payloadLen int) ([]byte, error) {
	if len(kind) == 0 || len(kind) > maxKindLen {
		return nil, fmt.Errorf("snapshot: kind length %d out of range [1,%d]", len(kind), maxKindLen)
	}
	b = append(b, Magic...)
	b = binary.BigEndian.AppendUint32(b, Version)
	b = binary.BigEndian.AppendUint32(b, uint32(len(kind)))
	b = append(b, kind...)
	return binary.BigEndian.AppendUint64(b, uint64(payloadLen)), nil
}

// Write emits one envelope: magic, version, kind, payload, checksum
// trailer.
func Write(w io.Writer, kind string, payload []byte) error {
	header, err := appendHead(make([]byte, 0, MaxFraming), kind, len(payload))
	if err != nil {
		return err
	}
	crc := checksum{}.update(header).update(payload)

	if _, err := w.Write(header); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var trailer [8]byte
	binary.BigEndian.PutUint64(trailer[:], crc.sum())
	_, err = w.Write(trailer[:])
	return err
}

// Read parses one envelope, verifying magic, version, and checksum. It
// returns the kind and payload. A stream that does not start with the magic
// yields ErrNotSnapshot; short streams yield ErrTruncated; a trailer
// mismatch yields ErrChecksum.
func Read(r io.Reader) (kind string, payload []byte, err error) {
	head, total, err := readHead(r)
	if err != nil {
		return "", nil, err
	}
	// Copy incrementally rather than trusting the untrusted length field
	// with one up-front allocation: a corrupt length on a short file ends
	// at ErrTruncated with memory bounded by the actual stream size.
	env := bytes.NewBuffer(head)
	if n, err := io.CopyN(env, r, int64(total)-int64(len(head))); err != nil {
		if err == io.EOF && n < int64(total)-int64(len(head)) {
			return "", nil, ErrTruncated
		}
		return "", nil, err
	}
	return Parse(env.Bytes())
}

// ReadFrame reads one envelope from r and returns its bytes verbatim,
// checksum unverified, for a reader that hands them on to Parse: the
// fleet coordinator reads each lane upload this way and its pool's
// OpenShard verifies it, so the lane is checksummed once. An envelope
// longer than max is refused from its head alone, before anything is
// allocated for its payload; one within max is read into one buffer of
// its exact size.
func ReadFrame(r io.Reader, max int) ([]byte, error) {
	head, total, err := readHead(r)
	if err != nil {
		return nil, err
	}
	if total > uint64(max) {
		return nil, fmt.Errorf("snapshot: %d-byte envelope exceeds the %d-byte bound", total, max)
	}
	env := make([]byte, total)
	copy(env, head)
	if err := readFull(r, env[len(head):]); err != nil {
		return nil, err
	}
	return env, nil
}

// readHead reads an envelope's head (magic, version, kind and payload
// length) and returns it with the envelope's total length.
func readHead(r io.Reader) (head []byte, total uint64, err error) {
	head = make([]byte, fixedLen, MaxFraming)
	if err := readFull(r, head); err != nil {
		return nil, 0, err
	}
	_, kindLen, err := checkPrefix(head)
	if err != nil {
		return nil, 0, err
	}
	head = head[:fixedLen+kindLen+8]
	if err := readFull(r, head[fixedLen:]); err != nil {
		return nil, 0, err
	}
	payloadLen := binary.BigEndian.Uint64(head[len(head)-8:])
	if payloadLen > maxPayload {
		return nil, 0, fmt.Errorf("snapshot: corrupt payload length %d", payloadLen)
	}
	return head, uint64(len(head)) + payloadLen + 8, nil
}

// checkPrefix validates an envelope's fixed prefix and returns its version
// and kind length.
func checkPrefix(fixed []byte) (uint32, int, error) {
	if string(fixed[:MagicLen]) != Magic {
		return 0, 0, ErrNotSnapshot
	}
	version := binary.BigEndian.Uint32(fixed[MagicLen:])
	if version == 0 || version > Version {
		return 0, 0, fmt.Errorf("snapshot: envelope version %d not supported (this build reads up to version %d)", version, Version)
	}
	kindLen := binary.BigEndian.Uint32(fixed[MagicLen+4:])
	if kindLen == 0 || kindLen > maxKindLen {
		return 0, 0, fmt.Errorf("snapshot: corrupt kind length %d", kindLen)
	}
	return version, int(kindLen), nil
}

// Parse verifies the one envelope env holds, as Read does for a stream,
// and returns its kind and payload. The payload aliases env: nothing is
// copied, so opening a multi-megabyte upload costs one checksum pass. The
// version field picks the trailer, so version 1 envelopes still verify.
func Parse(env []byte) (kind string, payload []byte, err error) {
	if len(env) < fixedLen {
		return "", nil, ErrTruncated
	}
	version, kindLen, err := checkPrefix(env)
	if err != nil {
		return "", nil, err
	}
	if len(env) < fixedLen+kindLen+8 {
		return "", nil, ErrTruncated
	}
	kind = string(env[fixedLen : fixedLen+kindLen])
	payloadLen := binary.BigEndian.Uint64(env[fixedLen+kindLen:])
	body := env[fixedLen+kindLen+8:]
	if payloadLen > maxPayload {
		return "", nil, fmt.Errorf("snapshot: corrupt payload length %d", payloadLen)
	}
	if uint64(len(body)) < payloadLen+8 {
		return "", nil, ErrTruncated
	}
	if extra := uint64(len(body)) - payloadLen - 8; extra != 0 {
		return "", nil, fmt.Errorf("snapshot: %d stray bytes after the envelope", extra)
	}
	end := len(env) - 8
	if binary.BigEndian.Uint64(env[end:]) != trailerOf(version, env[:end]) {
		return "", nil, ErrChecksum
	}
	return kind, body[:payloadLen:payloadLen], nil
}

func readFull(r io.Reader, buf []byte) error {
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return ErrTruncated
		}
		return err
	}
	return nil
}

// WriteGob gob-encodes v and writes it as an envelope of the given kind.
func WriteGob(w io.Writer, kind string, v any) error {
	payload, err := EncodeGob(v)
	if err != nil {
		return err
	}
	return Write(w, kind, payload)
}

// EncodeGob gob-encodes v into a standalone payload — the producer half of
// the wire framing: a network peer sends the payload inside an envelope
// (Write), and the receiver dispatches on the envelope kind before decoding
// (DecodeGob). The payload's gob type IDs are renumbered canonically (see
// canonicalGob), so its bytes depend only on v, never on which types the
// process encoded before.
func EncodeGob(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return canonicalGob(buf.Bytes())
}

// DecodeGob decodes an envelope payload previously produced by EncodeGob or
// WriteGob. It exists for readers that must inspect the envelope kind before
// choosing a destination type — the RPC pattern: Read the envelope, switch
// on kind, DecodeGob into the matching message struct. The envelope is
// already self-delimiting (length-prefixed) and checksummed, so one envelope
// per message is the repository's whole wire protocol.
func DecodeGob(payload []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(payload)).Decode(v)
}

// ReadGob reads one envelope, checks it carries wantKind, and gob-decodes
// the payload into v.
func ReadGob(r io.Reader, wantKind string, v any) error {
	kind, payload, err := Read(r)
	if err != nil {
		return err
	}
	if kind != wantKind {
		return fmt.Errorf("snapshot: envelope holds %q, want %q", kind, wantKind)
	}
	return gob.NewDecoder(bytes.NewReader(payload)).Decode(v)
}

// WriteFile atomically persists an envelope at path through
// durable.WriteFile: a crash mid-write never leaves a torn checkpoint, and
// the previous checkpoint, if any, survives intact.
func WriteFile(path, kind string, payload []byte) error {
	return durable.WriteFile(path, func(w io.Writer) error { return Write(w, kind, payload) })
}

// WriteFileGob atomically persists v as a gob-encoded envelope at path (see
// WriteFile for the crash-safety guarantees).
func WriteFileGob(path, kind string, v any) error {
	payload, err := EncodeGob(v)
	if err != nil {
		return err
	}
	return WriteFile(path, kind, payload)
}

// ReadFileGob loads an envelope of wantKind from path into v.
func ReadFileGob(path, wantKind string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return ReadGob(f, wantKind, v)
}

// BlobKey is the content address of an envelope in a content-addressed
// store: a 16-byte digest over the kind and the payload bytes, so two
// envelopes carry the same key iff they carry the same kind and bitwise
// payload. It is SHA-256, truncated to 16 bytes, over the kind
// length-prefixed (so ("ab", "c") and ("a", "bc") cannot collide) and then
// the payload. The store re-derives keys on read, so a corrupted blob fails
// lookup rather than serving wrong bytes.
func BlobKey(kind string, payload []byte) [16]byte {
	h := sha256.New()
	h.Write(binary.BigEndian.AppendUint32(nil, uint32(len(kind))))
	io.WriteString(h, kind)
	h.Write(payload)
	var out [16]byte
	copy(out[:], h.Sum(nil))
	return out
}

// StreamInfo identifies the capture stream a snapshot's evidence came from:
// the collection mode and the seed its source streams derive from. Resuming
// an exact-mode capture only makes sense against the same stream (the
// resumed process fast-forwards past the records the snapshot already
// holds), so drivers validate this before continuing a shard. Typed fields,
// not a map, keep the gob encoding deterministic — snapshot bytes stay
// comparable across identical runs.
type StreamInfo struct {
	Mode string // "exact" | "model" | "" (unset / library-level use)
	Seed int64
	// Lane subdivides one (Mode, Seed) stream into disjoint capture lanes —
	// the fleet coordinator leases lane k of a stream to one worker at a
	// time, and duplicate-upload rejection compares the full identity
	// including the lane. Zero for whole-stream shards (gob omits zero
	// fields, so pre-lane snapshots decode and encode identically).
	Lane uint64
}

// Fingerprint is a stable 16-byte digest of a gob-encodable configuration
// value, used to reject merges and resumes across mismatched layouts (a
// shard captured against a different plaintext, model, or position set).
// FNV-1a over the canonical gob stream (EncodeGob) is deterministic for a
// fixed value in any process and ample for accident detection; this is an
// integrity check, not an authenticator.
func Fingerprint(v any) ([16]byte, error) {
	var out [16]byte
	b, err := EncodeGob(v)
	if err != nil {
		return out, err
	}
	// Two independent 64-bit FNV-1a passes (the second over the reversed
	// stream) fill the 128-bit fingerprint.
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h1 := uint64(offset64)
	for _, c := range b {
		h1 = (h1 ^ uint64(c)) * prime64
	}
	h2 := uint64(offset64)
	for i := len(b) - 1; i >= 0; i-- {
		h2 = (h2 ^ uint64(b[i])) * prime64
	}
	binary.BigEndian.PutUint64(out[:8], h1)
	binary.BigEndian.PutUint64(out[8:], h2)
	return out, nil
}
