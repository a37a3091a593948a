package dataset

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rc4break/internal/snapshot"
)

func savedDataset(t *testing.T) (Observer, []byte) {
	t.Helper()
	obs, err := Run(Config{Keys: 64}, func() Observer { return NewSingleByteCounts(8) })
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, obs); err != nil {
		t.Fatal(err)
	}
	return obs, buf.Bytes()
}

func TestSaveWritesVersionedEnvelope(t *testing.T) {
	_, raw := savedDataset(t)
	if string(raw[:snapshot.MagicLen]) != snapshot.Magic {
		t.Fatal("saved dataset missing format magic")
	}
	got, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	s, ok := got.(*SingleByteCounts)
	if !ok || s.Keys != 64 || s.Positions != 8 {
		t.Fatalf("round trip mismatch: %T keys=%d", got, KeysObserved(got))
	}
}

func TestLoadLegacyPreEnvelopeStream(t *testing.T) {
	// Files written before the version marker were bare gob streams with
	// no checksum; Load refuses them.
	obs, err := Run(Config{Keys: 32}, func() Observer { return NewDigraphCounts(4) })
	if err != nil {
		t.Fatal(err)
	}
	var legacy bytes.Buffer
	enc := gob.NewEncoder(&legacy)
	if err := enc.Encode("digraph"); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(obs); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&legacy); !errors.Is(err, snapshot.ErrNotSnapshot) {
		t.Fatalf("legacy gob stream: want ErrNotSnapshot, got %v", err)
	}
}

// observerPayload gob-encodes an observer record (type name, then value)
// in Save's layout, bypassing Save's own checks.
func observerPayload(t testing.TB, name string, obs any) []byte {
	t.Helper()
	var payload bytes.Buffer
	enc := gob.NewEncoder(&payload)
	if err := enc.Encode(name); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(obs); err != nil {
		t.Fatal(err)
	}
	return payload.Bytes()
}

// loadPayload wraps payload in a valid observer envelope and loads it.
func loadPayload(t testing.TB, payload []byte) (Observer, error) {
	t.Helper()
	var env bytes.Buffer
	if err := snapshot.Write(&env, ObserverSnapshotKind, payload); err != nil {
		t.Fatal(err)
	}
	return Load(&env)
}

// TestLoadRejectsMisshapenObserver pins the shape check: counts that do not
// match Positions used to load and then panic in Distribution or
// Probability.
func TestLoadRejectsMisshapenObserver(t *testing.T) {
	for _, c := range []struct {
		name string
		obs  any
	}{
		{"single", &SingleByteCounts{Positions: 4, Counts: make([]uint64, 3), Keys: 1}},
		{"digraph", &DigraphCounts{Positions: 4, Keys: 1}},
	} {
		if got, err := loadPayload(t, observerPayload(t, c.name, c.obs)); err == nil {
			t.Errorf("%s: misshapen observer loaded as %T", c.name, got)
		}
	}
}

// FuzzLoadObserver fuzzes the observer payload inside a valid envelope:
// Load must return an error or an observer whose last cell reads without a
// panic.
func FuzzLoadObserver(f *testing.F) {
	f.Add(observerPayload(f, "single", NewSingleByteCounts(2)))
	f.Add(observerPayload(f, "digraph", NewDigraphCounts(1)))
	f.Add(observerPayload(f, "single", &SingleByteCounts{Positions: 4, Counts: make([]uint64, 3), Keys: 1}))
	f.Add(observerPayload(f, "digraph", &DigraphCounts{Positions: 4, Keys: 1}))
	f.Fuzz(func(t *testing.T, payload []byte) {
		obs, err := loadPayload(t, payload)
		if err != nil {
			return
		}
		switch o := obs.(type) {
		case *SingleByteCounts:
			_ = o.Distribution(o.Positions)
		case *DigraphCounts:
			_ = o.Probability(o.Positions, 255, 255)
		default:
			t.Fatalf("Load returned %T", obs)
		}
	})
}

func TestLoadRejectsFutureVersionClearly(t *testing.T) {
	_, raw := savedDataset(t)
	binary.BigEndian.PutUint32(raw[snapshot.MagicLen:], 99)
	_, err := Load(bytes.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Fatalf("want clear version error, got %v", err)
	}
}

func TestLoadDetectsCorruptionAndTruncation(t *testing.T) {
	_, raw := savedDataset(t)
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x80
	if _, err := Load(bytes.NewReader(flipped)); !errors.Is(err, snapshot.ErrChecksum) {
		t.Fatalf("flipped byte: want ErrChecksum, got %v", err)
	}
	if _, err := Load(bytes.NewReader(raw[:len(raw)/2])); !errors.Is(err, snapshot.ErrTruncated) {
		t.Fatalf("truncated: want ErrTruncated, got %v", err)
	}
}

func TestLoadRejectsForeignEnvelopeKind(t *testing.T) {
	var buf bytes.Buffer
	if err := snapshot.Write(&buf, "rc4break.tkip.model.v1", []byte("not a dataset")); err != nil {
		t.Fatal(err)
	}
	_, err := Load(&buf)
	if err == nil || !strings.Contains(err.Error(), "not an observer dataset") {
		t.Fatalf("want kind error, got %v", err)
	}
}

func TestSaveFileLoadFileRoundTripMatchesStream(t *testing.T) {
	obs, raw := savedDataset(t)
	path := filepath.Join(t.TempDir(), "ds.gob")
	if err := SaveFile(path, obs); err != nil {
		t.Fatal(err)
	}
	got, _, err := LoadFileMeta(path)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, buf.Bytes()) {
		t.Fatal("file and stream serializations diverge")
	}
}

func TestLaneOffsetSelectsDisjointKeySequences(t *testing.T) {
	gen := func(lane uint64) *SingleByteCounts {
		obs, err := Run(Config{Keys: 128, Workers: 1, Lane: lane},
			func() Observer { return NewSingleByteCounts(16) })
		if err != nil {
			t.Fatal(err)
		}
		return obs.(*SingleByteCounts)
	}
	base := gen(0)
	same := gen(0)
	shifted := gen(1 << 20)
	if !equalCounts(base.Counts, same.Counts) {
		t.Fatal("same lane not reproducible")
	}
	if equalCounts(base.Counts, shifted.Counts) {
		t.Fatal("another lane produced identical keys")
	}
	// Both draws carry the same shape and key count — only the keys differ.
	if base.Keys != shifted.Keys {
		t.Fatal("key counts differ")
	}
}

func equalCounts(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSaveFileMetaRoundTripAndDeterminism(t *testing.T) {
	obs, _ := savedDataset(t)
	meta := map[string]uint64{"seed": 7, "lanebase": 65536, "checkpoint-every": 4096}
	dir := t.TempDir()
	p1, p2 := filepath.Join(dir, "a.gob"), filepath.Join(dir, "b.gob")
	if err := SaveFileMeta(p1, obs, meta); err != nil {
		t.Fatal(err)
	}
	if err := SaveFileMeta(p2, obs, meta); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("identical checkpoints serialize differently (map-order nondeterminism?)")
	}

	got, gotMeta, err := LoadFileMeta(p1)
	if err != nil {
		t.Fatal(err)
	}
	if KeysObserved(got) != KeysObserved(obs) {
		t.Fatal("observer altered by meta round trip")
	}
	if len(gotMeta) != 3 || gotMeta["seed"] != 7 || gotMeta["lanebase"] != 65536 || gotMeta["checkpoint-every"] != 4096 {
		t.Fatalf("meta round trip mismatch: %v", gotMeta)
	}

	// Files without meta load with nil meta, and plain Load still reads
	// meta-carrying files (the trailing record is simply not consumed).
	p3 := filepath.Join(dir, "plain.gob")
	if err := SaveFile(p3, obs); err != nil {
		t.Fatal(err)
	}
	_, noMeta, err := LoadFileMeta(p3)
	if err != nil {
		t.Fatal(err)
	}
	if noMeta != nil {
		t.Fatalf("plain file yielded meta %v", noMeta)
	}
	if _, err := Load(bytes.NewReader(b1)); err != nil {
		t.Fatalf("plain load of meta-carrying file: %v", err)
	}
}

func TestLoadCorruptPayloadLengthFailsCleanly(t *testing.T) {
	// A flipped high bit in the payload-length field must end in a clean
	// truncation error, not an attempted huge allocation.
	_, raw := savedDataset(t)
	kindLen := len(ObserverSnapshotKind)
	lenOff := snapshot.MagicLen + 4 + 4 + kindLen // big-endian uint64 length field
	// +2^39: stays under the sanity cap, so the reader must hit EOF and
	// report truncation with memory bounded by the real stream size.
	huge := append([]byte(nil), raw...)
	huge[lenOff+3] ^= 0x80
	if _, err := Load(bytes.NewReader(huge)); !errors.Is(err, snapshot.ErrTruncated) {
		t.Fatalf("corrupt payload length: want ErrTruncated, got %v", err)
	}
	// +2^55: over the cap, rejected outright with a clear message.
	insane := append([]byte(nil), raw...)
	insane[lenOff+1] ^= 0x80
	if _, err := Load(bytes.NewReader(insane)); err == nil || !strings.Contains(err.Error(), "payload length") {
		t.Fatalf("insane payload length: want length error, got %v", err)
	}
}
