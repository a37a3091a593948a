package tkip

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"rc4break/internal/snapshot"
)

func testModelAndPositions(t testing.TB) (*PerTSCModel, []int, []byte) {
	t.Helper()
	positions := TrailerPositions(41) // 12 trailer bytes after a 41-byte MSDU
	model := SyntheticModel(positions[len(positions)-1], 1.0/512, 77)
	pt := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	return model, positions, pt
}

func attackSnapshotBytes(t *testing.T, a *Attack) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSimulateCapturesParallelBitwiseEqualsSequential(t *testing.T) {
	model, positions, pt := testModelAndPositions(t)

	run := func(workers int) []byte {
		a, err := NewAttack(model, positions)
		if err != nil {
			t.Fatal(err)
		}
		a.Workers = workers
		if err := a.SimulateCaptures(rand.New(rand.NewSource(9)), pt, 1<<20); err != nil {
			t.Fatal(err)
		}
		return attackSnapshotBytes(t, a)
	}

	sequential := run(1)
	for _, workers := range []int{2, 5, 16, 0} {
		if !bytes.Equal(sequential, run(workers)) {
			t.Fatalf("workers=%d capture statistics differ from sequential run", workers)
		}
	}
}

func TestAttackSnapshotRoundTrip(t *testing.T) {
	model, positions, pt := testModelAndPositions(t)
	a, err := NewAttack(model, positions)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SimulateCaptures(rand.New(rand.NewSource(2)), pt, 1<<18); err != nil {
		t.Fatal(err)
	}

	raw := attackSnapshotBytes(t, a)
	b, err := ReadAttackSnapshot(bytes.NewReader(raw), model)
	if err != nil {
		t.Fatal(err)
	}
	if b.Frames != a.Frames {
		t.Fatalf("frames %d != %d", b.Frames, a.Frames)
	}
	if !bytes.Equal(raw, attackSnapshotBytes(t, b)) {
		t.Fatal("resumed attack serializes differently")
	}

	// Resuming against a different model must be rejected.
	other := SyntheticModel(positions[len(positions)-1], 1.0/512, 78)
	if _, err := ReadAttackSnapshot(bytes.NewReader(raw), other); err == nil {
		t.Fatal("snapshot accepted under a different model")
	}
}

func TestAttackSnapshotFileAndCorruption(t *testing.T) {
	model, positions, pt := testModelAndPositions(t)
	a, err := NewAttack(model, positions)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SimulateCaptures(rand.New(rand.NewSource(5)), pt, 1<<16); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tkip.snap")
	if err := a.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadAttackSnapshot(bytes.NewReader(file), model)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(attackSnapshotBytes(t, a), attackSnapshotBytes(t, b)) {
		t.Fatal("file round trip altered capture state")
	}

	raw := attackSnapshotBytes(t, a)
	if _, err := ReadAttackSnapshot(bytes.NewReader(raw[:len(raw)-9]), model); !errors.Is(err, snapshot.ErrTruncated) {
		t.Fatalf("truncated: want ErrTruncated, got %v", err)
	}
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x08
	if _, err := ReadAttackSnapshot(bytes.NewReader(flipped), model); !errors.Is(err, snapshot.ErrChecksum) {
		t.Fatalf("flipped byte: want ErrChecksum, got %v", err)
	}
}

func TestAttackMergeShardsEqualSinglePool(t *testing.T) {
	model, positions, pt := testModelAndPositions(t)

	newAttack := func() *Attack {
		a, err := NewAttack(model, positions)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	shard1, shard2, pool := newAttack(), newAttack(), newAttack()
	if err := shard1.SimulateCaptures(rand.New(rand.NewSource(10)), pt, 1<<18); err != nil {
		t.Fatal(err)
	}
	if err := shard2.SimulateCaptures(rand.New(rand.NewSource(20)), pt, 1<<18); err != nil {
		t.Fatal(err)
	}
	if err := pool.SimulateCaptures(rand.New(rand.NewSource(10)), pt, 1<<18); err != nil {
		t.Fatal(err)
	}
	if err := pool.SimulateCaptures(rand.New(rand.NewSource(20)), pt, 1<<18); err != nil {
		t.Fatal(err)
	}

	if err := shard1.Merge(shard2); err != nil {
		t.Fatal(err)
	}
	if shard1.Frames != 2<<18 {
		t.Fatalf("merged frames %d", shard1.Frames)
	}
	if !bytes.Equal(attackSnapshotBytes(t, pool), attackSnapshotBytes(t, shard1)) {
		t.Fatal("merged shards differ from single capture pool")
	}

	// Mismatched positions must be rejected.
	otherPos, err := NewAttack(model, TrailerPositions(40))
	if err != nil {
		t.Fatal(err)
	}
	if err := shard1.Merge(otherPos); err == nil {
		t.Fatal("merge across different positions accepted")
	}
	// Mismatched models must be rejected.
	otherModel := SyntheticModel(positions[len(positions)-1], 1.0/512, 99)
	om, err := NewAttack(otherModel, positions)
	if err != nil {
		t.Fatal(err)
	}
	if err := shard1.Merge(om); err == nil {
		t.Fatal("merge across different models accepted")
	}
}

func TestLoadModelLegacyGobStream(t *testing.T) {
	// Models written before the snapshot envelope were bare gob streams
	// with no version or checksum; LoadModel refuses them.
	m := SyntheticModel(4, 1.0/512, 5)
	var legacy bytes.Buffer
	if err := gob.NewEncoder(&legacy).Encode(m); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(&legacy); !errors.Is(err, snapshot.ErrNotSnapshot) {
		t.Fatalf("legacy gob stream: want ErrNotSnapshot, got %v", err)
	}
}

// FuzzLoadModel fuzzes the model payload inside a valid envelope: LoadModel
// must return an error or a model whose last cell reads without a panic.
func FuzzLoadModel(f *testing.F) {
	for _, st := range []modelState{
		{Positions: 1, Counts: make([]uint64, 65536), Keys: 1},
		{Positions: 1 << 48, Keys: 1},
	} {
		b, err := snapshot.EncodeGob(st)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var env bytes.Buffer
		if err := snapshot.Write(&env, ModelSnapshotKind, payload); err != nil {
			t.Fatal(err)
		}
		m, err := LoadModel(&env)
		if err != nil {
			return
		}
		_ = m.Distribution(255, m.Positions)
		_ = m.Count(255, m.Positions, 255)
	})
}

func TestModelSaveLoadEnvelope(t *testing.T) {
	m := SyntheticModel(4, 1.0/512, 6)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if string(raw[:snapshot.MagicLen]) != snapshot.Magic {
		t.Fatal("saved model missing envelope magic")
	}
	got, err := LoadModel(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	fp1, err := m.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := got.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Fatal("model fingerprint changed across save/load")
	}
	// Corruption is caught before the decoder runs.
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x01
	if _, err := LoadModel(bytes.NewReader(flipped)); !errors.Is(err, snapshot.ErrChecksum) {
		t.Fatalf("flipped model byte: want ErrChecksum, got %v", err)
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

func BenchmarkSimulateCapturesSequential(b *testing.B) {
	benchmarkSimulateCaptures(b, 1)
}

func BenchmarkSimulateCapturesParallel(b *testing.B) {
	benchmarkSimulateCaptures(b, 0)
}

func benchmarkSimulateCaptures(b *testing.B, workers int) {
	model, positions, pt := testModelAndPositions(b)
	a, err := NewAttack(model, positions)
	if err != nil {
		b.Fatal(err)
	}
	a.Workers = workers
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.SimulateCaptures(rng, pt, 9<<20); err != nil {
			b.Fatal(err)
		}
	}
}

// attackStateV1 is the gob payload TKIP capture snapshots carried before
// the column layout, kind rc4break.tkip.attack.v1.
type attackStateV1 struct {
	ModelFingerprint [16]byte
	Stream           snapshot.StreamInfo
	Positions        []int
	Counts           []uint64
	Frames           uint64
}

// TestAttackSnapshotRefusesV1 pins the v1 decision: a gob snapshot of the
// old layout is refused with snapshot.ErrOldLayout by ReadAttackSnapshot
// and by OpenShard, the check behind -resume, -merge and fleet uploads.
func TestAttackSnapshotRefusesV1(t *testing.T) {
	model, positions, pt := testModelAndPositions(t)
	a, err := NewAttack(model, positions)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SimulateCaptures(rand.New(rand.NewSource(4)), pt, 1<<16); err != nil {
		t.Fatal(err)
	}
	fp, err := model.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	var payload, env bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(attackStateV1{ModelFingerprint: fp, Positions: positions, Counts: a.counts, Frames: a.Frames}); err != nil {
		t.Fatal(err)
	}
	if err := snapshot.Write(&env, "rc4break.tkip.attack.v1", payload.Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAttackSnapshot(bytes.NewReader(env.Bytes()), model); !errors.Is(err, snapshot.ErrOldLayout) {
		t.Fatalf("ReadAttackSnapshot of a v1 snapshot: want ErrOldLayout, got %v", err)
	}
	if _, err := a.OpenShard(env.Bytes()); !errors.Is(err, snapshot.ErrOldLayout) {
		t.Fatalf("OpenShard of a v1 snapshot: want ErrOldLayout, got %v", err)
	}
}
