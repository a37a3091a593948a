package cookieattack

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

// snapshotBytes is the test's canonical evidence comparison: two attacks
// with bitwise-identical config and evidence serialize identically.
func snapshotBytes(t *testing.T, a *Attack) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSimulateStatisticsParallelBitwiseEqualsSequential(t *testing.T) {
	cookie := "0123456789abcdef"
	cfg := testConfig(cookie)

	run := func(workers int) []byte {
		a, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		a.Workers = workers
		if err := a.SimulateStatistics(rand.New(rand.NewSource(42)), []byte(cookie), 1<<24); err != nil {
			t.Fatal(err)
		}
		return snapshotBytes(t, a)
	}

	sequential := run(1)
	for _, workers := range []int{2, 3, 8, 0} {
		if !bytes.Equal(sequential, run(workers)) {
			t.Fatalf("workers=%d evidence differs from sequential run", workers)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	cookie := "0123456789abcdef"
	cfg := testConfig(cookie)
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SimulateStatistics(rand.New(rand.NewSource(3)), []byte(cookie), 1<<20); err != nil {
		t.Fatal(err)
	}

	raw := snapshotBytes(t, a)
	b, err := ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if b.Records != a.Records || b.Fingerprint() != a.Fingerprint() {
		t.Fatal("snapshot lost records or fingerprint")
	}
	// The resumed attack is fully equivalent: identical serialized state.
	if !bytes.Equal(raw, snapshotBytes(t, b)) {
		t.Fatal("resumed attack serializes differently")
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	cookie := "0123456789abcdef"
	a, err := New(testConfig(cookie))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SimulateStatistics(rand.New(rand.NewSource(4)), []byte(cookie), 1<<16); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cookie.snap")
	if err := a.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshotBytes(t, a), snapshotBytes(t, b)) {
		t.Fatal("file round trip altered evidence")
	}
}

func TestSnapshotCorruptionDetected(t *testing.T) {
	cookie := "0123456789abcdef"
	a, err := New(testConfig(cookie))
	if err != nil {
		t.Fatal(err)
	}
	raw := snapshotBytes(t, a)

	if _, err := ReadSnapshot(bytes.NewReader(raw[:len(raw)/3])); !errors.Is(err, snapshot.ErrTruncated) {
		t.Fatalf("truncated snapshot: want ErrTruncated, got %v", err)
	}
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := ReadSnapshot(bytes.NewReader(flipped)); !errors.Is(err, snapshot.ErrChecksum) {
		t.Fatalf("flipped byte: want ErrChecksum, got %v", err)
	}
}

func TestMergeCombinesShardsAndRejectsMismatch(t *testing.T) {
	cookie := "0123456789abcdef"
	cfg := testConfig(cookie)

	// Two independently-seeded shards versus one pool that observed both
	// shards' evidence: merging must add counters exactly.
	shard1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shard2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := shard1.SimulateStatistics(rand.New(rand.NewSource(100)), []byte(cookie), 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := shard2.SimulateStatistics(rand.New(rand.NewSource(200)), []byte(cookie), 1<<20); err != nil {
		t.Fatal(err)
	}

	pool, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.SimulateStatistics(rand.New(rand.NewSource(100)), []byte(cookie), 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := pool.SimulateStatistics(rand.New(rand.NewSource(200)), []byte(cookie), 1<<20); err != nil {
		t.Fatal(err)
	}

	if err := shard1.Merge(shard2); err != nil {
		t.Fatal(err)
	}
	if shard1.Records != 2<<20 {
		t.Fatalf("merged records %d", shard1.Records)
	}
	for r := range pool.fm {
		if !equalU64(pool.fm[r], shard1.fm[r]) {
			t.Fatalf("link %d FM counts differ between merged shards and single pool", r)
		}
	}

	// A shard captured against a different layout must be rejected.
	otherCfg := testConfig("fedcba9876543210")
	otherCfg.MaxGap = 64
	other, err := New(otherCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := shard1.Merge(other); err == nil {
		t.Fatal("merge across mismatched configs accepted")
	}
}

func equalU64(a, b []uint64) bool {
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

func BenchmarkSimulateStatisticsSequential(b *testing.B) {
	benchmarkSimulate(b, 1)
}

func BenchmarkSimulateStatisticsParallel(b *testing.B) {
	benchmarkSimulate(b, 0)
}

func benchmarkSimulate(b *testing.B, workers int) {
	cookie := "0123456789abcdef"
	cfg := testConfig(cookie)
	a, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	a.Workers = workers
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.SimulateStatistics(rng, []byte(cookie), 1<<28); err != nil {
			b.Fatal(err)
		}
	}
}

// attackStateV1 is the gob payload cookie snapshots carried before the
// column layout, kind rc4break.cookieattack.attack.v1.
type attackStateV1 struct {
	Config      Config
	Fingerprint [16]byte
	Stream      snapshot.StreamInfo
	FM          [][]uint64
	ABSAB       [][]float64
	Records     uint64
}

// TestSnapshotRefusesV1 pins the v1 decision: a gob snapshot of the old
// layout is refused with snapshot.ErrOldLayout by ReadSnapshot and by
// OpenShard, the check behind -resume, -merge and fleet uploads.
func TestSnapshotRefusesV1(t *testing.T) {
	cookie := "0123456789abcdef"
	a, err := New(testConfig(cookie))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SimulateStatistics(rand.New(rand.NewSource(5)), []byte(cookie), 1<<16); err != nil {
		t.Fatal(err)
	}
	var payload, env bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(attackStateV1{Config: a.cfg, Fingerprint: a.fp, FM: a.fm, ABSAB: a.absab, Records: a.Records}); err != nil {
		t.Fatal(err)
	}
	if err := snapshot.Write(&env, "rc4break.cookieattack.attack.v1", payload.Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(bytes.NewReader(env.Bytes())); !errors.Is(err, snapshot.ErrOldLayout) {
		t.Fatalf("ReadSnapshot of a v1 snapshot: want ErrOldLayout, got %v", err)
	}
	if _, err := a.OpenShard(env.Bytes()); !errors.Is(err, snapshot.ErrOldLayout) {
		t.Fatalf("OpenShard of a v1 snapshot: want ErrOldLayout, got %v", err)
	}
}

// TestSnapshotColumnsExact pins the v2 layout of a real lane: counts at
// the narrowest width that holds them, then every ABSAB weight, with no
// byte to spare.
func TestSnapshotColumnsExact(t *testing.T) {
	cookie := "0123456789abcdef"
	a, err := New(testConfig(cookie))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SimulateStatistics(rand.New(rand.NewSource(6)), []byte(cookie), 1<<20); err != nil {
		t.Fatal(err)
	}
	var h attackHeader
	cols, err := snapshot.OpenColumns(snapshotBytes(t, a), SnapshotKind, &h)
	if err != nil {
		t.Fatal(err)
	}
	if h.Width != snapshot.CountWidth(a.fm...) || h.Records != a.Records {
		t.Fatalf("header = width %d, %d records", h.Width, h.Records)
	}
	if want := a.chain << 16 * (h.Width + 8); len(cols) != want {
		t.Fatalf("%d column bytes, want %d", len(cols), want)
	}
}
