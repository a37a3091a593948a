package service

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc64"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rc4break/internal/snapshot"
)

func TestStoreBlobDedupAndRoundTrip(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("evidence snapshot bytes")
	k1, existed, err := st.PutBlob(payload)
	if err != nil || existed {
		t.Fatalf("first put: existed=%v err=%v", existed, err)
	}
	k2, existed, err := st.PutBlob(payload)
	if err != nil || !existed || k2 != k1 {
		t.Fatalf("second put: key=%x existed=%v err=%v, want key=%x existed=true", k2, existed, err, k1)
	}
	// A kill -9 between the temp write and the rename leaves
	// <key>.tmp<random> beside the blob; it is not a blob.
	if err := os.WriteFile(st.blobPath(k1)+".tmp789", []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, _ := st.BlobCount(); n != 1 {
		t.Fatalf("BlobCount after dedup = %d, want 1", n)
	}
	got, err := st.GetBlob(k1)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("GetBlob: %q err=%v", got, err)
	}
	k3, _, err := st.PutBlob([]byte("different payload"))
	if err != nil || k3 == k1 {
		t.Fatalf("distinct payload collided: %x err=%v", k3, err)
	}
	keys, err := st.BlobKeys()
	if err != nil || len(keys) != 2 {
		t.Fatalf("BlobKeys = %v err=%v, want 2 keys", keys, err)
	}
	wantA, wantB := hex.EncodeToString(k1[:]), hex.EncodeToString(k3[:])
	if wantA > wantB {
		wantA, wantB = wantB, wantA
	}
	if keys[0] != wantA || keys[1] != wantB {
		t.Fatalf("BlobKeys = %v, want sorted [%s %s]", keys, wantA, wantB)
	}
}

// TestStoreGetBlobDetectsMismatchedContent rewrites a blob file with a valid
// envelope holding different bytes: the envelope CRC passes but the content
// no longer hashes to its own name, and GetBlob must refuse to serve it.
func TestStoreGetBlobDetectsMismatchedContent(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, _, err := st.PutBlob([]byte("original evidence"))
	if err != nil {
		t.Fatal(err)
	}
	if err := snapshot.WriteFile(st.blobPath(key), blobKind, []byte("swapped evidence")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.GetBlob(key); err == nil {
		t.Fatal("GetBlob served a blob whose content does not match its address")
	}
	// Wrong envelope kind at the right address must also fail.
	if err := snapshot.WriteFile(st.blobPath(key), manifestKind, []byte("original evidence")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.GetBlob(key); err == nil {
		t.Fatal("GetBlob served an envelope of the wrong kind")
	}
}

// TestStoreRefusesOldBlobLayout files a blob as earlier builds wrote it, a
// version-1 (CRC-64) envelope of kind blob.v1 addressed by FNV-1a: GetBlob
// must report the retired layout, not a corrupted store.
func TestStoreRefusesOldBlobLayout(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const kind = "rc4break.service.blob.v1"
	payload := []byte("evidence from an earlier build")
	env := []byte(snapshot.Magic)
	env = binary.BigEndian.AppendUint32(env, 1)
	env = binary.BigEndian.AppendUint32(env, uint32(len(kind)))
	env = append(env, kind...)
	env = binary.BigEndian.AppendUint64(env, uint64(len(payload)))
	env = append(env, payload...)
	env = binary.BigEndian.AppendUint64(env, crc64.Checksum(env, crc64.MakeTable(crc64.ECMA)))
	key, err := ParseKey("0123456789abcdef0123456789abcdef")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.blobPath(key), env, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.GetBlob(key); !errors.Is(err, snapshot.ErrOldLayout) {
		t.Fatalf("GetBlob of a blob.v1 blob: want snapshot.ErrOldLayout, got %v", err)
	}
}

func TestStoreManifests(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mans := []Manifest{
		{ID: "j-0002", Tenant: "t2", State: StateQueued,
			Spec: JobSpec{Attack: "tkip", Mode: "model", TrainKeys: 1 << 10}},
		{ID: "j-0000", Tenant: "t0", State: StateDone,
			Spec:     JobSpec{Attack: "cookie", Mode: "model", Secret: "C00kie", Seed: 7},
			Evidence: "deadbeef", Observed: 1 << 20, Rounds: 2,
			Result: JobResult{Success: true, Plaintext: []byte("C00kie"), Rank: 3, Checks: 11}},
		{ID: "j-0001", Tenant: "t1", State: StateSuspended,
			Spec: JobSpec{Attack: "cookie", Mode: "exact", Secret: "xy", Seed: 9}, Observed: 512},
	}
	for _, m := range mans {
		if err := st.PutManifest(m); err != nil {
			t.Fatalf("put %s: %v", m.ID, err)
		}
	}
	for _, m := range mans {
		got, err := st.GetManifest(m.ID)
		if err != nil {
			t.Fatalf("get %s: %v", m.ID, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("manifest %s round-trip:\n got %+v\nwant %+v", m.ID, got, m)
		}
	}
	// Leftovers of a kill -9 between a manifest's temp write and its
	// rename: a torn temp file and a complete one. Neither is a manifest.
	raw, err := os.ReadFile(filepath.Join(st.Dir(), "jobs", "j-0000"))
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{"j-0001.tmp123": raw[:len(raw)/2], "j-0000.tmp456": raw} {
		if err := os.WriteFile(filepath.Join(st.Dir(), "jobs", name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	all, err := st.Manifests()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 || all[0].ID != "j-0000" || all[1].ID != "j-0001" || all[2].ID != "j-0002" {
		t.Fatalf("Manifests order: got %d entries %v", len(all), []string{all[0].ID, all[1].ID, all[2].ID})
	}
	// Overwrite is an atomic replace.
	upd := mans[0] // j-0002
	upd.State = StateRunning
	if err := st.PutManifest(upd); err != nil {
		t.Fatal(err)
	}
	if got, _ := st.GetManifest("j-0002"); got.State != StateRunning {
		t.Fatalf("updated manifest state = %q, want running", got.State)
	}
	if err := st.PutManifest(Manifest{}); err == nil {
		t.Fatal("PutManifest accepted an empty job ID")
	}
	// A manifest filed under another job's ID would load that job twice.
	if err := os.WriteFile(filepath.Join(st.Dir(), "jobs", "j-0003"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Manifests(); err == nil {
		t.Fatal("Manifests accepted j-0000's manifest filed as j-0003")
	}
}

// FuzzStoreManifest fuzzes the restart scan over an on-disk store: any
// payload in a valid manifest envelope at jobs/j-0000 must give New a
// server or an error, never a panic, and a server must answer List,
// Status and EvidenceBytes for what it loaded. Resume is not called: a
// decoded spec can carry any budget.
func FuzzStoreManifest(f *testing.F) {
	for _, m := range []Manifest{
		{ID: "j-0000", Tenant: "t", State: StateQueued,
			Spec: JobSpec{Attack: "tkip", Mode: "model", TrainKeys: 1 << 10}},
		{ID: "j-0000", Tenant: "t", State: StateDone, Evidence: "deadbeef",
			Spec:   JobSpec{Attack: "cookie", Mode: "model", Secret: "C00kie"},
			Result: JobResult{Success: true, Plaintext: []byte("C00kie"), Rank: 3}},
		{ID: "j-0001", State: StateRunning},
	} {
		b, err := snapshot.EncodeGob(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	st, err := OpenStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(st.Dir(), "jobs", "j-0000")
	f.Fuzz(func(t *testing.T, payload []byte) {
		var env bytes.Buffer
		if err := snapshot.Write(&env, manifestKind, payload); err != nil {
			t.Fatal(err)
		}
		// A plain write, not the fsynced WriteFile: each input replaces
		// the one manifest, and New only reads the store.
		if err := os.WriteFile(path, env.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Store: st})
		if err != nil {
			return
		}
		for _, js := range s.List("") {
			if _, err := s.Status(js.ID); err != nil {
				t.Fatalf("listed job %q has no status: %v", js.ID, err)
			}
			_, _ = s.EvidenceBytes(js.ID)
		}
	})
}
