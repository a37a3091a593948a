package service

import (
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"rc4break/internal/online"
)

// TestManifestFromBeforeJobSpec restarts a server over manifests the store
// wrote before service.JobSpec became an alias of job.Spec: the files in
// testdata/store-e630928/jobs were written by Store.PutManifest at commit
// e630928 (two queued jobs and one finished one). Gob resolves fields by
// name, so they must decode field for field, stay valid under today's
// Normalize, resume to exactly what SoloRun of their spec produces, and
// report the finished job's stored result.
func TestManifestFromBeforeJobSpec(t *testing.T) {
	dir := t.TempDir()
	for _, sub := range []string{"jobs", "blobs"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	golden := filepath.Join("testdata", "store-e630928", "jobs")
	names, err := os.ReadDir(golden)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range names {
		raw, err := os.ReadFile(filepath.Join(golden, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "jobs", e.Name()), raw, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mans, err := st.Manifests()
	if err != nil {
		t.Fatal(err)
	}
	want := []JobSpec{
		{Attack: "cookie", Mode: "model", Seed: 3, Secret: "C00kie", Budget: 1 << 16, FirstDecode: 1 << 15,
			MaxCandidates: 1 << 8, CaptureChunk: 1 << 14, CheckpointRounds: 1, TraceID: "ab54a98ceb1f0ad2"},
		{Attack: "tkip", Mode: "model", Seed: 5, Budget: 1 << 16, FirstDecode: 1 << 15,
			MaxCandidates: 1 << 8, CaptureChunk: 1 << 14, CheckpointRounds: 2, TrainKeys: 16},
		{Attack: "cookie", Mode: "exact", Seed: 9, Secret: "xy", Budget: 512, FirstDecode: 256,
			MaxCandidates: 1 << 13, CaptureChunk: 128, CheckpointRounds: 1},
	}
	if len(mans) != len(want) {
		t.Fatalf("decoded %d manifests, want %d", len(mans), len(want))
	}
	for i, m := range mans {
		if m.Spec != want[i] {
			t.Fatalf("manifest %s spec:\n got %+v\nwant %+v", m.ID, m.Spec, want[i])
		}
		if norm, err := m.Spec.Normalize(); err != nil || norm != m.Spec {
			t.Fatalf("manifest %s spec no longer normalizes to itself: %+v, %v", m.ID, norm, err)
		}
	}

	srv, err := New(Config{Store: st, Capacity: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if n := srv.Resume(); n != 2 {
		t.Fatalf("Resume relaunched %d jobs, want the 2 queued ones", n)
	}
	srv.Wait()
	for i, id := range []string{"j-0000", "j-0001"} {
		res, snap, runErr := SoloRun(want[i])
		if runErr != nil && !errors.Is(runErr, online.ErrBudgetExhausted) {
			t.Fatal(runErr)
		}
		got, err := srv.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if got.State != StateDone || got.Success != (runErr == nil) || got.Rank != res.Rank || got.Observed != res.Observed {
			t.Errorf("resumed %s: %+v, want SoloRun's %+v (err %v)", id, got, res, runErr)
		}
		ev, err := srv.EvidenceBytes(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ev, snap) {
			t.Errorf("resumed %s: evidence differs from SoloRun's", id)
		}
	}
	done, err := srv.Status("j-0002")
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone || !done.Success || done.Rank != 3 || done.Rounds != 2 || done.Plaintext != hex.EncodeToString([]byte("xy")) {
		t.Errorf("finished job reported as %+v", done)
	}
}
