package job

import (
	"bytes"
	"strings"
	"testing"

	"rc4break/internal/cliutil"
	"rc4break/internal/cookieattack"
	"rc4break/internal/fleet"
	"rc4break/internal/snapshot"
	"rc4break/internal/tkip"
)

const testSecret = "Secur3C00kieVal+"

func evidenceOf(t *testing.T, spec Spec, n uint64) []byte {
	t.Helper()
	rt, err := New(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.CaptureTo(n); err != nil {
		t.Fatal(err)
	}
	b, err := rt.Evidence()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestResumeChecks pins the rules New enforces on resumed evidence: it
// must come from the same request layout and the same capture stream, and
// a matching resume continues to the bytes of an uninterrupted capture.
func TestResumeChecks(t *testing.T) {
	spec := Spec{Attack: "cookie", Mode: "exact", Seed: 3, Secret: testSecret}
	half := evidenceOf(t, spec, 64)

	other := spec
	other.Seed = 4
	if _, err := New(other, half); err == nil || !strings.Contains(err.Error(), "stream") {
		t.Fatalf("resume on another seed: got %v, want a stream mismatch", err)
	}
	other = spec
	other.Mode = "model"
	if _, err := New(other, half); err == nil || !strings.Contains(err.Error(), "stream") {
		t.Fatalf("resume in another mode: got %v, want a stream mismatch", err)
	}
	other = spec
	other.Secret = "Other3C00kieVal+"
	if _, err := New(other, half); err == nil || !strings.Contains(err.Error(), "layout") {
		t.Fatalf("resume under another secret: got %v, want a layout mismatch", err)
	}

	rt, err := New(spec, half)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.CaptureTo(128); err != nil {
		t.Fatal(err)
	}
	got, err := rt.Evidence()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, evidenceOf(t, spec, 128)) {
		t.Fatal("resumed exact capture differs from an uninterrupted one")
	}
}

// TestTKIPExactStreamIgnoresSeed pins the rule that the TKIP exact stream
// is the demo session's TSC sequence: every seed yields seed-0 evidence.
func TestTKIPExactStreamIgnoresSeed(t *testing.T) {
	model, err := LoadOrTrainModel("", 8, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := evidenceOf(t, Spec{Attack: "tkip", Mode: "exact", Seed: 7, Model: model}, 256)
	b := evidenceOf(t, Spec{Attack: "tkip", Mode: "exact", Model: model}, 256)
	if !bytes.Equal(a, b) {
		t.Fatal("TKIP exact evidence depends on the seed")
	}
	attack, err := tkip.ReadAttackSnapshot(bytes.NewReader(a), model)
	if err != nil {
		t.Fatal(err)
	}
	if attack.Stream != (snapshot.StreamInfo{Mode: "exact"}) {
		t.Fatalf("stream %+v, want exact/seed 0", attack.Stream)
	}
}

// TestCollectLaneMatchesReference checks a model lane against the
// cookieattack.CollectLane reference, and an exact lane against the same
// range cut out of one continuous capture.
func TestCollectLaneMatchesReference(t *testing.T) {
	spec := Spec{Attack: "cookie", Secret: testSecret}
	fj := fleet.JobSpec{Attack: "cookie", Mode: "model", Seed: 5, Budget: 1 << 12, LaneRecords: 1 << 10}
	lease := fleet.Lease{Lane: 2, Start: 2 << 10, Records: 1 << 10, Stream: fj.LaneStream(2)}
	got, err := spec.CollectLane(fj, lease)
	if err != nil {
		t.Fatal(err)
	}
	cfg, _, err := CookieLayout(testSecret)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := cookieattack.CollectLane(cfg, []byte(testSecret), lease.Stream,
		cliutil.LaneSeed(fj.Seed, lease.Lane), lease.Records, 0)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := ref.WriteSnapshot(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("model lane differs from cookieattack.CollectLane")
	}

	// An exact lane holds records [Start, Start+Records) of the stream:
	// folded onto records [0, Start) of that stream it must give the
	// continuous capture's counts.
	fj.Mode = "exact"
	lease = fleet.Lease{Lane: 1, Start: 64, Records: 64, Stream: fj.LaneStream(1)}
	laneBytes, err := spec.CollectLane(fj, lease)
	if err != nil {
		t.Fatal(err)
	}
	lane, err := cookieattack.ReadSnapshot(bytes.NewReader(laneBytes))
	if err != nil {
		t.Fatal(err)
	}
	stream := Spec{Attack: "cookie", Mode: "exact", Seed: fj.Seed, Secret: testSecret}
	head, err := New(stream, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := head.CaptureTo(64); err != nil {
		t.Fatal(err)
	}
	merged := head.Decoder.(*cookieattack.Attack)
	if err := merged.Merge(lane); err != nil {
		t.Fatal(err)
	}
	merged.Stream = snapshot.StreamInfo{}
	full, err := New(stream, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := full.CaptureTo(128); err != nil {
		t.Fatal(err)
	}
	whole := full.Decoder.(*cookieattack.Attack)
	whole.Stream = snapshot.StreamInfo{}
	var a, b bytes.Buffer
	if err := merged.WriteSnapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := whole.WriteSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("exact lane does not continue the stream at its offset")
	}
}
