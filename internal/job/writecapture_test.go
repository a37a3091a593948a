package job

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rc4break/internal/fleet"
	"rc4break/internal/snapshot"
	"rc4break/internal/trace"
)

// TestWriteCaptureServesExactLane pins the capture writer for each attack
// in both containers: the file's magic matches its extension, its link
// type is the attack's (Ethernet or radiotap), and a lane carved out of it
// through Traces equals the live exact lane byte for byte, so a wrong
// seed, stream or observation count fails as well.
func TestWriteCaptureServesExactLane(t *testing.T) {
	model, err := LoadOrTrainModel("", 8, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	attacks := []struct {
		spec Spec
		n    uint64
		link uint32
	}{
		{Spec{Attack: "cookie", Mode: "exact", Seed: 5, Secret: testSecret}, 300, trace.LinkTypeEthernet},
		{Spec{Attack: "tkip", Mode: "exact", Model: model}, 1500, trace.LinkTypeRadiotap},
	}
	containers := []struct {
		ext   string
		magic []byte
	}{
		{".pcap", []byte{0xd4, 0xc3, 0xb2, 0xa1}},   // little-endian µs pcap
		{".pcapng", []byte{0x0a, 0x0d, 0x0d, 0x0a}}, // section header block
	}
	dir := t.TempDir()
	for _, a := range attacks {
		for _, c := range containers {
			t.Run(a.spec.Attack+c.ext, func(t *testing.T) {
				path := filepath.Join(dir, a.spec.Attack+c.ext)
				size, err := a.spec.WriteCapture(context.Background(), path, a.n)
				if err != nil {
					t.Fatal(err)
				}
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if int64(len(raw)) != size {
					t.Fatalf("WriteCapture reported %d bytes, the file holds %d", size, len(raw))
				}
				if !bytes.HasPrefix(raw, c.magic) {
					t.Fatalf("%s file starts % x, want % x", c.ext, raw[:4], c.magic)
				}
				r, err := trace.NewReader(bytes.NewReader(raw))
				if err != nil {
					t.Fatal(err)
				}
				pkt, err := r.Next()
				if err != nil {
					t.Fatal(err)
				}
				if pkt.LinkType != a.link {
					t.Fatalf("link type %d, want %d", pkt.LinkType, a.link)
				}

				// The lane ends at the file's last observation, so strict
				// ingest also fails on a short file.
				fj := fleet.JobSpec{Mode: "exact", Seed: a.spec.Seed}
				lane := fleet.Lease{Lane: 1, Start: a.n / 3, Records: a.n - a.n/3,
					Stream: snapshot.StreamInfo{Mode: "exact", Seed: a.spec.Seed}}
				live, err := a.spec.CollectLane(fj, lane)
				if err != nil {
					t.Fatal(err)
				}
				traced := a.spec
				traced.Traces = path
				got, err := traced.CollectLane(fj, lane)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, live) {
					t.Fatal("lane served from the written capture differs from the live exact lane")
				}
			})
		}
	}
}

// TestWriteCaptureInterrupted pins the stopped capture write: a write whose
// context is canceled part way returns the context's error and leaves
// nothing in the directory, neither the capture nor its temporary file.
func TestWriteCaptureInterrupted(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	// About 55 MB of frames: seconds of writing unless stopped.
	_, err := Spec{Attack: "tkip", Mode: "exact"}.WriteCapture(ctx, filepath.Join(dir, "big.pcap"), 1<<19)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("WriteCapture returned %v, want the context's cancellation", err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*")); len(left) != 0 {
		t.Fatalf("stopped write left %v", left)
	}
}
