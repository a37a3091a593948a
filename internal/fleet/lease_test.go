package fleet

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"rc4break/internal/cookieattack"
	"rc4break/internal/netsim"
	"rc4break/internal/obs"
	"rc4break/internal/online"
	"rc4break/internal/recovery"
	"rc4break/internal/snapshot"
)

// countPool is a Pool whose evidence is only an observation count: every
// upload validates, and a merge adds its records. The lease tests exercise
// the coordinator's lane bookkeeping, not an attack.
type countPool struct{ observed uint64 }

func (p *countPool) Observed() uint64 { return p.observed }

func (p *countPool) Decode(int) (recovery.CandidateSource, error) {
	return nil, errors.New("countPool: nothing to decode")
}

func (p *countPool) Validate(_ []byte, _ snapshot.StreamInfo, records uint64) (Shard, error) {
	return records, nil
}

func (p *countPool) Merge(s Shard) error {
	p.observed += s.(uint64)
	return nil
}

func (p *countPool) WriteSnapshotFile(string) error { return nil }

const testLaneRecords = 1 << 10

// newLeaseCoordinator builds a coordinator over a countPool of lanes lanes,
// the first `merged` of them already in the pool (a resumed checkpoint).
func newLeaseCoordinator(t *testing.T, lanes, merged uint64, ttl time.Duration, tracer *obs.Journal) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(Config{
		Job: JobSpec{
			Attack:      "cookie",
			Mode:        "model",
			Seed:        1,
			Budget:      lanes * testLaneRecords,
			LaneRecords: testLaneRecords,
		},
		Pool:          &countPool{observed: merged * testLaneRecords},
		Oracle:        &netsim.CookieServer{Secret: []byte("x")},
		Cadence:       online.Cadence{First: testLaneRecords},
		MaxCandidates: 1,
		LeaseTTL:      ttl,
		Tracer:        tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// leaseFor asks for a lane on worker's behalf; ok is false on a Wait reply.
func leaseFor(t *testing.T, c *Coordinator, worker string) (lane uint64, ok bool) {
	t.Helper()
	rep := c.handleLease(LeaseRequest{Worker: worker})
	switch rep.kind {
	case kindLease:
		return decode[Lease](t, rep.payload).Lane, true
	case kindWait:
		return 0, false
	}
	t.Fatalf("lease request for %s got %q", worker, rep.kind)
	return 0, false
}

// testLane is the snapshot frame a countPool lane upload carries: any
// well-framed envelope, since countPool never opens it.
var testLane = func() []byte {
	var b bytes.Buffer
	if err := snapshot.Write(&b, "rc4break.fleet.test-lane.v1", []byte("lane")); err != nil {
		panic(err)
	}
	return b.Bytes()
}()

func uploadLane(t *testing.T, c *Coordinator, worker string, lane uint64) Ack {
	t.Helper()
	_, records := c.job.LaneExtent(lane)
	return c.handleEvidence(Evidence{Worker: worker, Lane: lane, Stream: c.job.LaneStream(lane),
		Records: records}, testLane)
}

// laneOutcomes lists the outcome attribute of every fleet.lane span the
// journal holds for lane, in the order the spans ended.
func laneOutcomes(j *obs.Journal, lane uint64) []string {
	var out []string
	for _, r := range j.Snapshot() {
		if r.Name != "fleet.lane" || r.Track != int64(lane) {
			continue
		}
		for _, a := range r.Attrs {
			if a.Key == "outcome" {
				out = append(out, a.Value())
			}
		}
	}
	return out
}

// TestCoordinatorLeaseOrderWaitAndRelease pins lane grants: lowest lane
// first, Wait while every lane is leased or done, and a release that only
// the lease's owner can make.
func TestCoordinatorLeaseOrderWaitAndRelease(t *testing.T) {
	c := newLeaseCoordinator(t, 3, 0, time.Minute, nil)
	for want, w := range []string{"a", "b", "c"} {
		if lane, ok := leaseFor(t, c, w); !ok || lane != uint64(want) {
			t.Fatalf("lease for %s = (%d, %v), want lane %d", w, lane, ok, want)
		}
	}
	if lane, ok := leaseFor(t, c, "d"); ok {
		t.Fatalf("lane %d granted with every lane leased", lane)
	}

	c.handleRelease(Release{Worker: "a", Lane: 1})
	if lane, ok := leaseFor(t, c, "d"); ok {
		t.Fatalf("non-owner release freed lane %d", lane)
	}
	c.handleRelease(Release{Worker: "b", Lane: 1})
	if lane, ok := leaseFor(t, c, "d"); !ok || lane != 1 {
		t.Fatalf("lease after owner release = (%d, %v), want lane 1", lane, ok)
	}

	if ack := uploadLane(t, c, "a", 0); !ack.OK {
		t.Fatalf("upload rejected: %s", ack.Err)
	}
	// Lane 0 is staged now: a late release does not reopen it.
	c.handleRelease(Release{Worker: "a", Lane: 0})
	if lane, ok := leaseFor(t, c, "e"); ok {
		t.Fatalf("lane %d granted with every lane leased or done", lane)
	}
	if uploads, rejected, done := c.Stats(); uploads != 1 || rejected != 0 || done != 1 {
		t.Fatalf("stats = %d/%d/%d, want 1 upload, 0 rejected, 1 lane done", uploads, rejected, done)
	}
}

// TestCoordinatorLeaseExpiry pins the lease clock: once a lease's span is
// LeaseTTL old, the lane goes to the next worker that asks, and the
// expired lease's fleet.lane span ends with outcome "expired".
func TestCoordinatorLeaseExpiry(t *testing.T) {
	const ttl = 20 * time.Millisecond
	j := obs.NewJournal("coordinator", 64)
	c := newLeaseCoordinator(t, 1, 0, ttl, j)
	if lane, ok := leaseFor(t, c, "dead"); !ok || lane != 0 {
		t.Fatalf("first lease = (%d, %v)", lane, ok)
	}
	time.Sleep(2 * ttl)
	if lane, ok := leaseFor(t, c, "rejoined"); !ok || lane != 0 {
		t.Fatalf("lease after expiry = (%d, %v), want lane 0", lane, ok)
	}
	if got := laneOutcomes(j, 0); len(got) != 1 || got[0] != "expired" {
		t.Fatalf("lane 0 span outcomes = %q, want [expired]", got)
	}
	if ack := uploadLane(t, c, "rejoined", 0); !ack.OK {
		t.Fatalf("upload after re-lease rejected: %s", ack.Err)
	}
}

// TestCoordinatorResumeLeasesFromNextMerge pins a resumed coordinator: the
// lanes its checkpoint already holds count as done and are never leased.
func TestCoordinatorResumeLeasesFromNextMerge(t *testing.T) {
	c := newLeaseCoordinator(t, 4, 2, time.Minute, nil)
	if lane, ok := leaseFor(t, c, "w"); !ok || lane != 2 {
		t.Fatalf("first lease after resume = (%d, %v), want lane 2", lane, ok)
	}
	if ack := uploadLane(t, c, "w", 1); ack.OK {
		t.Fatal("upload of a resumed lane accepted")
	}
	if _, _, done := c.Stats(); done != 2 {
		t.Fatalf("lanes done = %d, want 2", done)
	}
}

// TestCoordinatorReleaseEndsLaneSpan pins the span of a released lease: a
// release, a re-lease and an upload of one lane leave two fleet.lane spans,
// the first ended "released" and the second "uploaded".
func TestCoordinatorReleaseEndsLaneSpan(t *testing.T) {
	j := obs.NewJournal("coordinator", 64)
	c := newLeaseCoordinator(t, 1, 0, time.Minute, j)
	leaseFor(t, c, "a")
	c.handleRelease(Release{Worker: "a", Lane: 0})
	if lane, ok := leaseFor(t, c, "b"); !ok || lane != 0 {
		t.Fatalf("re-lease = (%d, %v), want lane 0", lane, ok)
	}
	if ack := uploadLane(t, c, "b", 0); !ack.OK {
		t.Fatalf("upload rejected: %s", ack.Err)
	}
	if got := laneOutcomes(j, 0); len(got) != 2 || got[0] != "released" || got[1] != "uploaded" {
		t.Fatalf("lane 0 span outcomes = %q, want [released uploaded]", got)
	}
}

// serveOnPipe runs one coordinator connection over net.Pipe, which has no
// buffering: every byte the client writes is one the coordinator read. The
// returned channel closes when the coordinator has dropped the connection.
func serveOnPipe(c *Coordinator) (net.Conn, <-chan struct{}) {
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.handleConn(server)
	}()
	return client, done
}

// TestOversizedMessageClosesConnection pins the wire bounds of both frames
// of an upload: a peer whose Evidence header, or whose lane snapshot after
// a valid header, announces a 1 GiB payload is cut off within the frame's
// bound (maxCtrlBytes, maxLaneBytes), and a normal worker on the same
// coordinator still completes its lanes.
func TestOversizedMessageClosesConnection(t *testing.T) {
	c := newLeaseCoordinator(t, 2, 0, time.Minute, nil)

	// oversized is the head of an envelope of kind claiming 1 GiB.
	oversized := func(kind string) []byte {
		var head bytes.Buffer
		head.WriteString(snapshot.Magic)
		head.Write(binary.BigEndian.AppendUint32(nil, snapshot.Version))
		head.Write(binary.BigEndian.AppendUint32(nil, uint32(len(kind))))
		head.WriteString(kind)
		head.Write(binary.BigEndian.AppendUint64(nil, 1<<30))
		return head.Bytes()
	}
	var header bytes.Buffer
	if err := writeMsg(&header, kindEvidence, Evidence{Worker: "w", Stream: c.job.LaneStream(0), Records: testLaneRecords}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		prefix []byte
		bound  int
	}{
		{"evidence header", oversized(kindEvidence), maxCtrlBytes},
		{"lane snapshot", append(header.Bytes(), oversized(cookieattack.SnapshotKind)...), header.Len() + maxLaneBytes},
	} {
		client, done := serveOnPipe(c)
		sent, err := client.Write(tc.prefix)
		chunk := make([]byte, 1<<20)
		for err == nil && sent <= 1<<30 {
			var n int
			n, err = client.Write(chunk)
			sent += n
		}
		if err == nil {
			t.Fatalf("%s: coordinator read a 1 GiB payload", tc.name)
		}
		if sent > tc.bound {
			t.Fatalf("%s: coordinator read %d bytes, bound is %d", tc.name, sent, tc.bound)
		}
		<-done
		client.Close()
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c.Serve(l)
	w := &Worker{
		Addr:    l.Addr().String(),
		ID:      "honest",
		Attack:  "cookie",
		Collect: func(JobSpec, Lease) ([]byte, error) { return testLane, nil },
		MaxWait: 5 * time.Millisecond,
	}
	type result struct {
		stats WorkerStats
		err   error
	}
	res := make(chan result, 1)
	go func() {
		stats, err := w.Run(context.Background())
		res <- result{stats, err}
	}()
	for tries := 0; ; tries++ {
		if _, _, lanes := c.Stats(); lanes == 2 {
			break
		}
		if tries == 2000 {
			t.Fatal("worker did not upload both lanes")
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.Shutdown("test done")
	r := <-res
	if r.err != nil || r.stats.Lanes != 2 {
		t.Fatalf("worker = %+v, %v; want 2 acked lanes", r.stats, r.err)
	}
}

// FuzzCoordinatorDispatch feeds arbitrary bytes into one coordinator
// connection. The coordinator must never panic, and its counters must stay
// consistent: without a resume or a decode round every done lane is a
// staged upload, and no more lanes are done than the job has.
func FuzzCoordinatorDispatch(f *testing.F) {
	var session bytes.Buffer
	for _, err := range []error{
		writeMsg(&session, kindHello, Hello{Worker: "w"}),
		writeMsg(&session, kindLeaseRequest, LeaseRequest{Worker: "w"}),
		writeEvidence(&session, Evidence{Worker: "w", Lane: 0,
			Stream: snapshot.StreamInfo{Mode: "model", Seed: 1}, Records: testLaneRecords}, testLane),
		writeMsg(&session, kindRelease, Release{Worker: "w", Lane: 1}),
		writeMsg(&session, kindLeaseRequest, LeaseRequest{Worker: "w"}),
	} {
		if err != nil {
			f.Fatal(err)
		}
	}
	f.Add(session.Bytes())
	f.Add(session.Bytes()[:session.Len()/2])
	f.Add([]byte(snapshot.Magic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := newLeaseCoordinator(t, 2, 0, time.Minute, nil)
		client, done := serveOnPipe(c)
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			io.Copy(io.Discard, client)
		}()
		client.Write(data)
		client.Close()
		<-done
		<-drained
		uploads, _, lanes := c.Stats()
		if lanes != uploads || lanes > c.job.Lanes() {
			t.Fatalf("stats: %d uploads, %d lanes done of %d", uploads, lanes, c.job.Lanes())
		}
	})
}
