package fleet

import (
	"bytes"
	"encoding/gob"
	"io"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"rc4break/internal/cliutil"
	"rc4break/internal/cookieattack"
	"rc4break/internal/httpmodel"
	"rc4break/internal/netsim"
	"rc4break/internal/online"
	"rc4break/internal/snapshot"
	"rc4break/internal/tkip"
)

// rpcConn drives the wire protocol by hand — the tests that pin what the
// coordinator accepts and rejects at the RPC layer, independent of the
// Worker loop's behavior.
type rpcConn struct {
	t    *testing.T
	conn net.Conn
}

func (r *rpcConn) send(kind string, v any) {
	r.t.Helper()
	if err := writeMsg(r.conn, kind, v); err != nil {
		r.t.Fatal(err)
	}
}

func (r *rpcConn) recv() (string, []byte) {
	r.t.Helper()
	kind, payload, err := readMsg(r.conn)
	if err != nil {
		r.t.Fatal(err)
	}
	return kind, payload
}

func decode[T any](t *testing.T, payload []byte) T {
	t.Helper()
	var v T
	if err := snapshot.DecodeGob(payload, &v); err != nil {
		t.Fatal(err)
	}
	return v
}

// lease asks the coordinator for the next lane.
func (r *rpcConn) lease() Lease {
	r.t.Helper()
	r.send(kindLeaseRequest, LeaseRequest{Worker: "w"})
	kind, payload := r.recv()
	if kind != kindLease {
		r.t.Fatalf("lease request got %q", kind)
	}
	return decode[Lease](r.t, payload)
}

// upload sends one lane's evidence and returns the coordinator's ack.
func (r *rpcConn) upload(ev Evidence) Ack {
	r.t.Helper()
	r.send(kindEvidence, ev)
	kind, payload := r.recv()
	if kind != kindAck {
		r.t.Fatalf("evidence got %q", kind)
	}
	return decode[Ack](r.t, payload)
}

// serve starts a coordinator for job over pool on loopback and returns it
// with the listener's address.
func serve(t *testing.T, job JobSpec, pool Pool, oracle online.Oracle) (*Coordinator, string) {
	t.Helper()
	coord, err := NewCoordinator(Config{Job: job, Pool: pool, Oracle: oracle, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord.Serve(l)
	t.Cleanup(coord.Close)
	return coord, l.Addr().String()
}

// join dials addr and says hello with the job's fingerprint.
func join(t *testing.T, addr string, job JobSpec) *rpcConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	rpc := &rpcConn{t: t, conn: conn}
	rpc.send(kindHello, Hello{Worker: "w", Fingerprint: job.Fingerprint})
	if kind, _ := rpc.recv(); kind != kindWelcome {
		t.Fatalf("hello got %q", kind)
	}
	return rpc
}

// snapshotOf returns a's snapshot bytes.
func snapshotOf(t *testing.T, write func(io.Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEvidenceRPCRejections pins the upload validation: duplicate lane
// uploads, stream identity mismatches, wrong record counts, and foreign
// fingerprints are all refused at the RPC layer — the networked equivalents
// of the checks the offline -merge path applies — for both attacks' pools.
func TestEvidenceRPCRejections(t *testing.T) {
	t.Run("cookie", testCookieRPCRejections)
	t.Run("tkip", testTKIPRPCRejections)
}

func testCookieRPCRejections(t *testing.T) {
	const secret = "C00kie8+"
	req, counterBase, err := netsim.AlignedRequest("site.com", "auth", secret, 64)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cookieattack.Config{
		CookieLen:   len(secret),
		Offset:      req.CookieOffset(),
		Plaintext:   req.Marshal(),
		CounterBase: counterBase,
		MaxGap:      128,
		Charset:     httpmodel.CookieCharset(),
	}
	pool, err := cookieattack.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	job := JobSpec{
		Attack:      "cookie",
		Mode:        "model",
		Seed:        3,
		Budget:      4 << 10,
		LaneRecords: 1 << 10,
		Fingerprint: pool.Fingerprint(),
	}
	coord, addr := serve(t, job, &CookiePool{Attack: pool}, &netsim.CookieServer{Secret: []byte(secret)})

	// A worker with a foreign attack fingerprint is turned away at Hello.
	badConn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	bad := &rpcConn{t: t, conn: badConn}
	bad.send(kindHello, Hello{Worker: "imposter", Fingerprint: [16]byte{0xbd}})
	if kind, payload := bad.recv(); kind != kindStop {
		t.Fatalf("foreign fingerprint got %q, want stop", kind)
	} else if st := decode[Stop](t, payload); !strings.Contains(st.Reason, "fingerprint") {
		t.Fatalf("stop reason %q does not name the fingerprint", st.Reason)
	}
	badConn.Close()

	rpc := join(t, addr, job)
	collect := func(ls Lease) []byte {
		a, err := cookieattack.CollectLane(cfg, []byte(secret), ls.Stream,
			cliutil.LaneSeed(job.Seed, ls.Lane), ls.Records, 0)
		if err != nil {
			t.Fatal(err)
		}
		return snapshotOf(t, a.WriteSnapshot)
	}

	// A clean lane upload is acked.
	ls0 := rpc.lease()
	if ls0.Lane != 0 || ls0.Records != 1<<10 {
		t.Fatalf("first lease = %+v", ls0)
	}
	ev0 := Evidence{Worker: "w", Lane: ls0.Lane, Stream: ls0.Stream, Records: ls0.Records, Snapshot: collect(ls0)}
	if ack := rpc.upload(ev0); !ack.OK {
		t.Fatalf("clean upload rejected: %s", ack.Err)
	}

	// The same lane again — the late twin of a re-leased lane — is a
	// duplicate, rejected like the -merge path rejects a same-stream shard.
	if ack := rpc.upload(ev0); ack.OK || !strings.Contains(ack.Err, "duplicate") {
		t.Fatalf("duplicate upload: ok=%v err=%q", ack.OK, ack.Err)
	}

	// An upload whose declared stream is another lane's does not match its
	// lease and is refused before any decoding happens.
	ls1 := rpc.lease()
	ev := Evidence{Worker: "w", Lane: ls1.Lane, Stream: ls0.Stream, Records: ls1.Records, Snapshot: collect(ls1)}
	if ack := rpc.upload(ev); ack.OK || !strings.Contains(ack.Err, "does not match the lease") {
		t.Fatalf("mismatched stream: ok=%v err=%q", ack.OK, ack.Err)
	}

	// A record count differing from the lease is refused.
	ev = Evidence{Worker: "w", Lane: ls1.Lane, Stream: ls1.Stream, Records: ls1.Records - 1, Snapshot: collect(ls1)}
	if ack := rpc.upload(ev); ack.OK || !strings.Contains(ack.Err, "lease specified") {
		t.Fatalf("short count: ok=%v err=%q", ack.OK, ack.Err)
	}

	// A snapshot whose own stream stamp disagrees with the envelope header
	// fails pool validation.
	wrong := Lease{Lane: ls1.Lane, Records: ls1.Records, Stream: job.LaneStream(3)}
	ev = Evidence{Worker: "w", Lane: ls1.Lane, Stream: ls1.Stream, Records: ls1.Records, Snapshot: collect(wrong)}
	if ack := rpc.upload(ev); ack.OK || !strings.Contains(ack.Err, "snapshot invalid") {
		t.Fatalf("stamp mismatch: ok=%v err=%q", ack.OK, ack.Err)
	}

	// The honest retry of lane 1 still lands.
	ev = Evidence{Worker: "w", Lane: ls1.Lane, Stream: ls1.Stream, Records: ls1.Records, Snapshot: collect(ls1)}
	if ack := rpc.upload(ev); !ack.OK {
		t.Fatalf("honest retry rejected: %s", ack.Err)
	}

	// A released lane comes back immediately: the next lease re-grants it
	// without waiting out the TTL.
	ls2 := rpc.lease()
	rpc.send(kindRelease, Release{Worker: "w", Lane: ls2.Lane})
	if kind, payload := rpc.recv(); kind != kindAck {
		t.Fatalf("release got %q", kind)
	} else if ack := decode[Ack](t, payload); !ack.OK {
		t.Fatalf("release rejected: %s", ack.Err)
	}
	if again := rpc.lease(); again.Lane != ls2.Lane {
		t.Fatalf("re-lease after release got lane %d, want %d", again.Lane, ls2.Lane)
	}

	if uploads, rejected, done := coord.Stats(); uploads != 2 || rejected != 4 || done != 2 {
		t.Fatalf("stats = %d uploads, %d rejected, %d lanes done; want 2/4/2", uploads, rejected, done)
	}
}

// testTKIPRPCRejections drives the TKIP pool's half of the upload checks:
// each bad lane carries a correct Evidence header, so only the pool's
// validation (the attack's OpenShard, then the lease's stream and count)
// can refuse it.
func testTKIPRPCRejections(t *testing.T) {
	positions := []int{3, 4, 5}
	model := tkip.SyntheticModel(5, 1.0/512, 3)
	other := tkip.SyntheticModel(5, 1.0/512, 4)
	pool, err := tkip.NewAttack(model, positions)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := model.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	job := JobSpec{Attack: "tkip", Mode: "model", Seed: 7, Budget: 4 << 9, LaneRecords: 1 << 9, Fingerprint: fp}
	coord, addr := serve(t, job, &TKIPPool{Attack: pool, Model: model}, &tkip.TrailerOracle{})
	rpc := join(t, addr, job)
	collect := func(m *tkip.PerTSCModel, stream snapshot.StreamInfo, lane, frames uint64) []byte {
		a, err := tkip.CollectLane(m, positions, []byte{1, 2, 3}, stream, cliutil.LaneSeed(job.Seed, lane), frames, 0)
		if err != nil {
			t.Fatal(err)
		}
		return snapshotOf(t, a.WriteSnapshot)
	}

	ls := rpc.lease()
	lane := func(snap []byte) Evidence {
		return Evidence{Worker: "w", Lane: ls.Lane, Stream: ls.Stream, Records: ls.Records, Snapshot: snap}
	}
	bad := []struct {
		name, want string
		snap       []byte
	}{
		{"another model", "different model", collect(other, ls.Stream, ls.Lane, ls.Records)},
		{"another stream", "does not match the lease", collect(model, job.LaneStream(3), ls.Lane, ls.Records)},
		{"another count", "lease specified", collect(model, ls.Stream, ls.Lane, ls.Records-1)},
	}
	for _, c := range bad {
		if ack := rpc.upload(lane(c.snap)); ack.OK || !strings.Contains(ack.Err, "snapshot invalid") || !strings.Contains(ack.Err, c.want) {
			t.Fatalf("%s: ok=%v err=%q, want a %q refusal", c.name, ack.OK, ack.Err, c.want)
		}
	}
	if ack := rpc.upload(lane(collect(model, ls.Stream, ls.Lane, ls.Records))); !ack.OK {
		t.Fatalf("honest lane rejected: %s", ack.Err)
	}
	if uploads, rejected, done := coord.Stats(); uploads != 1 || rejected != uint64(len(bad)) || done != 1 {
		t.Fatalf("stats = %d uploads, %d rejected, %d lanes done; want 1/%d/1", uploads, rejected, done, len(bad))
	}
}

// TestJobSpecLanes pins the lane geometry: rounding up, final-lane clamping.
func TestJobSpecLanes(t *testing.T) {
	j := JobSpec{Budget: 2500, LaneRecords: 1000}
	if j.Lanes() != 3 {
		t.Fatalf("lanes = %d", j.Lanes())
	}
	if start, n := j.LaneExtent(0); start != 0 || n != 1000 {
		t.Fatalf("lane 0 extent = %d+%d", start, n)
	}
	if start, n := j.LaneExtent(2); start != 2000 || n != 500 {
		t.Fatalf("lane 2 extent = %d+%d", start, n)
	}
	s := j.LaneStream(2)
	if s.Lane != 2 {
		t.Fatalf("lane stream = %+v", s)
	}
}

// TestWorstCaseLaneFitsWireBound pins maxMsgBytes to the lane it was sized
// for: a cookieattack.MaxCookieLen cookie lane whose every digraph count
// and ABSAB weight takes gob's worst case of 9 bytes. Its evidence must
// reach maxLaneBytes (the worst case is really built) and, as a whole
// Evidence upload, still be sendable.
func TestWorstCaseLaneFitsWireBound(t *testing.T) {
	secret := strings.Repeat("C", cookieattack.MaxCookieLen)
	req, counterBase, err := netsim.AlignedRequest("site.com", "auth", secret, 64)
	if err != nil {
		t.Fatal(err)
	}
	a, err := cookieattack.New(cookieattack.Config{
		CookieLen:   len(secret),
		Offset:      req.CookieOffset(),
		Plaintext:   req.Marshal(),
		CounterBase: counterBase,
		MaxGap:      128,
		Charset:     httpmodel.CookieCharset(),
	})
	if err != nil {
		t.Fatal(err)
	}
	kind, payload, err := snapshot.Read(bytes.NewReader(snapshotOf(t, a.WriteSnapshot)))
	if err != nil {
		t.Fatal(err)
	}
	// Gob matches fields by name, so this struct reads and rewrites the
	// attack's own snapshot payload.
	var lane struct {
		Config      cookieattack.Config
		Fingerprint [16]byte
		Stream      snapshot.StreamInfo
		FM          [][]uint64
		ABSAB       [][]float64
		Records     uint64
	}
	if err := snapshot.DecodeGob(payload, &lane); err != nil {
		t.Fatal(err)
	}
	if len(lane.FM) != cookieattack.MaxCookieLen+1 {
		t.Fatalf("lane has %d chain links, want %d", len(lane.FM), cookieattack.MaxCookieLen+1)
	}
	// Gob sends a float64 byte-reversed as an unsigned integer, so a
	// nonzero low mantissa byte makes it a full 9-byte value.
	worst := math.Float64frombits(0x3ff00000000000ff)
	for r := range lane.FM {
		for c := range lane.FM[r] {
			lane.FM[r][c], lane.ABSAB[r][c] = math.MaxUint64, worst
		}
	}
	lane.Records = math.MaxUint64
	var enc, env bytes.Buffer
	if err := gob.NewEncoder(&enc).Encode(lane); err != nil {
		t.Fatal(err)
	}
	if enc.Len() < maxLaneBytes {
		t.Fatalf("worst-case lane encodes to %d bytes, below maxLaneBytes %d: not the worst case", enc.Len(), maxLaneBytes)
	}
	if err := snapshot.Write(&env, kind, enc.Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := cookieattack.ReadSnapshot(bytes.NewReader(env.Bytes())); err != nil {
		t.Fatalf("worst-case lane is not a valid cookie snapshot: %v", err)
	}
	var wire bytes.Buffer
	ev := Evidence{Worker: "w", Lane: math.MaxUint64, Records: math.MaxUint64, Snapshot: env.Bytes(),
		Stream: snapshot.StreamInfo{Mode: "model", Seed: math.MinInt64, Lane: math.MaxUint64}}
	if err := writeMsg(&wire, kindEvidence, ev); err != nil {
		t.Fatal(err)
	}
	if wire.Len() > maxMsgBytes {
		t.Fatalf("worst-case upload is %d bytes, bound %d", wire.Len(), maxMsgBytes)
	}
	t.Logf("worst-case upload %d bytes of %d", wire.Len(), maxMsgBytes)
}
