package fleet

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"runtime"
	"strings"
	"testing"

	"rc4break/internal/cliutil"
	"rc4break/internal/cookieattack"
	"rc4break/internal/httpmodel"
	"rc4break/internal/netsim"
	"rc4break/internal/online"
	"rc4break/internal/snapshot"
	"rc4break/internal/tkip"
)

// v2Receiver is one attack's side of a lane upload: the pool that opens
// uploads, one honest lane snapshot, and the column shape the pool wants.
type v2Receiver struct {
	kind          string
	pool          online.Evidence
	lane          []byte
	counts, float int
}

func cookieReceiver(t testing.TB, secret string, records uint64) v2Receiver {
	t.Helper()
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
	lane, err := cookieattack.CollectLane(cfg, []byte(secret), snapshot.StreamInfo{Mode: "model", Seed: 1}, cliutil.LaneSeed(1, 0), records, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := lane.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	cells := (len(secret) + 1) << 16 // chain links × 65,536 digraphs
	return v2Receiver{kind: cookieattack.SnapshotKind, pool: pool, lane: buf.Bytes(), counts: cells, float: cells}
}

func tkipReceiver(t testing.TB) v2Receiver {
	t.Helper()
	positions := []int{3, 4}
	model := tkip.SyntheticModel(4, 1.0/512, 3)
	pool, err := tkip.NewAttack(model, positions)
	if err != nil {
		t.Fatal(err)
	}
	lane, err := tkip.CollectLane(model, positions, []byte{1, 2}, snapshot.StreamInfo{Mode: "model", Seed: 1}, 9, 1<<16, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := lane.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return v2Receiver{kind: tkip.AttackSnapshotKind, pool: pool, lane: buf.Bytes(), counts: 256 * len(positions) * 256}
}

// split returns an honest lane's gob header and count width.
func (r v2Receiver) split(t testing.TB) ([]byte, int) {
	t.Helper()
	_, payload, err := snapshot.Parse(r.lane)
	if err != nil {
		t.Fatal(err)
	}
	n := binary.LittleEndian.Uint32(payload)
	width := (len(payload) - 4 - int(n) - 8*r.float) / r.counts
	return payload[4 : 4+n], width
}

// envelope builds a v2 envelope with a correct checksum around header and
// cols bytes of fill, so that every mutation reaches the column decoder.
func (r v2Receiver) envelope(t testing.TB, header []byte, cols int, fill byte) []byte {
	t.Helper()
	payload := binary.LittleEndian.AppendUint32(nil, uint32(len(header)))
	payload = append(payload, header...)
	payload = append(payload, bytes.Repeat([]byte{fill}, cols)...)
	var env bytes.Buffer
	if err := snapshot.Write(&env, r.kind, payload); err != nil {
		t.Fatal(err)
	}
	return env.Bytes()
}

// FuzzOpenShardV2 feeds crafted v2 lane snapshots, cookie and TKIP, to the
// pools' OpenShard: a mutated gob header, a count width, and a column
// length off the pool's shape by delta bytes. The envelope checksum is
// recomputed, so each input reaches the column decoder. It must never
// panic, and a shard it accepts must merge and count what its header says.
func FuzzOpenShardV2(f *testing.F) {
	receivers := []v2Receiver{cookieReceiver(f, "C", 1<<14), tkipReceiver(f)}
	for i, r := range receivers {
		header, width := r.split(f)
		f.Add(i == 1, header, byte(width), int16(0), byte(1))
		f.Add(i == 1, header, byte(3), int16(0), byte(1))
		f.Add(i == 1, header, byte(width), int16(-1), byte(0xff))
		f.Add(i == 1, header[:len(header)/2], byte(width), int16(0), byte(0))
	}
	f.Fuzz(func(t *testing.T, useTKIP bool, header []byte, width byte, delta int16, fill byte) {
		r := receivers[0]
		if useTKIP {
			r = receivers[1]
		}
		if len(header) > snapshot.MaxColumnHeader {
			return
		}
		cols := int(width%9)*r.counts + 8*r.float + int(delta)
		if cols < 0 {
			cols = 0
		}
		sh, err := r.pool.OpenShard(r.envelope(t, header, cols, fill))
		if err != nil {
			return
		}
		before := r.pool.Observed()
		if err := sh.Merge(); err != nil {
			t.Fatalf("accepted shard failed to merge: %v", err)
		}
		if got := r.pool.Observed() - before; got != sh.Observed {
			t.Fatalf("merge added %d observations, shard declared %d", got, sh.Observed)
		}
	})
}

// TestOpenShardRefusesBeforeAllocating pins the v2 reader's order of
// checks on a full-size 17-link cookie lane: a header declaring a width
// other than 1, 2, 4 or 8 (with columns of that width), a column length
// off by one cell, or a corrupt header is refused without any allocation
// near the lane's size — the header is bounded, and the columns are never
// copied.
func TestOpenShardRefusesBeforeAllocating(t *testing.T) {
	r := cookieReceiver(t, strings.Repeat("C", cookieattack.MaxCookieLen), 1<<20)
	header, width := r.split(t)
	exact := width*r.counts + 8*r.float
	// withWidth is the honest header declaring another count width.
	withWidth := func(w int) []byte {
		var h worstLane
		if err := snapshot.DecodeGob(header, &h); err != nil {
			t.Fatal(err)
		}
		h.Width = w
		var b bytes.Buffer
		if err := gob.NewEncoder(&b).Encode(h); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	garbled := append([]byte(nil), header...)
	for i := len(garbled) / 2; i < len(garbled); i++ {
		garbled[i] = 0xff
	}
	for _, c := range []struct {
		name string
		env  []byte
	}{
		{"width 3", r.envelope(t, withWidth(3), 3*r.counts+8*r.float, 1)},
		{"width 16", r.envelope(t, withWidth(16), 16*r.counts+8*r.float, 1)},
		{"one cell short", r.envelope(t, header, exact-width, 1)},
		{"one cell long", r.envelope(t, header, exact+8, 1)},
		{"garbled header", r.envelope(t, garbled, exact, 1)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := r.pool.OpenShard(c.env)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: crafted lane accepted", c.name)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
			t.Fatalf("%s: refusal allocated %d bytes for a %d-byte lane", c.name, alloc, len(c.env))
		}
	}
	// The honest lane, and its header re-encoded unchanged, open.
	if _, err := r.pool.OpenShard(r.lane); err != nil {
		t.Fatal(err)
	}
	if _, err := r.pool.OpenShard(r.envelope(t, withWidth(width), exact, 1)); err != nil {
		t.Fatalf("re-encoded honest header refused: %v", err)
	}
}
