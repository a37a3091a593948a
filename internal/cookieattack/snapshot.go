package cookieattack

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"rc4break/internal/online"
	"rc4break/internal/snapshot"
)

// SnapshotKind tags cookie-attack evidence snapshots inside the shared
// envelope format.
const SnapshotKind = "rc4break.cookieattack.attack.v1"

// attackState is the gob payload of an attack snapshot: the full
// configuration (so a resume rebuilds the anchors without external input),
// the config fingerprint (so merges across mismatched layouts are rejected
// before any counter is touched), and the accumulated evidence.
type attackState struct {
	Config      Config
	Fingerprint [16]byte
	Stream      snapshot.StreamInfo
	FM          [][]uint64
	ABSAB       [][]float64
	Records     uint64
}

// configFingerprint digests the request layout every shard must share for
// its evidence to be mergeable.
func configFingerprint(cfg Config) ([16]byte, error) {
	return snapshot.Fingerprint(cfg)
}

// Fingerprint identifies the attack's configuration; two attacks merge only
// if their fingerprints match.
func (a *Attack) Fingerprint() [16]byte { return a.fp }

// WriteSnapshot persists the attack's evidence as one checksummed envelope.
// Snapshots are safe to take mid-capture: OpenShard reads them back for
// resume, -merge and fleet lane uploads.
func (a *Attack) WriteSnapshot(w io.Writer) error {
	return snapshot.WriteGob(w, SnapshotKind, a.state())
}

// WriteSnapshotFile durably persists the attack's evidence at path.
func (a *Attack) WriteSnapshotFile(path string) error {
	return snapshot.WriteFileGob(path, SnapshotKind, a.state())
}

func (a *Attack) state() attackState {
	return attackState{
		Config:      a.cfg,
		Fingerprint: a.fp,
		Stream:      a.Stream,
		FM:          a.fm,
		ABSAB:       a.absab,
		Records:     a.Records,
	}
}

// CaptureStream implements online.Evidence.
func (a *Attack) CaptureStream() *snapshot.StreamInfo { return &a.Stream }

// ReadSnapshot reconstructs an attack from a snapshot written by
// WriteSnapshot: the embedded config rebuilds the anchor layout through New,
// then the persisted evidence is merged into the fresh accumulators through
// the same check as OpenShard.
func ReadSnapshot(r io.Reader) (*Attack, error) {
	var st attackState
	if err := snapshot.ReadGob(r, SnapshotKind, &st); err != nil {
		return nil, err
	}
	a, err := New(st.Config)
	if err != nil {
		return nil, fmt.Errorf("cookieattack: snapshot config invalid: %w", err)
	}
	sh, err := a.shard(st)
	if err != nil {
		return nil, err
	}
	a.Stream = st.Stream
	return a, sh.Merge()
}

// OpenShard implements online.Evidence: snap must hold evidence captured
// against the receiver's request layout.
func (a *Attack) OpenShard(snap []byte) (online.Shard, error) {
	var st attackState
	if err := snapshot.ReadGob(bytes.NewReader(snap), SnapshotKind, &st); err != nil {
		return online.Shard{}, err
	}
	return a.shard(st)
}

// Merge folds another shard's evidence into the receiver. Both shards must
// have been captured against the same request layout, so independently
// collected shards (different machines, seeds, or capture windows) combine
// into one evidence pool exactly as if a single process had observed every
// record.
func (a *Attack) Merge(o *Attack) error {
	if o == nil {
		return errors.New("cookieattack: nil merge source")
	}
	sh, err := a.shard(o.state())
	if err != nil {
		return err
	}
	return sh.Merge()
}

// shard is the one compatibility check on foreign evidence, behind
// resume, -merge and fleet lane uploads: st must carry the receiver's
// request-layout fingerprint and evidence of the receiver's shape. It reads
// only the receiver's configuration; the returned Merge adds st's counters.
func (a *Attack) shard(st attackState) (online.Shard, error) {
	if st.Fingerprint != a.fp {
		return online.Shard{}, errors.New("cookieattack: evidence was captured against a different request layout (fingerprint mismatch)")
	}
	shaped := len(st.FM) == a.chain && len(st.ABSAB) == a.chain
	for r := 0; shaped && r < a.chain; r++ {
		shaped = len(st.FM[r]) == 65536 && len(st.ABSAB[r]) == 65536
	}
	if !shaped {
		return online.Shard{}, errors.New("cookieattack: snapshot evidence shape mismatch")
	}
	return online.Shard{Stream: st.Stream, Observed: st.Records, Merge: func() error {
		for r := 0; r < a.chain; r++ {
			dst, fdst := a.fm[r], a.absab[r]
			for i, v := range st.FM[r] {
				dst[i] += v
			}
			for i, v := range st.ABSAB[r] {
				fdst[i] += v
			}
		}
		a.Records += st.Records
		return nil
	}}, nil
}
