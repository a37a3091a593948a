package tkip

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"

	"rc4break/internal/online"
	"rc4break/internal/snapshot"
)

// AttackSnapshotKind tags §5.3 capture-state snapshots inside the shared
// envelope format.
const AttackSnapshotKind = "rc4break.tkip.attack.v1"

// attackState is the gob payload of an attack snapshot: the attacked
// positions and per-TSC ciphertext histograms, plus the fingerprint of the
// model the statistics will be evaluated against, which shard checks
// before any counter is restored.
type attackState struct {
	ModelFingerprint [16]byte
	Stream           snapshot.StreamInfo
	Positions        []int
	Counts           []uint64
	Frames           uint64
}

func (a *Attack) state() (attackState, error) {
	fp, err := a.Model.Fingerprint()
	if err != nil {
		return attackState{}, err
	}
	return attackState{
		ModelFingerprint: fp,
		Stream:           a.Stream,
		Positions:        a.Positions,
		Counts:           a.counts,
		Frames:           a.Frames,
	}, nil
}

// WriteSnapshot persists the capture state as one checksummed envelope.
func (a *Attack) WriteSnapshot(w io.Writer) error {
	st, err := a.state()
	if err != nil {
		return err
	}
	return snapshot.WriteGob(w, AttackSnapshotKind, st)
}

// WriteSnapshotFile durably persists the capture state at path.
func (a *Attack) WriteSnapshotFile(path string) error {
	st, err := a.state()
	if err != nil {
		return err
	}
	return snapshot.WriteFileGob(path, AttackSnapshotKind, st)
}

// CaptureStream implements online.Evidence.
func (a *Attack) CaptureStream() *snapshot.StreamInfo { return &a.Stream }

// ReadAttackSnapshot reconstructs an attack from a snapshot, binding it to
// model: a fresh attack over the snapshot's positions takes its counters
// through the same check as OpenShard, so the snapshot must have been
// taken against the same trained model (validated by fingerprint).
func ReadAttackSnapshot(r io.Reader, model *PerTSCModel) (*Attack, error) {
	var st attackState
	if err := snapshot.ReadGob(r, AttackSnapshotKind, &st); err != nil {
		return nil, err
	}
	a, err := NewAttack(model, st.Positions)
	if err != nil {
		return nil, fmt.Errorf("tkip: snapshot positions invalid: %w", err)
	}
	sh, err := a.shard(st)
	if err != nil {
		return nil, err
	}
	a.Stream = st.Stream
	return a, sh.Merge()
}

// OpenShard implements online.Evidence: snap must hold capture state taken
// against the receiver's model at the receiver's positions.
func (a *Attack) OpenShard(snap []byte) (online.Shard, error) {
	var st attackState
	if err := snapshot.ReadGob(bytes.NewReader(snap), AttackSnapshotKind, &st); err != nil {
		return online.Shard{}, err
	}
	return a.shard(st)
}

// Merge folds another shard's capture statistics into the receiver. Both
// shards must attack the same positions against the same model, so
// independently captured shards combine exactly as if one sniffer had
// observed every frame.
func (a *Attack) Merge(o *Attack) error {
	if o == nil {
		return errors.New("tkip: nil merge source")
	}
	st, err := o.state()
	if err != nil {
		return err
	}
	sh, err := a.shard(st)
	if err != nil {
		return err
	}
	return sh.Merge()
}

// shard is the one compatibility check on foreign capture state, behind
// resume, -merge and fleet lane uploads: a capture resumed or merged under
// a different model would silently mix likelihood spaces, and one at other
// positions would add unrelated counters. It reads only the receiver's
// configuration; the returned Merge adds st's counters.
func (a *Attack) shard(st attackState) (online.Shard, error) {
	fp, err := a.Model.Fingerprint()
	if err != nil {
		return online.Shard{}, err
	}
	if fp != st.ModelFingerprint {
		return online.Shard{}, errors.New("tkip: capture state was taken against a different model (fingerprint mismatch)")
	}
	if !slices.Equal(st.Positions, a.Positions) {
		return online.Shard{}, errors.New("tkip: capture state attacks different positions")
	}
	if len(st.Counts) != len(a.counts) {
		return online.Shard{}, errors.New("tkip: snapshot count shape mismatch")
	}
	return online.Shard{Stream: st.Stream, Observed: st.Frames, Merge: func() error {
		for i, v := range st.Counts {
			a.counts[i] += v
		}
		a.Frames += st.Frames
		return nil
	}}, nil
}
