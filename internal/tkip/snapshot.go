package tkip

import (
	"errors"
	"fmt"
	"io"
	"slices"

	"rc4break/internal/durable"
	"rc4break/internal/online"
	"rc4break/internal/snapshot"
)

// AttackSnapshotKind tags §5.3 capture-state snapshots inside the shared
// envelope format. Version 2 is a column payload (snapshot.WriteColumns):
// an attackHeader, then the per-TSC counts. Version 1 gob snapshots are
// refused with snapshot.ErrOldLayout.
const AttackSnapshotKind = "rc4break.tkip.attack.v2"

// attackHeader is the gob header of an attack snapshot: the attacked
// positions, the fingerprint of the model the statistics will be evaluated
// against, which shard checks before any counter is restored, the frame
// count and the width of the count cells that follow it.
type attackHeader struct {
	ModelFingerprint [16]byte
	Stream           snapshot.StreamInfo
	Positions        []int
	Frames           uint64
	Width            int
}

// header describes the capture state for a snapshot or a merge.
func (a *Attack) header() (attackHeader, error) {
	fp, err := a.Model.Fingerprint()
	if err != nil {
		return attackHeader{}, err
	}
	width := snapshot.CountWidth(a.counts)
	return attackHeader{ModelFingerprint: fp, Stream: a.Stream, Positions: a.Positions, Frames: a.Frames, Width: width}, nil
}

// WriteSnapshot persists the capture state as one checksummed envelope.
func (a *Attack) WriteSnapshot(w io.Writer) error {
	h, err := a.header()
	if err != nil {
		return err
	}
	return snapshot.WriteColumns(w, AttackSnapshotKind, h, h.Width, [][]uint64{a.counts}, nil)
}

// WriteSnapshotFile durably persists the capture state at path.
func (a *Attack) WriteSnapshotFile(path string) error {
	return durable.WriteFile(path, a.WriteSnapshot)
}

// CaptureStream implements online.Evidence.
func (a *Attack) CaptureStream() *snapshot.StreamInfo { return &a.Stream }

// ReadAttackSnapshot reconstructs an attack from a snapshot, binding it to
// model: a fresh attack over the snapshot's positions takes its counters
// through the same check as OpenShard, so the snapshot must have been
// taken against the same trained model (validated by fingerprint).
func ReadAttackSnapshot(r io.Reader, model *PerTSCModel) (*Attack, error) {
	var h attackHeader
	cols, err := snapshot.ReadColumns(r, AttackSnapshotKind, &h)
	if err != nil {
		return nil, err
	}
	a, err := NewAttack(model, h.Positions)
	if err != nil {
		return nil, fmt.Errorf("tkip: snapshot positions invalid: %w", err)
	}
	sh, err := a.shard(h, cols)
	if err != nil {
		return nil, err
	}
	a.Stream = h.Stream
	return a, sh.Merge()
}

// OpenShard implements online.Evidence: snap must hold capture state taken
// against the receiver's model at the receiver's positions. The shard
// keeps snap's columns and adds them into the receiver's counts when
// merged.
func (a *Attack) OpenShard(snap []byte) (online.Shard, error) {
	var h attackHeader
	cols, err := snapshot.OpenColumns(snap, AttackSnapshotKind, &h)
	if err != nil {
		return online.Shard{}, err
	}
	return a.shard(h, cols)
}

// Merge folds another shard's capture statistics into the receiver. Both
// shards must attack the same positions against the same model, so
// independently captured shards combine exactly as if one sniffer had
// observed every frame.
func (a *Attack) Merge(o *Attack) error {
	if o == nil {
		return errors.New("tkip: nil merge source")
	}
	h, err := o.header()
	if err != nil {
		return err
	}
	if err := a.check(h); err != nil {
		return err
	}
	for i, v := range o.counts {
		a.counts[i] += v
	}
	a.Frames += o.Frames
	return nil
}

// check is the one compatibility check on foreign capture state, behind
// resume, -merge and fleet lane uploads: a capture resumed or merged under
// a different model would silently mix likelihood spaces, and one at other
// positions would add unrelated counters. It reads only the receiver's
// configuration.
func (a *Attack) check(h attackHeader) error {
	fp, err := a.Model.Fingerprint()
	if err != nil {
		return err
	}
	if fp != h.ModelFingerprint {
		return errors.New("tkip: capture state was taken against a different model (fingerprint mismatch)")
	}
	if !slices.Equal(h.Positions, a.Positions) {
		return errors.New("tkip: capture state attacks different positions")
	}
	return nil
}

// shard opens a snapshot's columns after check: they must hold exactly the
// receiver's count shape. The returned Merge adds them into the receiver.
func (a *Attack) shard(h attackHeader, cols []byte) (online.Shard, error) {
	if err := a.check(h); err != nil {
		return online.Shard{}, err
	}
	if err := snapshot.CheckColumns(cols, h.Width, len(a.counts), 0); err != nil {
		return online.Shard{}, fmt.Errorf("tkip: snapshot count shape mismatch: %w", err)
	}
	return online.Shard{Stream: h.Stream, Observed: h.Frames, Merge: func() error {
		snapshot.AddCounts(a.counts, cols, h.Width)
		a.Frames += h.Frames
		return nil
	}}, nil
}
