package cookieattack

import (
	"errors"
	"fmt"
	"io"

	"rc4break/internal/durable"
	"rc4break/internal/online"
	"rc4break/internal/snapshot"
)

// SnapshotKind tags cookie-attack evidence snapshots inside the shared
// envelope format. Version 2 is a column payload (snapshot.WriteColumns):
// an attackHeader, then the FM counts and the ABSAB weights, link by link.
// Version 1 gob snapshots are refused with snapshot.ErrOldLayout.
const SnapshotKind = "rc4break.cookieattack.attack.v2"

// attackHeader is the gob header of an attack snapshot: the full
// configuration (so a resume rebuilds the anchors without external input),
// the config fingerprint (so merges across mismatched layouts are rejected
// before any counter is touched), the record count and the width of the
// FM count cells that follow it.
type attackHeader struct {
	Config      Config
	Fingerprint [16]byte
	Stream      snapshot.StreamInfo
	Records     uint64
	Width       int
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
	width := snapshot.CountWidth(a.fm...)
	h := attackHeader{Config: a.cfg, Fingerprint: a.fp, Stream: a.Stream, Records: a.Records, Width: width}
	return snapshot.WriteColumns(w, SnapshotKind, h, width, a.fm, a.absab)
}

// WriteSnapshotFile durably persists the attack's evidence at path.
func (a *Attack) WriteSnapshotFile(path string) error {
	return durable.WriteFile(path, a.WriteSnapshot)
}

// CaptureStream implements online.Evidence.
func (a *Attack) CaptureStream() *snapshot.StreamInfo { return &a.Stream }

// ReadSnapshot reconstructs an attack from a snapshot written by
// WriteSnapshot: the embedded config rebuilds the anchor layout through New,
// then the persisted evidence is merged into the fresh accumulators through
// the same check as OpenShard.
func ReadSnapshot(r io.Reader) (*Attack, error) {
	var h attackHeader
	cols, err := snapshot.ReadColumns(r, SnapshotKind, &h)
	if err != nil {
		return nil, err
	}
	a, err := New(h.Config)
	if err != nil {
		return nil, fmt.Errorf("cookieattack: snapshot config invalid: %w", err)
	}
	sh, err := a.shard(h, cols)
	if err != nil {
		return nil, err
	}
	a.Stream = h.Stream
	return a, sh.Merge()
}

// OpenShard implements online.Evidence: snap must hold evidence captured
// against the receiver's request layout. The shard keeps snap's columns
// and adds them into the receiver's tables when merged.
func (a *Attack) OpenShard(snap []byte) (online.Shard, error) {
	var h attackHeader
	cols, err := snapshot.OpenColumns(snap, SnapshotKind, &h)
	if err != nil {
		return online.Shard{}, err
	}
	return a.shard(h, cols)
}

var errLayout = errors.New("cookieattack: evidence was captured against a different request layout (fingerprint mismatch)")

// Merge folds another shard's evidence into the receiver. Both shards must
// have been captured against the same request layout, so independently
// collected shards (different machines, seeds, or capture windows) combine
// into one evidence pool exactly as if a single process had observed every
// record.
func (a *Attack) Merge(o *Attack) error {
	if o == nil {
		return errors.New("cookieattack: nil merge source")
	}
	if o.fp != a.fp {
		return errLayout
	}
	for r := 0; r < a.chain; r++ {
		dst, fdst := a.fm[r], a.absab[r]
		for i, v := range o.fm[r] {
			dst[i] += v
		}
		for i, v := range o.absab[r] {
			fdst[i] += v
		}
	}
	a.Records += o.Records
	return nil
}

// shard is the one compatibility check on foreign evidence, behind
// resume, -merge and fleet lane uploads: h must carry the receiver's
// request-layout fingerprint and cols exactly the receiver's evidence
// shape. It reads only the receiver's configuration; the returned Merge
// adds the columns' counters.
func (a *Attack) shard(h attackHeader, cols []byte) (online.Shard, error) {
	if h.Fingerprint != a.fp {
		return online.Shard{}, errLayout
	}
	if err := snapshot.CheckColumns(cols, h.Width, a.chain<<16, a.chain<<16); err != nil {
		return online.Shard{}, fmt.Errorf("cookieattack: snapshot evidence shape mismatch: %w", err)
	}
	return online.Shard{Stream: h.Stream, Observed: h.Records, Merge: func() error {
		rest := cols
		for _, row := range a.fm {
			rest = snapshot.AddCounts(row, rest, h.Width)
		}
		for _, row := range a.absab {
			rest = snapshot.AddFloats(row, rest)
		}
		a.Records += h.Records
		return nil
	}}, nil
}
