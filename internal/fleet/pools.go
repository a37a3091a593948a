package fleet

import (
	"errors"
	"fmt"

	"rc4break/internal/cookieattack"
	"rc4break/internal/online"
	"rc4break/internal/recovery"
	"rc4break/internal/snapshot"
	"rc4break/internal/tkip"
)

// CookiePool adapts a cookieattack evidence pool to the coordinator. Lane
// uploads are cookieattack snapshots that must pass the attack's
// OpenShard check (the request layout fingerprint) and the lease checks.
type CookiePool struct {
	Attack *cookieattack.Attack
}

// Observed implements Pool.
func (p *CookiePool) Observed() uint64 { return p.Attack.Observed() }

// Decode implements Pool.
func (p *CookiePool) Decode(max int) (recovery.CandidateSource, error) { return p.Attack.Decode(max) }

// Validate implements Pool.
func (p *CookiePool) Validate(snap []byte, want snapshot.StreamInfo, records uint64) (Shard, error) {
	return validate(p.Attack, snap, want, records)
}

// Merge implements Pool.
func (p *CookiePool) Merge(s Shard) error { return s.(online.Shard).Merge() }

// WriteSnapshotFile implements Pool.
func (p *CookiePool) WriteSnapshotFile(path string) error { return p.Attack.WriteSnapshotFile(path) }

// TKIPPool adapts a tkip capture pool to the coordinator. Lane uploads are
// tkip attack snapshots that must have been captured against Model, which
// must be the model Attack decodes with, at Attack's positions.
type TKIPPool struct {
	Attack *tkip.Attack
	Model  *tkip.PerTSCModel
}

// Observed implements Pool.
func (p *TKIPPool) Observed() uint64 { return p.Attack.Observed() }

// Decode implements Pool.
func (p *TKIPPool) Decode(max int) (recovery.CandidateSource, error) { return p.Attack.Decode(max) }

// Validate implements Pool.
func (p *TKIPPool) Validate(snap []byte, want snapshot.StreamInfo, records uint64) (Shard, error) {
	if p.Model != p.Attack.Model {
		return nil, errors.New("the pool's Model is not the model its Attack decodes with")
	}
	return validate(p.Attack, snap, want, records)
}

// Merge implements Pool.
func (p *TKIPPool) Merge(s Shard) error { return s.(online.Shard).Merge() }

// WriteSnapshotFile implements Pool.
func (p *TKIPPool) WriteSnapshotFile(path string) error { return p.Attack.WriteSnapshotFile(path) }

// validate is the one lane-upload check: the attack's own OpenShard (the
// check resume and -merge apply), then the identity and observation count
// the lease pinned.
func validate(e online.Evidence, snap []byte, want snapshot.StreamInfo, records uint64) (Shard, error) {
	sh, err := e.OpenShard(snap)
	if err != nil {
		return nil, err
	}
	if sh.Stream != want {
		return nil, fmt.Errorf("snapshot stream %s/seed %d/lane %d does not match the lease",
			sh.Stream.Mode, sh.Stream.Seed, sh.Stream.Lane)
	}
	if sh.Observed != records {
		return nil, fmt.Errorf("snapshot holds %d observations, lease specified %d", sh.Observed, records)
	}
	return sh, nil
}
