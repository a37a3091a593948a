package fleet

import (
	"fmt"

	"rc4break/internal/online"
	"rc4break/internal/recovery"
	"rc4break/internal/snapshot"
)

// EvidencePool adapts an attack's evidence to the coordinator. A lane
// upload must pass the attack's OpenShard check, the one resume and
// -merge apply (the cookie request layout's or the TKIP model's
// fingerprint), and then match the lease's stream identity and count.
type EvidencePool struct {
	Attack online.Evidence
}

// CookiePool is the cookie attack's pool, an EvidencePool over a
// *cookieattack.Attack.
type CookiePool = EvidencePool

// Observed implements Pool.
func (p *EvidencePool) Observed() uint64 { return p.Attack.Observed() }

// Decode implements Pool.
func (p *EvidencePool) Decode(max int) (recovery.CandidateSource, error) { return p.Attack.Decode(max) }

// Validate implements Pool. OpenShard reads only the evidence's
// configuration, so it may run without the coordinator's lock.
func (p *EvidencePool) Validate(snap []byte, want snapshot.StreamInfo, records uint64) (Shard, error) {
	sh, err := p.Attack.OpenShard(snap)
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

// Merge implements Pool.
func (p *EvidencePool) Merge(s Shard) error { return s.(online.Shard).Merge() }

// WriteSnapshotFile implements Pool.
func (p *EvidencePool) WriteSnapshotFile(path string) error { return p.Attack.WriteSnapshotFile(path) }
