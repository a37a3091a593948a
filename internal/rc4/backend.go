package rc4

import "fmt"

// Backend names a keystream kernel family for batch consumers (the dataset
// engine's shard workers). The scalar backend runs one Cipher per key with
// the unrolled fused skip+generate kernel; the multi backend drives
// MultiLanes independent states in lockstep through MultiCipher. Outputs are
// bitwise identical — the choice is purely a throughput/footprint trade, and
// the cross-backend tests and FuzzKeystreamBackends hold the two families to
// byte equality. BackendScalar stays selectable as the reference those
// tests compare the batched kernels against.
type Backend int

const (
	// BackendAuto defers the choice to Resolve, which picks BackendMulti.
	BackendAuto Backend = iota
	// BackendScalar forces the per-key scalar Cipher path.
	BackendScalar
	// BackendMulti forces the batched multi-state path.
	BackendMulti
)

func (b Backend) String() string {
	switch b {
	case BackendAuto:
		return "auto"
	case BackendScalar:
		return "scalar"
	case BackendMulti:
		return "multi"
	}
	return fmt.Sprintf("Backend(%d)", int(b))
}

// Resolve turns a possibly-auto Backend into a concrete one: an explicit
// choice resolves to itself, and BackendAuto to BackendMulti. It never
// fails; the error result keeps the signature callers already check.
func (b Backend) Resolve() (Backend, error) {
	if b != BackendAuto {
		return b, nil
	}
	return BackendMulti, nil
}
