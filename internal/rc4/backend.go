package rc4

import "fmt"

// Backend names a keystream kernel family: the scalar backend runs one
// Cipher per key with the unrolled fused skip+generate kernel, and the multi
// backend drives MultiLanes independent states in lockstep through
// MultiCipher. Outputs are bitwise identical; the cross-backend tests and
// FuzzKeystreamBackends hold the two families to byte equality. No
// production path selects a backend: the dataset engine always runs
// MultiCipher. The type is kept only for its own tests and for the
// benchmark harness, which reports the kernel BackendAuto resolves to.
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
