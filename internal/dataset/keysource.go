// Package dataset implements the keystream-statistics generation pipeline of
// §3.2: random 128-bit RC4 keys are derived from AES in counter mode,
// expanded into keystreams, and folded into mergeable counter structures.
// The paper ran this across ~80 machines for CPU-years; here the same design
// runs across goroutines with configurable key counts, so every experiment
// can be reproduced at laptop scale and scaled up by flag.
//
// A dataset is identified by its master key, its lane and its key count:
// key k of a lane is a pure function of (master, lane, k), and goroutines
// split a run by key index, so the counters never depend on how many
// goroutines drew them. The counters follow the paper's overflow design:
// each goroutine accumulates into compact private arrays and the driver
// merges them into shared uint64 totals, which keeps the hot loop
// cache-friendly.
package dataset

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
)

// keyLen is the RC4 key length of every generated dataset: 16 bytes, the
// paper's setting for random-key datasets and TKIP per-packet keys alike.
// It is one AES block, so key k of a lane is counter block k.
const keyLen = aes.BlockSize

// KeySource deterministically derives RC4 keys from a master AES-128 key in
// counter mode, after the paper's worker start-up ("Random 128-bit RC4 keys
// are derived from this key using AES in counter mode"). The counter block
// is lane‖index, so 16-byte key k of a lane is AES_master(lane‖k): a given
// (master, lane) pair always yields the same key sequence, and any index
// range of it can be drawn on its own, which makes every dataset in this
// repository exactly reproducible.
type KeySource struct {
	stream cipher.Stream
	buf    []byte
}

// NewKeySource creates a key source at the start of the given lane. Each
// lane gets a disjoint counter-mode keystream by seeding the upper half of
// the counter block with the lane number.
func NewKeySource(master [16]byte, lane uint64) *KeySource {
	return newKeySourceAt(master, lane, 0)
}

// newKeySourceAt creates a key source positioned at 16-byte key index first
// of the lane.
func newKeySourceAt(master [16]byte, lane, first uint64) *KeySource {
	block, err := aes.NewCipher(master[:])
	if err != nil {
		// aes.NewCipher only fails on bad key sizes; [16]byte cannot be one.
		panic("dataset: impossible AES key error: " + err.Error())
	}
	var iv [aes.BlockSize]byte
	binary.BigEndian.PutUint64(iv[:8], lane)
	binary.BigEndian.PutUint64(iv[8:], first)
	return &KeySource{stream: cipher.NewCTR(block, iv[:])}
}

// NextKey fills key with the next derived RC4 key bytes.
func (ks *KeySource) NextKey(key []byte) {
	if cap(ks.buf) < len(key) {
		ks.buf = make([]byte, len(key))
	}
	b := ks.buf[:len(key)]
	for i := range b {
		b[i] = 0
	}
	ks.stream.XORKeyStream(key, b)
}
