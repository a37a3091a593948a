// Package rc4 implements the RC4 stream cipher from scratch, exposing the
// internal permutation state so that bias-hunting and attack code can inspect
// it. The standard library's crypto/rc4 deliberately hides state and rejects
// some key lengths; the analyses in this repository (per-round state
// inspection, key-length dependent biases, TKIP's 16-byte per-packet keys)
// need full control, so we implement KSA and PRGA directly.
//
// The cipher follows the classic description: the Key Scheduling Algorithm
// (KSA) initializes a 256-byte permutation S from the key, and the
// Pseudo-Random Generation Algorithm (PRGA) walks S with public counter i and
// private index j, emitting one keystream byte per round. All index
// arithmetic is modulo 256.
package rc4

import "fmt"

// StateSize is the size of the RC4 permutation.
const StateSize = 256

// MinKeyLen and MaxKeyLen bound the accepted key lengths. RC4 keys are
// 1..256 bytes; the paper uses 16-byte keys throughout (both for random-key
// datasets and for TKIP per-packet keys).
const (
	MinKeyLen = 1
	MaxKeyLen = 256
)

// Cipher is an RC4 instance. The zero value is not usable; construct with
// New.
type Cipher struct {
	s    [StateSize]byte
	i, j uint8
}

// KeySizeError is returned by New for out-of-range key lengths.
type KeySizeError int

func (k KeySizeError) Error() string {
	return fmt.Sprintf("rc4: invalid key size %d (want %d..%d)", int(k), MinKeyLen, MaxKeyLen)
}

// New creates an RC4 cipher keyed with key, running the full KSA.
func New(key []byte) (*Cipher, error) {
	if len(key) < MinKeyLen || len(key) > MaxKeyLen {
		return nil, KeySizeError(len(key))
	}
	var c Cipher
	c.ksa(key)
	return &c, nil
}

// MustNew is New but panics on a bad key length. It is intended for callers
// that construct keys of a fixed, known-valid length (e.g. the dataset
// generators, which always use 16-byte keys).
func MustNew(key []byte) *Cipher {
	c, err := New(key)
	if err != nil {
		panic(err)
	}
	return c
}

// Rekey re-runs the KSA on an existing cipher value, making it equivalent to
// a freshly constructed New(key). The generation engine re-keys one Cipher
// per worker millions of times, so avoiding the per-key allocation matters.
func (c *Cipher) Rekey(key []byte) error {
	if len(key) < MinKeyLen || len(key) > MaxKeyLen {
		return KeySizeError(len(key))
	}
	c.ksa(key)
	return nil
}

// identity is the KSA's starting permutation, S[n] = n, copied into every
// state a key schedule starts from.
var identity = func() (t [StateSize]byte) {
	for n := range t {
		t[n] = byte(n)
	}
	return t
}()

// ksa runs the Key Scheduling Algorithm. The key is first tiled into a
// 256-byte buffer so the mixing loop indexes it linearly — no n%len(key)
// division on the hot path, which is measurable at engine scale where every
// generated keystream pays one KSA.
func (c *Cipher) ksa(key []byte) {
	s := &c.s
	*s = identity
	var kbuf [StateSize]byte
	for n := 0; n < StateSize; n += len(key) {
		copy(kbuf[n:], key)
	}
	var j uint8
	for n := 0; n < StateSize; n++ {
		x := s[n]
		j += x + kbuf[n]
		s[n], s[j] = s[j], x
	}
	c.i, c.j = 0, 0
}

// Next returns the next keystream byte (one PRGA round).
func (c *Cipher) Next() byte {
	c.i++
	c.j += c.s[c.i]
	c.s[c.i], c.s[c.j] = c.s[c.j], c.s[c.i]
	return c.s[uint8(c.s[c.i]+c.s[c.j])]
}

// Keystream fills dst with the next len(dst) keystream bytes. It is the hot
// path for dataset generation and runs the batched PRGA of SkipKeystream:
// 8 unrolled rounds per iteration with i, j and the swapped values in
// registers, plus a speculative preload of the next S[i+1] issued before the
// swap stores. Output is byte-for-byte identical to the one-round-at-a-time
// PRGA for every buffer length; see TestKeystreamMatchesScalar.
func (c *Cipher) Keystream(dst []byte) {
	c.SkipKeystream(0, dst)
}

// XORKeyStream sets dst[n] = src[n] XOR keystream. dst and src must overlap
// entirely or not at all, and len(dst) must be >= len(src).
func (c *Cipher) XORKeyStream(dst, src []byte) {
	if len(dst) < len(src) {
		panic("rc4: output smaller than input")
	}
	i, j := c.i, c.j
	s := &c.s
	for n, v := range src {
		i++
		x := s[i]
		j += x
		y := s[j]
		s[i], s[j] = y, x
		dst[n] = v ^ s[uint8(x+y)]
	}
	c.i, c.j = i, j
}

// Skip advances the keystream by n bytes without producing output.
// Mironov's recommendation to drop the initial 12*256 bytes, and the
// long-term dataset's 1023-byte drop, are implemented with Skip. Skips of
// n <= 0 are no-ops.
func (c *Cipher) Skip(n int) {
	c.SkipKeystream(n, nil)
}

// SkipKeystream advances the keystream by skip bytes and then fills dst, in
// one call; Skip and Keystream are its special cases. The generation engine
// issues exactly one of these per key (the drop-N followed by the first
// delivered window), so fusing the two phases keeps i, j and the speculated
// S[i+1] in registers across the whole per-key pass. A skip round is a
// generate round minus the output byte: the speculative preload of the next
// S[i+1] before the swap stores (patched on the rare j == i+1 alias) takes
// the S[i] load latency off the serial j-dependency chain in both loops.
// A skip <= 0 drops nothing.
func (c *Cipher) SkipKeystream(skip int, dst []byte) {
	if skip <= 0 && len(dst) == 0 {
		return
	}
	i, j := c.i, c.j
	s := &c.s
	i++
	x := s[i]
	var y, x2 byte
	for ; skip >= 8; skip -= 8 {
		j += x
		y = s[j]
		x2 = s[i+1]
		s[i] = y
		s[j] = x
		if j == i+1 {
			x2 = x
		}
		i++
		x = x2
		j += x
		y = s[j]
		x2 = s[i+1]
		s[i] = y
		s[j] = x
		if j == i+1 {
			x2 = x
		}
		i++
		x = x2
		j += x
		y = s[j]
		x2 = s[i+1]
		s[i] = y
		s[j] = x
		if j == i+1 {
			x2 = x
		}
		i++
		x = x2
		j += x
		y = s[j]
		x2 = s[i+1]
		s[i] = y
		s[j] = x
		if j == i+1 {
			x2 = x
		}
		i++
		x = x2
		j += x
		y = s[j]
		x2 = s[i+1]
		s[i] = y
		s[j] = x
		if j == i+1 {
			x2 = x
		}
		i++
		x = x2
		j += x
		y = s[j]
		x2 = s[i+1]
		s[i] = y
		s[j] = x
		if j == i+1 {
			x2 = x
		}
		i++
		x = x2
		j += x
		y = s[j]
		x2 = s[i+1]
		s[i] = y
		s[j] = x
		if j == i+1 {
			x2 = x
		}
		i++
		x = x2
		j += x
		y = s[j]
		x2 = s[i+1]
		s[i] = y
		s[j] = x
		if j == i+1 {
			x2 = x
		}
		i++
		x = x2
	}
	for ; skip > 0; skip-- {
		j += x
		y = s[j]
		x2 = s[i+1]
		s[i] = y
		s[j] = x
		if j == i+1 {
			x2 = x
		}
		i++
		x = x2
	}
	n := 0
	for ; n+8 <= len(dst); n += 8 {
		d := dst[n : n+8 : n+8]
		j += x
		y = s[j]
		x2 = s[i+1]
		s[i] = y
		s[j] = x
		if j == i+1 {
			x2 = x
		}
		d[0] = s[uint8(x+y)]
		i++
		x = x2
		j += x
		y = s[j]
		x2 = s[i+1]
		s[i] = y
		s[j] = x
		if j == i+1 {
			x2 = x
		}
		d[1] = s[uint8(x+y)]
		i++
		x = x2
		j += x
		y = s[j]
		x2 = s[i+1]
		s[i] = y
		s[j] = x
		if j == i+1 {
			x2 = x
		}
		d[2] = s[uint8(x+y)]
		i++
		x = x2
		j += x
		y = s[j]
		x2 = s[i+1]
		s[i] = y
		s[j] = x
		if j == i+1 {
			x2 = x
		}
		d[3] = s[uint8(x+y)]
		i++
		x = x2
		j += x
		y = s[j]
		x2 = s[i+1]
		s[i] = y
		s[j] = x
		if j == i+1 {
			x2 = x
		}
		d[4] = s[uint8(x+y)]
		i++
		x = x2
		j += x
		y = s[j]
		x2 = s[i+1]
		s[i] = y
		s[j] = x
		if j == i+1 {
			x2 = x
		}
		d[5] = s[uint8(x+y)]
		i++
		x = x2
		j += x
		y = s[j]
		x2 = s[i+1]
		s[i] = y
		s[j] = x
		if j == i+1 {
			x2 = x
		}
		d[6] = s[uint8(x+y)]
		i++
		x = x2
		j += x
		y = s[j]
		x2 = s[i+1]
		s[i] = y
		s[j] = x
		if j == i+1 {
			x2 = x
		}
		d[7] = s[uint8(x+y)]
		i++
		x = x2
	}
	for ; n < len(dst); n++ {
		j += x
		y = s[j]
		x2 = s[i+1]
		s[i] = y
		s[j] = x
		if j == i+1 {
			x2 = x
		}
		dst[n] = s[uint8(x+y)]
		i++
		x = x2
	}
	c.i, c.j = i-1, j
}

// State returns a copy of the permutation and the current i, j indices.
func (c *Cipher) State() (s [StateSize]byte, i, j uint8) {
	return c.s, c.i, c.j
}

// Reset zeroes the cipher state so key material does not linger.
func (c *Cipher) Reset() {
	for n := range c.s {
		c.s[n] = 0
	}
	c.i, c.j = 0, 0
}
