// Package tlsrec implements the TLS record protocol of §2.3 for the
// RC4-SHA1 cipher suite: application-data records carrying an HMAC-SHA1
// over a per-record sequence number, header and payload, with both payload
// and MAC encrypted by a connection-long RC4 instance whose initial
// keystream bytes are NOT discarded — the property every attack in the
// paper leans on.
//
// The implementation models one direction of a TLS 1.2 connection after the
// handshake: keys are derived from a 48-byte master secret with the TLS PRF
// (P_SHA256), records are sealed/opened with correct sequence-number
// semantics, and a persistent connection keeps one RC4 state across many
// HTTP requests — enabling the long-term (Fluhrer–McGrew, ABSAB) biases.
package tlsrec

import (
	"crypto/hmac"
	"crypto/sha1"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash"

	"rc4break/internal/rc4"
)

// Record-protocol constants for the modeled RC4-SHA1 suite.
const (
	TypeApplicationData = 23
	VersionTLS12        = 0x0303
	MACSize             = sha1.Size // 20
	HeaderSize          = 5
	KeySize             = 16 // RC4_128
	MasterSecretSize    = 48
)

// PRF implements the TLS 1.2 pseudo-random function P_SHA256(secret,
// label ‖ seed) producing n bytes — used for the key block derivation.
func PRF(secret []byte, label string, seed []byte, n int) []byte {
	ls := append([]byte(label), seed...)
	out := make([]byte, 0, n)
	a := hmacSHA256(secret, ls)
	for len(out) < n {
		out = append(out, hmacSHA256(secret, append(a, ls...))...)
		a = hmacSHA256(secret, a)
	}
	return out[:n]
}

func hmacSHA256(key, msg []byte) []byte {
	h := hmac.New(sha256.New, key)
	h.Write(msg)
	return h.Sum(nil)
}

// KeyBlock holds one direction's record keys for RC4-SHA1.
type KeyBlock struct {
	MACKey [MACSize]byte
	Key    [KeySize]byte
}

// DeriveKeys expands the master secret into client and server key blocks,
// following the TLS 1.2 key block layout for an RC4-SHA1 suite (client MAC,
// server MAC, client key, server key; no IVs for a stream cipher).
func DeriveKeys(master []byte, clientRandom, serverRandom [32]byte) (client, server KeyBlock, err error) {
	if len(master) != MasterSecretSize {
		return client, server, errors.New("tlsrec: master secret must be 48 bytes")
	}
	seed := append(append([]byte{}, serverRandom[:]...), clientRandom[:]...)
	kb := PRF(master, "key expansion", seed, 2*MACSize+2*KeySize)
	copy(client.MACKey[:], kb[0:20])
	copy(server.MACKey[:], kb[20:40])
	copy(client.Key[:], kb[40:56])
	copy(server.Key[:], kb[56:72])
	return client, server, nil
}

// Conn is one direction of a TLS record connection using RC4-SHA1. The RC4
// state persists across records for the lifetime of the connection.
type Conn struct {
	cipher *rc4.Cipher
	// mac is HMAC-SHA1 keyed once with the connection's MAC key and reset
	// per record; sum receives each record's MAC.
	mac hash.Hash
	sum [MACSize]byte
	seq uint64
}

// NewConn creates a sending or receiving record stream from a key block.
// RC4 is keyed once; none of the initial keystream is discarded (§2.3).
func NewConn(kb KeyBlock) *Conn {
	return &Conn{cipher: rc4.MustNew(kb.Key[:]), mac: hmac.New(sha1.New, kb.MACKey[:])}
}

// Seal encrypts one application-data record containing payload and returns
// the full wire record (header ‖ encrypted payload ‖ encrypted MAC).
func (c *Conn) Seal(payload []byte) []byte {
	mac := c.computeMAC(TypeApplicationData, payload)
	inner := make([]byte, 0, len(payload)+MACSize)
	inner = append(inner, payload...)
	inner = append(inner, mac...)

	rec := make([]byte, HeaderSize+len(inner))
	rec[0] = TypeApplicationData
	binary.BigEndian.PutUint16(rec[1:3], VersionTLS12)
	binary.BigEndian.PutUint16(rec[3:5], uint16(len(inner)))
	c.cipher.XORKeyStream(rec[HeaderSize:], inner)
	c.seq++
	return rec
}

// ErrMAC and ErrRecord are Open's failure modes.
var (
	ErrMAC    = errors.New("tlsrec: bad record MAC")
	ErrRecord = errors.New("tlsrec: malformed record")
)

// Open decrypts and verifies one record produced by the peer's Seal,
// returning the plaintext payload.
func (c *Conn) Open(rec []byte) ([]byte, error) {
	if len(rec) < HeaderSize+MACSize {
		return nil, ErrRecord
	}
	if rec[0] != TypeApplicationData || binary.BigEndian.Uint16(rec[1:3]) != VersionTLS12 {
		return nil, ErrRecord
	}
	length := int(binary.BigEndian.Uint16(rec[3:5]))
	if length != len(rec)-HeaderSize || length < MACSize {
		return nil, ErrRecord
	}
	inner := make([]byte, length)
	c.cipher.XORKeyStream(inner, rec[HeaderSize:])
	payload := inner[:length-MACSize]
	mac := inner[length-MACSize:]
	want := c.computeMAC(TypeApplicationData, payload)
	c.seq++
	if !hmac.Equal(mac, want) {
		return nil, ErrMAC
	}
	return payload, nil
}

// computeMAC is the TLS record MAC: HMAC-SHA1 over sequence number, type,
// version, length and payload. The result is c.sum, valid until the next
// record.
func (c *Conn) computeMAC(typ byte, payload []byte) []byte {
	h := c.mac
	h.Reset()
	var pre [13]byte
	binary.BigEndian.PutUint64(pre[0:8], c.seq)
	pre[8] = typ
	binary.BigEndian.PutUint16(pre[9:11], VersionTLS12)
	binary.BigEndian.PutUint16(pre[11:13], uint16(len(payload)))
	h.Write(pre[:])
	h.Write(payload)
	return h.Sum(c.sum[:0])
}

// Seq reports how many records have been processed — used by attack code
// to locate keystream offsets of a given record on a persistent connection.
func (c *Conn) Seq() uint64 { return c.seq }

// SkipRecords advances the connection as if n records of payloadLen bytes
// each had been sealed: the RC4 stream skips n·(payloadLen+MACSize) bytes
// and the sequence number advances by n. A resumed capture uses it to
// fast-forward a persistent connection past already-observed records
// without paying for HMAC or record assembly; the subsequent Seal output is
// byte-identical to an uninterrupted connection's.
func (c *Conn) SkipRecords(n uint64, payloadLen int) {
	// Skip in bounded chunks: n·recordLen at paper-scale resume counts
	// exceeds int32, so a single int conversion would wrap on 32-bit
	// platforms and silently desynchronize the stream.
	total := n * uint64(payloadLen+MACSize)
	const step = 1 << 30
	for total > 0 {
		s := total
		if s > step {
			s = step
		}
		c.cipher.Skip(int(s))
		total -= s
	}
	c.seq += n
}
