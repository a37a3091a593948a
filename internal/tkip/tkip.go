// Package tkip implements the WPA-TKIP cryptographic encapsulation of §2.2
// and the §5 attack against it: per-packet RC4 keys derived from the TKIP
// sequence counter (TSC), Michael MIC and CRC-32 ICV protection, per-TSC
// keystream distribution training (Paterson et al.'s observation that the
// public first three key bytes induce TSC-dependent keystream biases), and
// the candidate-list attack that decrypts a full packet and extracts the
// MIC key.
//
// Key-mixing substitution: the paper models the output of the 802.11 key
// mixing function KM(TA, TK, TSC) as uniformly random apart from the
// mandated structure of its first three bytes (§2.2), and bases the attack
// solely on that structure. We implement KM the same way — an AES-based PRF
// for bytes 3..15 plus the mandated K0..K2 — which preserves exactly the
// property the attack exploits. See README "Paper fidelity".
package tkip

import (
	"crypto/aes"
	"encoding/binary"
	"errors"

	"rc4break/internal/checksum"
	"rc4break/internal/michael"
	"rc4break/internal/rc4"
)

// TSC is the 48-bit TKIP sequence counter, transmitted in the clear in the
// MAC header and incremented per packet.
type TSC uint64

// TSC0 and TSC1 are the two least significant bytes, which determine the
// public first three bytes of the per-packet key.
func (t TSC) TSC0() byte { return byte(t) }
func (t TSC) TSC1() byte { return byte(t >> 8) }

// PublicKeyBytes returns the mandated first three bytes of the per-packet
// RC4 key [19, §11.4.2.1.1]:
//
//	K0 = TSC1,  K1 = (TSC1 | 0x20) & 0x7f,  K2 = TSC0.
func (t TSC) PublicKeyBytes() (k0, k1, k2 byte) {
	return t.TSC1(), (t.TSC1() | 0x20) & 0x7f, t.TSC0()
}

// MixKey derives the 16-byte per-packet RC4 key. Bytes 3..15 come from an
// AES-based PRF of (TA, TSC) under TK — the uniform-random model of §2.2 —
// and bytes 0..2 follow the mandated TSC structure.
func MixKey(tk [16]byte, ta [6]byte, tsc TSC) [16]byte {
	block, err := aes.NewCipher(tk[:])
	if err != nil {
		panic("tkip: impossible AES key error: " + err.Error())
	}
	var in, out [16]byte
	copy(in[:6], ta[:])
	binary.BigEndian.PutUint64(in[6:14], uint64(tsc))
	block.Encrypt(out[:], in[:])
	out[0], out[1], out[2] = tsc.PublicKeyBytes()
	return out
}

// Session holds the keys of one TKIP direction (AP to client or reverse).
type Session struct {
	TK     [16]byte              // temporal encryption key
	MICKey [michael.KeySize]byte // Michael key for this direction
	TA     [6]byte               // transmitter MAC address
	DA     [6]byte               // destination MAC address
	SA     [6]byte               // source MAC address
}

// Frame is one encrypted TKIP MPDU: the TSC from the (cleartext) header and
// the RC4-encrypted body MSDU ‖ MIC ‖ ICV.
type Frame struct {
	TSC  TSC
	Body []byte
}

// TrailerSize is the per-packet expansion: Michael MIC plus ICV.
const TrailerSize = michael.Size + checksum.ICVSize

// micMessage is the input to Michael: the MIC header (DA, SA, priority 0)
// followed by the MSDU.
func (s *Session) micMessage(msdu []byte) []byte {
	hdr := michael.Header(s.DA, s.SA, 0)
	return append(hdr[:], msdu...)
}

// Encapsulate builds the encrypted frame for msdu at the given TSC:
// append MIC and ICV, then RC4-encrypt under the mixed per-packet key
// (Figure 2).
func (s *Session) Encapsulate(msdu []byte, tsc TSC) Frame {
	mic := michael.Sum(s.MICKey, s.micMessage(msdu))
	plain := make([]byte, 0, len(msdu)+TrailerSize)
	plain = append(plain, msdu...)
	plain = append(plain, mic[:]...)
	icv := checksum.ICV(plain)
	plain = append(plain, icv[:]...)

	key := MixKey(s.TK, s.TA, tsc)
	c := rc4.MustNew(key[:])
	c.XORKeyStream(plain, plain)
	return Frame{TSC: tsc, Body: plain}
}

// ErrICV and ErrMIC are Decapsulate's integrity failures.
var (
	ErrICV = errors.New("tkip: ICV check failed")
	ErrMIC = errors.New("tkip: Michael MIC check failed")
)

// Decapsulate decrypts and verifies a frame, returning the MSDU.
func (s *Session) Decapsulate(f Frame) ([]byte, error) {
	if len(f.Body) < TrailerSize {
		return nil, errors.New("tkip: frame too short")
	}
	key := MixKey(s.TK, s.TA, f.TSC)
	c := rc4.MustNew(key[:])
	plain := make([]byte, len(f.Body))
	c.XORKeyStream(plain, f.Body)
	if !checksum.VerifyICV(plain) {
		return nil, ErrICV
	}
	msdu := plain[:len(plain)-TrailerSize]
	var mic [michael.Size]byte
	copy(mic[:], plain[len(msdu):len(msdu)+michael.Size])
	want := michael.Sum(s.MICKey, s.micMessage(msdu))
	if mic != want {
		return nil, ErrMIC
	}
	return msdu, nil
}

// RecoverMICKeyFromPlaintext inverts Michael from a fully decrypted frame
// body (MSDU ‖ MIC ‖ ICV) — the final §5.3 step. The caller supplies the
// session's addressing so the MIC header can be rebuilt.
func RecoverMICKeyFromPlaintext(da, sa [6]byte, plain []byte) ([michael.KeySize]byte, error) {
	if len(plain) < TrailerSize {
		return [michael.KeySize]byte{}, errors.New("tkip: plaintext too short")
	}
	if !checksum.VerifyICV(plain) {
		return [michael.KeySize]byte{}, ErrICV
	}
	msdu := plain[:len(plain)-TrailerSize]
	var mic [michael.Size]byte
	copy(mic[:], plain[len(msdu):len(msdu)+michael.Size])
	hdr := michael.Header(da, sa, 0)
	msg := append(hdr[:], msdu...)
	return michael.RecoverKey(msg, mic), nil
}
