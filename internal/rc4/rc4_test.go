package rc4

import (
	"bytes"
	stdrc4 "crypto/rc4"
	"testing"
	"testing/quick"
)

// Known-answer vectors from RFC 6229 (selected offsets) and the original
// Schneier test vectors.
var kats = []struct {
	key    []byte
	offset int
	want   []byte
}{
	// Schneier, Applied Cryptography.
	{[]byte{0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef}, 0,
		[]byte{0x74, 0x94, 0xc2, 0xe7, 0x10, 0x4b, 0x08, 0x79}},
	{[]byte{0xef, 0x01, 0x23, 0x45}, 0,
		[]byte{0xd6, 0xa1, 0x41, 0xa7, 0xec, 0x3c, 0x38, 0xdf, 0xbd, 0x61}},
	// RFC 6229, 40-bit key 0x0102030405, offset 0.
	{[]byte{0x01, 0x02, 0x03, 0x04, 0x05}, 0,
		[]byte{0xb2, 0x39, 0x63, 0x05, 0xf0, 0x3d, 0xc0, 0x27,
			0xcc, 0xc3, 0x52, 0x4a, 0x0a, 0x11, 0x18, 0xa8}},
	// RFC 6229, 40-bit key 0x0102030405, offset 240.
	{[]byte{0x01, 0x02, 0x03, 0x04, 0x05}, 240,
		[]byte{0x28, 0xcb, 0x11, 0x32, 0xc9, 0x6c, 0xe2, 0x86,
			0x42, 0x1d, 0xca, 0xad, 0xb8, 0xb6, 0x9e, 0xae}},
	// RFC 6229, 128-bit key 0x0102..0d0e0f10, offset 0.
	{[]byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f, 0x10}, 0,
		[]byte{0x9a, 0xc7, 0xcc, 0x9a, 0x60, 0x9d, 0x1e, 0xf7,
			0xb2, 0x93, 0x28, 0x99, 0xcd, 0xe4, 0x1b, 0x97}},
	// RFC 6229, 128-bit key, offset 1536.
	{[]byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f, 0x10}, 1536,
		[]byte{0xff, 0xa0, 0xb5, 0x14, 0x64, 0x7e, 0xc0, 0x4f,
			0x63, 0x06, 0xb8, 0x92, 0xae, 0x66, 0x11, 0x81}},
}

func TestKnownAnswers(t *testing.T) {
	for ti, v := range kats {
		c := MustNew(v.key)
		c.Skip(v.offset)
		got := make([]byte, len(v.want))
		c.Keystream(got)
		if !bytes.Equal(got, v.want) {
			t.Errorf("vector %d: got % x want % x", ti, got, v.want)
		}
	}
}

func TestMatchesStdlib(t *testing.T) {
	// Cross-check against crypto/rc4 for many keys and lengths.
	for kl := 1; kl <= 32; kl++ {
		key := make([]byte, kl)
		for n := range key {
			key[n] = byte(3*n + kl)
		}
		ours := MustNew(key)
		std, err := stdrc4.NewCipher(key)
		if err != nil {
			t.Fatalf("stdlib rejected key len %d: %v", kl, err)
		}
		in := make([]byte, 777)
		want := make([]byte, len(in))
		got := make([]byte, len(in))
		std.XORKeyStream(want, in)
		ours.XORKeyStream(got, in)
		if !bytes.Equal(got, want) {
			t.Fatalf("key len %d: keystream mismatch with crypto/rc4", kl)
		}
	}
}

func TestKeySizeErrors(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("nil key accepted")
	}
	if _, err := New(make([]byte, 257)); err == nil {
		t.Error("257-byte key accepted")
	}
	if _, err := New(make([]byte, 256)); err != nil {
		t.Errorf("256-byte key rejected: %v", err)
	}
	var kse KeySizeError = 300
	if kse.Error() == "" {
		t.Error("empty error string")
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	key := []byte("sixteen byte key")
	plain := []byte("attack at dawn: the quick brown fox jumps over the lazy dog")
	enc := MustNew(key)
	dec := MustNew(key)
	ct := make([]byte, len(plain))
	pt := make([]byte, len(plain))
	enc.XORKeyStream(ct, plain)
	dec.XORKeyStream(pt, ct)
	if !bytes.Equal(pt, plain) {
		t.Fatal("round trip failed")
	}
	if bytes.Equal(ct, plain) {
		t.Fatal("ciphertext equals plaintext")
	}
}

func TestNextMatchesKeystream(t *testing.T) {
	key := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	a := MustNew(key)
	b := MustNew(key)
	buf := make([]byte, 512)
	a.Keystream(buf)
	for n, want := range buf {
		if got := b.Next(); got != want {
			t.Fatalf("byte %d: Next=%#x Keystream=%#x", n, got, want)
		}
	}
}

func TestSkipEquivalence(t *testing.T) {
	key := []byte("skipskipskip")
	for _, skip := range []int{0, 1, 2, 255, 256, 257, 1023, 4096} {
		a := MustNew(key)
		b := MustNew(key)
		a.Skip(skip)
		discard := make([]byte, skip)
		b.Keystream(discard)
		ga, gb := make([]byte, 64), make([]byte, 64)
		a.Keystream(ga)
		b.Keystream(gb)
		if !bytes.Equal(ga, gb) {
			t.Fatalf("skip %d: diverged", skip)
		}
	}
}

func TestStatePermutationInvariant(t *testing.T) {
	// Property: S remains a permutation of 0..255 through KSA and PRGA.
	check := func(c *Cipher) bool {
		s, _, _ := c.State()
		var seen [StateSize]bool
		for _, v := range s {
			if seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	f := func(key []byte, rounds uint16) bool {
		if len(key) == 0 {
			key = []byte{0}
		}
		if len(key) > MaxKeyLen {
			key = key[:MaxKeyLen]
		}
		c := MustNew(key)
		if !check(c) {
			return false
		}
		c.Skip(int(rounds))
		return check(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestXORKeyStreamPanicsOnShortDst(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c := MustNew([]byte{1})
	c.XORKeyStream(make([]byte, 1), make([]byte, 2))
}

func TestReset(t *testing.T) {
	c := MustNew([]byte("secret secret"))
	c.Reset()
	s, i, j := c.State()
	if i != 0 || j != 0 {
		t.Error("indices not reset")
	}
	for _, v := range s {
		if v != 0 {
			t.Fatal("state not zeroed")
		}
	}
}

func TestMantinShamirZ2Bias(t *testing.T) {
	// Sanity-check the most famous bias: Pr[Z2 = 0] ≈ 2/256. With 200k
	// random keys the expected count at uniform is ~781, biased ~1562.
	// This doubles as an end-to-end statistical test of the cipher.
	const trials = 200000
	key := make([]byte, 16)
	var zeros int
	seed := uint64(0x9e3779b97f4a7c15)
	for n := 0; n < trials; n++ {
		for b := range key {
			seed = seed*6364136223846793005 + 1442695040888963407
			key[b] = byte(seed >> 33)
		}
		c := MustNew(key)
		c.Next()
		if c.Next() == 0 {
			zeros++
		}
	}
	// Expected biased count 1562, uniform 781. Accept anything > 1200.
	if zeros < 1200 {
		t.Errorf("Z2=0 count %d: Mantin–Shamir bias missing (uniform ~781, biased ~1562)", zeros)
	}
}

func BenchmarkKeystream1K(b *testing.B) {
	c := MustNew([]byte("sixteen byte key"))
	buf := make([]byte, 1024)
	b.SetBytes(1024)
	for n := 0; n < b.N; n++ {
		c.Keystream(buf)
	}
}

func BenchmarkKSA(b *testing.B) {
	key := []byte("sixteen byte key")
	for n := 0; n < b.N; n++ {
		var c Cipher
		c.ksa(key)
	}
}
