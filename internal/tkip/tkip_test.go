package tkip

import (
	"bytes"
	"testing"
	"testing/quick"

	"rc4break/internal/packet"
	"rc4break/internal/rc4"
)

func testSession() *Session {
	return &Session{
		TK:     [16]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
		MICKey: [8]byte{0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4},
		TA:     [6]byte{0x00, 0x0c, 0x41, 0x82, 0xb2, 0x55},
		DA:     [6]byte{0x00, 0x11, 0x22, 0x33, 0x44, 0x55},
		SA:     [6]byte{0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb},
	}
}

func testMSDU() []byte {
	m := packet.MSDU{
		IP:      packet.IPv4{TTL: 64, SrcIP: [4]byte{192, 168, 1, 100}, DstIP: [4]byte{1, 2, 3, 4}, ID: 99},
		TCP:     packet.TCP{SrcPort: 52000, DstPort: 80, Seq: 1, Ack: 2, Flags: 0x18, Window: 1000},
		Payload: []byte("PAYLOAD"),
	}
	return m.Marshal()
}

func TestTSCPublicKeyBytes(t *testing.T) {
	tsc := TSC(0xABCD)
	if tsc.TSC0() != 0xCD || tsc.TSC1() != 0xAB {
		t.Fatalf("TSC bytes: %#x %#x", tsc.TSC0(), tsc.TSC1())
	}
	k0, k1, k2 := tsc.PublicKeyBytes()
	if k0 != 0xAB {
		t.Errorf("K0 = %#x, want TSC1", k0)
	}
	if k1 != (0xAB|0x20)&0x7f {
		t.Errorf("K1 = %#x", k1)
	}
	if k2 != 0xCD {
		t.Errorf("K2 = %#x, want TSC0", k2)
	}
}

func TestMixKeyStructure(t *testing.T) {
	var tk [16]byte
	tk[3] = 9
	var ta [6]byte
	f := func(tscRaw uint64) bool {
		tsc := TSC(tscRaw & 0xffffffffffff)
		key := MixKey(tk, ta, tsc)
		k0, k1, k2 := tsc.PublicKeyBytes()
		return key[0] == k0 && key[1] == k1 && key[2] == k2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// K1 must always avoid the weak-key space: bit 5 set, bit 7 clear.
	for tsc1 := 0; tsc1 < 256; tsc1++ {
		key := MixKey(tk, ta, TSC(tsc1)<<8)
		if key[1]&0x20 == 0 || key[1]&0x80 != 0 {
			t.Fatalf("TSC1=%#x: K1=%#x violates (TSC1|0x20)&0x7f", tsc1, key[1])
		}
	}
}

func TestMixKeyDistinctPerTSC(t *testing.T) {
	tk := [16]byte{42}
	var ta [6]byte
	a := MixKey(tk, ta, 1)
	b := MixKey(tk, ta, 2)
	if a == b {
		t.Fatal("different TSCs gave identical keys")
	}
	c := MixKey(tk, ta, 1)
	if a != c {
		t.Fatal("key mixing not deterministic")
	}
}

func TestEncapsulateDecapsulateRoundTrip(t *testing.T) {
	s := testSession()
	msdu := testMSDU()
	f := s.Encapsulate(msdu, 7)
	if len(f.Body) != len(msdu)+TrailerSize {
		t.Fatalf("frame body %d bytes, want %d", len(f.Body), len(msdu)+TrailerSize)
	}
	got, err := s.Decapsulate(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msdu) {
		t.Fatal("round trip corrupted MSDU")
	}
}

func TestDecapsulateDetectsTampering(t *testing.T) {
	s := testSession()
	msdu := testMSDU()
	f := s.Encapsulate(msdu, 7)

	bad := Frame{TSC: f.TSC, Body: append([]byte{}, f.Body...)}
	bad.Body[3] ^= 1
	if _, err := s.Decapsulate(bad); err == nil {
		t.Error("bit flip accepted")
	}
	// Wrong TSC -> wrong key -> garbage -> ICV failure.
	wrongTSC := Frame{TSC: f.TSC + 1, Body: f.Body}
	if _, err := s.Decapsulate(wrongTSC); err == nil {
		t.Error("wrong TSC accepted")
	}
	if _, err := s.Decapsulate(Frame{Body: []byte{1, 2}}); err == nil {
		t.Error("short frame accepted")
	}
}

func TestDecapsulateDetectsWrongMICKey(t *testing.T) {
	s := testSession()
	msdu := testMSDU()
	f := s.Encapsulate(msdu, 9)
	s2 := *s
	s2.MICKey[0] ^= 0xff
	if _, err := s2.Decapsulate(f); err != ErrMIC {
		t.Errorf("err = %v, want ErrMIC", err)
	}
}

func TestRecoverMICKeyFromPlaintext(t *testing.T) {
	// The §5.3 endgame: decrypt one packet, recover the MIC key exactly.
	s := testSession()
	msdu := testMSDU()
	f := s.Encapsulate(msdu, 3)
	// Simulate a perfect decryption by decrypting with the real key.
	key := MixKey(s.TK, s.TA, f.TSC)
	plain := make([]byte, len(f.Body))
	rc4XOR(key, f.Body, plain)
	got, err := RecoverMICKeyFromPlaintext(s.DA, s.SA, plain)
	if err != nil {
		t.Fatal(err)
	}
	if got != s.MICKey {
		t.Fatalf("recovered MIC key % x, want % x", got, s.MICKey)
	}
	// Corrupted plaintext must be rejected via ICV.
	plain[0] ^= 1
	if _, err := RecoverMICKeyFromPlaintext(s.DA, s.SA, plain); err != ErrICV {
		t.Errorf("err = %v, want ErrICV", err)
	}
	if _, err := RecoverMICKeyFromPlaintext(s.DA, s.SA, []byte{1}); err == nil {
		t.Error("short plaintext accepted")
	}
}

func TestForgeryAfterKeyRecovery(t *testing.T) {
	// With the recovered MIC key the attacker can inject packets that the
	// receiver accepts — the impact claim of §5.
	s := testSession()
	f := s.Encapsulate(testMSDU(), 3)
	key := MixKey(s.TK, s.TA, f.TSC)
	plain := make([]byte, len(f.Body))
	rc4XOR(key, f.Body, plain)
	micKey, err := RecoverMICKeyFromPlaintext(s.DA, s.SA, plain)
	if err != nil {
		t.Fatal(err)
	}
	attacker := &Session{TK: s.TK, MICKey: micKey, TA: s.TA, DA: s.DA, SA: s.SA}
	forged := attacker.Encapsulate([]byte("malicious payload 12345678901234567890123456789012345678"), 100)
	if _, err := s.Decapsulate(forged); err != nil {
		t.Fatalf("forged packet rejected: %v", err)
	}
}

func rc4XOR(key [16]byte, src, dst []byte) {
	rc4.MustNew(key[:]).XORKeyStream(dst, src)
}

func TestTrailerPositions(t *testing.T) {
	// §5.2: with the 48-byte headers and a 7-byte payload, the trailer
	// occupies keystream positions 56..67.
	pos := TrailerPositions(packet.HeaderSize + 7)
	if len(pos) != 12 || pos[0] != 56 || pos[11] != 67 {
		t.Fatalf("positions = %v", pos)
	}
}

func TestTrainModelValidation(t *testing.T) {
	if _, err := Train(TrainConfig{Positions: 0, KeysPerTSC: 1}); err == nil {
		t.Error("zero positions accepted")
	}
	if _, err := Train(TrainConfig{Positions: 1, KeysPerTSC: 0}); err == nil {
		t.Error("zero keys accepted")
	}
}

func TestTrainModelFindsTSCDependence(t *testing.T) {
	// With the first three key bytes fixed by the TSC, the early keystream
	// bytes are strongly TSC-dependent (this is what broke WEP and what
	// §5.1 exploits). Check that Z1's favored value differs across classes
	// more than chance, using a small but real training run.
	m, err := Train(TrainConfig{Positions: 3, KeysPerTSC: 1 << 11, Master: [16]byte{5}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Keys != 1<<11 {
		t.Fatalf("keys per class %d", m.Keys)
	}
	// The conditional distributions must differ measurably between
	// classes: compare Z1 distributions for TSC0=0 and TSC0=128 via L1
	// distance; identical distributions at this sample size would show
	// only sampling noise (~sqrt(256/N) ≈ 0.35); the structural TSC
	// dependence pushes it well above.
	d0 := m.Distribution(0, 1)
	d128 := m.Distribution(128, 1)
	var l1 float64
	for v := 0; v < 256; v++ {
		d := d0[v] - d128[v]
		if d < 0 {
			d = -d
		}
		l1 += d
	}
	if l1 < 0.05 {
		t.Errorf("per-TSC distributions suspiciously identical: L1 = %v", l1)
	}
	// Distributions must be normalized.
	var sum float64
	for _, p := range d0 {
		sum += p
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("distribution sum = %v", sum)
	}
}

func TestAttackValidation(t *testing.T) {
	m := &PerTSCModel{Positions: 4, Keys: 1, Counts: make([]uint64, 256*4*256)}
	if _, err := NewAttack(m, []int{5}); err == nil {
		t.Error("position beyond model accepted")
	}
	if _, err := NewAttack(m, []int{0}); err == nil {
		t.Error("position 0 accepted")
	}
	a, err := NewAttack(m, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SimulateCaptures(nil, []byte{1}, 1); err == nil {
		t.Error("plaintext length mismatch accepted")
	}
	if _, _, err := a.RecoverTrailer([6]byte{}, [6]byte{}, nil, 1); err == nil {
		t.Error("non-trailer attack allowed trailer recovery")
	}
}

func TestAttackObserveCounts(t *testing.T) {
	m := &PerTSCModel{Positions: 4, Keys: 1, Counts: make([]uint64, 256*4*256)}
	a, err := NewAttack(m, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	a.Observe(Frame{TSC: 0x0005, Body: []byte{0xAA, 0xBB, 0xCC, 0xDD}})
	if a.Frames != 1 {
		t.Fatal("frame count")
	}
	// class 5, position index 0 (keystream pos 1) saw ciphertext 0xAA.
	idx := 5*2*256 + 0*256 + 0xAA
	if a.counts[idx] != 1 {
		t.Fatal("ciphertext count not recorded")
	}
	idx = 5*2*256 + 1*256 + 0xCC
	if a.counts[idx] != 1 {
		t.Fatal("second position count not recorded")
	}
}

func TestEndToEndExactModeEarlyPositions(t *testing.T) {
	// Exact-mode validation of the whole likelihood pipeline: train on the
	// real cipher, capture real TKIP frames of one identical packet at
	// incrementing TSCs, and recover early plaintext bytes (where the
	// TSC-dependent biases are strong enough for test-scale data).
	if testing.Short() {
		t.Skip("exact-mode end-to-end is slow")
	}
	const positions = 2
	m, err := Train(TrainConfig{Positions: positions, KeysPerTSC: 1 << 15, Master: [16]byte{6}})
	if err != nil {
		t.Fatal(err)
	}
	s := testSession()
	msdu := testMSDU()
	attack, err := NewAttack(m, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	const frames = 1 << 18
	for i := 0; i < frames; i++ {
		// The full TSC increments so every frame gets a fresh per-packet
		// key, while TSC1 stays 0 (the trained class space) and TSC0
		// cycles through the 256 classes.
		tsc := TSC(uint64(i)<<16 | uint64(i&0xff))
		f := s.Encapsulate(msdu, tsc)
		attack.Observe(f)
	}
	lks, err := attack.Likelihoods()
	if err != nil {
		t.Fatal(err)
	}
	got1, got2 := lks[0].Best(), lks[1].Best()
	if got1 != msdu[0] || got2 != msdu[1] {
		t.Errorf("recovered (%#x,%#x), want (%#x,%#x)", got1, got2, msdu[0], msdu[1])
	}
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	m, err := Train(TrainConfig{Positions: 2, KeysPerTSC: 64, Master: [16]byte{3}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Positions != m.Positions || got.Keys != m.Keys {
		t.Fatal("metadata lost")
	}
	for i := range m.Counts {
		if got.Counts[i] != m.Counts[i] {
			t.Fatal("counts differ after round trip")
		}
	}
}

func TestLoadModelRejectsCorrupt(t *testing.T) {
	if _, err := LoadModel(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("garbage accepted")
	}
	// Shape mismatch: positions says 5 but counts sized for 2.
	bad := &PerTSCModel{Positions: 5, Keys: 1, Counts: make([]uint64, 256*2*256)}
	var buf bytes.Buffer
	if err := bad.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(&buf); err == nil {
		t.Error("shape mismatch accepted")
	}
	// Zero keys.
	bad2 := &PerTSCModel{Positions: 1, Keys: 0, Counts: make([]uint64, 256*1*256)}
	buf.Reset()
	if err := bad2.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(&buf); err == nil {
		t.Error("zero-keys model accepted")
	}
	// Overflowing shape: 256·(1<<48)·256 wraps to 0, which an empty Counts
	// would match if the check multiplied.
	bad3 := &PerTSCModel{Positions: 1 << 48, Keys: 1}
	buf.Reset()
	if err := bad3.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(&buf); err == nil {
		t.Error("overflowing shape accepted")
	}
}

func TestSyntheticModelShape(t *testing.T) {
	m := SyntheticModel(4, 1.0/256, 42)
	if m.Positions != 4 {
		t.Fatal("positions wrong")
	}
	// Distributions must be normalized and non-degenerate, and differ
	// across classes (that is the whole point).
	d0 := m.Distribution(0, 1)
	d1 := m.Distribution(1, 1)
	var sum, l1 float64
	for v := 0; v < 256; v++ {
		sum += d0[v]
		diff := d0[v] - d1[v]
		if diff < 0 {
			diff = -diff
		}
		l1 += diff
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("distribution sum %v", sum)
	}
	if l1 == 0 {
		t.Fatal("classes identical")
	}
	// Deterministic per seed.
	m2 := SyntheticModel(4, 1.0/256, 42)
	for i := range m.Counts {
		if m.Counts[i] != m2.Counts[i] {
			t.Fatal("not deterministic")
		}
	}
}
