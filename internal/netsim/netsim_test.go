package netsim

import (
	"bytes"
	"testing"

	"rc4break/internal/packet"
	"rc4break/internal/tkip"
	"rc4break/internal/tlsrec"
)

func testTKIPSession() *tkip.Session {
	return &tkip.Session{
		TK:     [16]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6},
		MICKey: [8]byte{1, 2, 3, 4, 5, 6, 7, 8},
		TA:     [6]byte{0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff},
		DA:     [6]byte{0x11, 0x22, 0x33, 0x44, 0x55, 0x66},
		SA:     [6]byte{0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc},
	}
}

func TestWiFiVictimPacketShape(t *testing.T) {
	v := NewWiFiVictim(testTKIPSession(), []byte("PAYLOAD"))
	if len(v.MSDU) != packet.HeaderSize+7 {
		t.Fatalf("MSDU length %d", len(v.MSDU))
	}
	if v.FrameLen() != len(v.MSDU)+tkip.TrailerSize {
		t.Fatal("frame length accounting wrong")
	}
	f := v.Transmit()
	if len(f.Body) != v.FrameLen() {
		t.Fatal("transmitted frame length mismatch")
	}
}

func TestWiFiVictimTransmissionsDecryptIdentically(t *testing.T) {
	// Every retransmission carries the identical MSDU under a fresh key.
	s := testTKIPSession()
	v := NewWiFiVictim(s, []byte("PAYLOAD"))
	var bodies [][]byte
	for i := 0; i < 5; i++ {
		f := v.Transmit()
		msdu, err := s.Decapsulate(f)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(msdu, v.MSDU) {
			t.Fatalf("frame %d: MSDU differs", i)
		}
		bodies = append(bodies, f.Body)
	}
	// Ciphertexts must differ (fresh per-packet keys).
	if bytes.Equal(bodies[0], bodies[1]) {
		t.Fatal("two transmissions encrypted identically")
	}
}

func TestWiFiVictimTSCClassSpace(t *testing.T) {
	v := NewWiFiVictim(testTKIPSession(), []byte("PAYLOAD"))
	for i := 0; i < 600; i++ {
		f := v.Transmit()
		if f.TSC.TSC1() != 0 {
			t.Fatalf("TSC1 = %d, must stay in trained class space", f.TSC.TSC1())
		}
	}
}

func TestSnifferFilters(t *testing.T) {
	v := NewWiFiVictim(testTKIPSession(), []byte("PAYLOAD"))
	sn := NewSniffer(v.FrameLen())
	f := v.Transmit()
	if !sn.Filter(f) {
		t.Fatal("injected frame rejected")
	}
	if sn.Filter(f) {
		t.Fatal("retransmission of same TSC accepted")
	}
	// A different-length frame (other traffic) is dropped.
	other := tkip.Frame{TSC: 999, Body: make([]byte, v.FrameLen()+3)}
	if sn.Filter(other) {
		t.Fatal("foreign frame accepted")
	}
	if sn.Captured != 1 || sn.Dropped != 2 {
		t.Fatalf("captured=%d dropped=%d", sn.Captured, sn.Dropped)
	}
}

func TestHTTPSVictim(t *testing.T) {
	master := make([]byte, tlsrec.MasterSecretSize)
	master[0] = 1
	req, _, err := AlignedRequest("site.com", "auth", "0123456789abcdef", 32)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewHTTPSVictim(master, req)
	if err != nil {
		t.Fatal(err)
	}
	r1 := v.SendRequest()
	r2 := v.SendRequest()
	if len(r1) != len(r2) {
		t.Fatal("record lengths differ between requests")
	}
	if bytes.Equal(r1, r2) {
		t.Fatal("two records encrypted identically (RC4 state must advance)")
	}
	if len(r1) != tlsrec.HeaderSize+v.RecordPlaintextLen() {
		t.Fatal("record length accounting wrong")
	}
	if _, err := NewHTTPSVictim(master[:10], req); err == nil {
		t.Fatal("short master secret accepted")
	}
}

func TestAlignedRequest(t *testing.T) {
	req, counterBase, err := AlignedRequest("site.com", "auth", "0123456789abcdef", 64)
	if err != nil {
		t.Fatal(err)
	}
	if req.CookieOffset()%256 != 64 {
		t.Fatalf("alignment %d", req.CookieOffset()%256)
	}
	if counterBase != 64 {
		t.Fatalf("counter base %d", counterBase)
	}
	// The request must still carry the cookie first in the Cookie header
	// and have injected padding after it.
	m, off := req.Marshal(), req.CookieOffset()
	before, after := m[:off], m[off+len(req.Cookie):]
	if !bytes.HasSuffix(before, []byte("auth=")) {
		t.Fatal("cookie not immediately after its name")
	}
	if len(after) < 128 {
		t.Fatalf("only %d known bytes after cookie; ABSAB needs gaps up to 128", len(after))
	}
}

func TestCookieServer(t *testing.T) {
	s := &CookieServer{Secret: []byte("topsecret1234567")}
	if s.Check([]byte("wrong")) {
		t.Fatal("wrong length accepted")
	}
	if s.Check([]byte("topsecret1234568")) {
		t.Fatal("wrong value accepted")
	}
	if !s.Check([]byte("topsecret1234567")) {
		t.Fatal("correct cookie rejected")
	}
	if s.Attempts != 3 {
		t.Fatalf("attempts = %d", s.Attempts)
	}
}

func TestThroughputConstants(t *testing.T) {
	// The §5.4/§6.3 numbers the experiment drivers report attack time with.
	if TKIPInjectionPerSecond != 2500 || HTTPSRequestsPerSecond != 4450 || BruteForceTestsPerSecond != 20000 {
		t.Fatal("paper throughput constants changed")
	}
}

func TestTransmitIdenticalMSDUs(t *testing.T) {
	s := testTKIPSession()
	v := NewWiFiVictim(s, []byte("PAYLOAD"))
	f1 := v.Transmit()
	f2 := v.Transmit()
	// Identical plaintext under the hood, different ciphertext on the air.
	m1, err := s.Decapsulate(f1)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := s.Decapsulate(f2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m1, m2) {
		t.Fatal("retransmissions differ in plaintext")
	}
	if bytes.Equal(f1.Body, f2.Body) {
		t.Fatal("retransmissions encrypted identically")
	}
	if f1.TSC == f2.TSC {
		t.Fatal("TSC did not increment")
	}
}

func TestTransmitFeedsSniffer(t *testing.T) {
	v := NewWiFiVictim(testTKIPSession(), []byte("PAYLOAD"))
	sn := NewSniffer(v.FrameLen())
	var captured int
	for i := 0; i < 100; i++ {
		if sn.Filter(v.Transmit()) {
			captured++
		}
	}
	if captured != 100 || sn.Captured != 100 {
		t.Fatalf("captured %d/%d", captured, sn.Captured)
	}
}
