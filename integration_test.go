// Cross-package integration tests: each exercises one of the paper's
// attack narratives end to end through the public seams of the internal
// packages, in exact mode wherever the statistics allow.
package rc4break

import (
	"bytes"
	"math/rand"
	"testing"

	"rc4break/internal/cookieattack"
	"rc4break/internal/job"
	"rc4break/internal/netsim"
	"rc4break/internal/online"
	rc4pkg "rc4break/internal/rc4"
	"rc4break/internal/tkip"
	"rc4break/internal/tlsrec"
)

// TestTKIPNarrative runs §5 front to back: the victim retransmits, sniffer
// filters, attack accumulates, candidate list is ICV-pruned, Michael
// inverts, and the forged packet is accepted. Model-mode captures keep it
// fast; the exact-mode pipeline is covered in internal/tkip's tests.
func TestTKIPNarrative(t *testing.T) {
	if testing.Short() {
		t.Skip("integration narrative is slow")
	}
	session := &tkip.Session{
		TK:     [16]byte{11, 22, 33, 44, 55, 66, 77, 88, 99, 11, 22, 33, 44, 55, 66, 77},
		MICKey: [8]byte{0xfe, 0xed, 0xfa, 0xce, 0xca, 0xfe, 0xbe, 0xef},
		TA:     [6]byte{1, 2, 3, 4, 5, 6},
		DA:     [6]byte{7, 8, 9, 10, 11, 12},
		SA:     [6]byte{13, 14, 15, 16, 17, 18},
	}
	victim := netsim.NewWiFiVictim(session, []byte("PAYLOAD"))
	positions := tkip.TrailerPositions(len(victim.MSDU))

	// Sanity: the retransmission and sniffer plumbing carries real frames.
	sniffer := netsim.NewSniffer(victim.FrameLen())
	for i := 0; i < 64; i++ {
		if !sniffer.Filter(victim.Transmit()) {
			t.Fatal("sniffer rejected an injected frame")
		}
	}

	// Model-mode capture against the calibrated synthetic distributions.
	model := tkip.SyntheticModel(positions[len(positions)-1], 1.0/768, 5)
	attack, err := tkip.NewAttack(model, positions)
	if err != nil {
		t.Fatal(err)
	}
	// The true trailer, via a reference decapsulation.
	f := session.Encapsulate(victim.MSDU, 77)
	plain, err := session.Decapsulate(f) // verifies MSDU only
	if err != nil || !bytes.Equal(plain, victim.MSDU) {
		t.Fatal("reference encapsulation broken")
	}
	trailer := referenceTrailer(session, victim.MSDU)
	if err := attack.SimulateCaptures(rand.New(rand.NewSource(6)), trailer, 12<<20); err != nil {
		t.Fatal(err)
	}
	micKey, depth, err := attack.RecoverTrailer(session.DA, session.SA, victim.MSDU, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if micKey != session.MICKey {
		t.Fatalf("MIC key mismatch (depth %d)", depth)
	}
	forged := (&tkip.Session{TK: session.TK, MICKey: micKey, TA: session.TA,
		DA: session.DA, SA: session.SA}).Encapsulate([]byte("forged packet 01234567890123456789012345678901234567"), 0xFACE)
	if _, err := session.Decapsulate(forged); err != nil {
		t.Fatalf("forgery rejected: %v", err)
	}
}

func referenceTrailer(s *tkip.Session, msdu []byte) []byte {
	// Re-derive the full plaintext frame body by encapsulating at a known
	// TSC and stripping the encryption with a second encapsulation pass:
	// XORing the two identical-plaintext bodies cancels nothing (same key),
	// so instead rebuild the trailer from first principles via Decapsulate
	// internals: encapsulate, then decrypt with the mixed key.
	f := s.Encapsulate(msdu, 31337)
	key := tkip.MixKey(s.TK, s.TA, 31337)
	c := mustRC4(key[:])
	plain := make([]byte, len(f.Body))
	c.XORKeyStream(plain, f.Body)
	return plain[len(msdu):]
}

// TestHTTPSNarrative runs §6.3 onward: the Listing-3 aligned request
// flows over a real TLS RC4 connection, and the model-mode statistics
// recover the cookie. The §6.1 cookie-jar manipulation that produces the
// layout is not simulated; job.CookieLayout builds the request directly.
func TestHTTPSNarrative(t *testing.T) {
	if testing.Short() {
		t.Skip("integration narrative is slow")
	}
	const secret = "JarManipulated16"

	// The aligned request over a real TLS connection.
	cfg, req, err := job.CookieLayout(secret)
	if err != nil {
		t.Fatal(err)
	}
	master := make([]byte, tlsrec.MasterSecretSize)
	master[0] = 0xd5
	victim, err := netsim.NewHTTPSVictim(master, req)
	if err != nil {
		t.Fatal(err)
	}
	attack, err := cookieattack.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A handful of real records validate the exact-mode plumbing...
	for i := 0; i < 32; i++ {
		rec := victim.SendRequest()
		if err := attack.ObserveRecord(rec[tlsrec.HeaderSize:]); err != nil {
			t.Fatal(err)
		}
	}
	// ...and model mode supplies paper-scale statistics on top: a fresh
	// model-mode job, so the tiny exact sample doesn't skew the evidence,
	// recovered in one online round against the server.
	rt, err := job.New(job.Spec{Attack: "cookie", Mode: "model", Seed: 8, Secret: secret}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := online.Run(online.Config{
		Decoder:       rt.Decoder,
		Oracle:        rt.Oracle,
		Cadence:       online.Cadence{First: 1 << 31},
		Budget:        1 << 31,
		MaxCandidates: 1 << 13,
		Feed:          online.FeedFunc(rt.CaptureTo),
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Plaintext) != secret {
		t.Fatalf("recovered %q at rank %d", res.Plaintext, res.Rank)
	}
	if server := rt.Oracle.(*netsim.CookieServer); server.Attempts != uint64(res.Rank) {
		t.Fatal("server attempt accounting wrong")
	}
}

func mustRC4(key []byte) *rc4pkg.Cipher {
	return rc4pkg.MustNew(key)
}
