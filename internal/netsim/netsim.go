// Package netsim simulates the network environments of §5.4 and §6.3
// in-process: a WPA-TKIP Wi-Fi network in which an attacker-controlled TCP
// server makes the victim transmit identical packets (via retransmissions,
// §5.2) while a sniffer captures the encrypted frames, and an HTTPS client
// that issues attacker-aligned requests over a persistent RC4 TLS
// connection (the XMLHttpRequest/WebWorker traffic generation of §6.3)
// while a man-in-the-middle collects the records.
//
// The substitution for real hardware: the attack code consumes exactly the
// bytes a live capture would provide (encrypted frame bodies plus cleartext
// TSC; TLS record ciphertext), and the simulator produces those
// byte-identically via the real tkip and tlsrec encapsulation paths.
package netsim

import (
	"errors"

	"rc4break/internal/httpmodel"
	"rc4break/internal/michael"
	"rc4break/internal/packet"
	"rc4break/internal/tkip"
	"rc4break/internal/tlsrec"
)

// Throughput constants measured by the paper — exposed so experiments can
// convert ciphertext counts into wall-clock attack time the way §5.4/§6.3 do.
const (
	// TKIPInjectionPerSecond is the identical-packet injection rate the
	// paper sustains against a live network (§5.4).
	TKIPInjectionPerSecond = 2500
	// HTTPSRequestsPerSecond is the request rate of the idle-browser
	// setup (§6.3).
	HTTPSRequestsPerSecond = 4450
	// BruteForceTestsPerSecond is the cookie-checking rate with HTTP
	// pipelining (§6.3).
	BruteForceTestsPerSecond = 20000
)

// WiFiVictim is a TKIP station that retransmits one identical TCP packet —
// the §5.2 injection target. The TSC increments per transmission, TSC1
// pinned to the attack's trained class space (see DESIGN.md on the scaled
// TSC space).
type WiFiVictim struct {
	Session *tkip.Session
	MSDU    []byte
	next    uint64
}

// NewWiFiVictim builds the victim with the paper's preferred packet shape:
// a TCP data packet with a 7-byte payload, making the frame length unique
// and placing the trailer at strongly biased positions (§5.2).
func NewWiFiVictim(s *tkip.Session, payload []byte) *WiFiVictim {
	m := packet.MSDU{
		IP: packet.IPv4{
			TTL:   64,
			SrcIP: [4]byte{192, 168, 1, 100},
			DstIP: [4]byte{203, 0, 113, 80},
			ID:    0x3412,
		},
		TCP: packet.TCP{
			SrcPort: 52113,
			DstPort: 80,
			Seq:     0x10203040,
			Ack:     0x50607080,
			Flags:   0x18, // PSH|ACK
			Window:  29200,
		},
		Payload: payload,
	}
	return &WiFiVictim{Session: s, MSDU: m.Marshal()}
}

// Transmit encrypts and "sends" the next retransmission. The full TSC
// increments (fresh per-packet key) while TSC1 stays 0 and TSC0 cycles, so
// captures stay inside the trained per-TSC class space.
func (v *WiFiVictim) Transmit() tkip.Frame {
	i := v.next
	v.next++
	tsc := tkip.TSC(i<<16 | i&0xff)
	return v.Session.Encapsulate(v.MSDU, tsc)
}

// FrameLen reports the on-air body length — the unique length the sniffer
// filters on (§5.4: "thanks to the 7-byte payload, we uniquely detected the
// injected packet ... without any false positives").
func (v *WiFiVictim) FrameLen() int { return len(v.MSDU) + tkip.TrailerSize }

// Skip advances the victim past n transmissions without encrypting them —
// each frame is independently keyed by its TSC, so skipping is O(1). A
// resumed capture uses it to fast-forward past the frames its checkpoint
// already holds; the subsequent Transmit stream is byte-identical to an
// uninterrupted victim's.
func (v *WiFiVictim) Skip(n uint64) { v.next += n }

// Sniffer filters captured frames by the injected packet's unique length
// and de-duplicates retransmissions of the same TSC (§5.4). Its seen-set
// is unbounded; capture runs through tkip.TraceCollector's bounded window,
// and Sniffer is kept as the independent reference tests and benchmarks
// compare against.
type Sniffer struct {
	WantLen  int
	seen     map[tkip.TSC]struct{}
	Captured uint64
	Dropped  uint64
}

// NewSniffer creates a sniffer for frames of the given body length.
func NewSniffer(wantLen int) *Sniffer {
	return &Sniffer{WantLen: wantLen, seen: make(map[tkip.TSC]struct{})}
}

// Filter reports whether the frame is an injected-packet capture that has
// not been seen before.
func (sn *Sniffer) Filter(f tkip.Frame) bool {
	if len(f.Body) != sn.WantLen {
		sn.Dropped++
		return false
	}
	if _, dup := sn.seen[f.TSC]; dup {
		sn.Dropped++
		return false
	}
	sn.seen[f.TSC] = struct{}{}
	sn.Captured++
	return true
}

// TCPInjector models the §5.2 identical-packet generator: the attacker's
// server holds a TCP connection to the victim open and repeatedly
// retransmits one segment. Retransmissions are valid TCP (same sequence
// number, same payload), so they traverse NATs and firewalls, and the
// victim's stack acknowledges each copy — every retransmission crosses the
// Wi-Fi link as a fresh TKIP frame with an incremented TSC.
type TCPInjector struct {
	Victim *WiFiVictim
	// Retransmissions counts segment copies sent by the server.
	Retransmissions uint64
}

// NewTCPInjector wires an injector to the victim's Wi-Fi side.
func NewTCPInjector(v *WiFiVictim) *TCPInjector {
	return &TCPInjector{Victim: v}
}

// Retransmit delivers one server-side retransmission: the victim's stack
// forwards the identical MSDU over the air (one frame). The MSDU is
// byte-identical every time — the property the whole §5 statistics
// collection rests on — while the frame ciphertext differs per TSC.
func (inj *TCPInjector) Retransmit() tkip.Frame {
	inj.Retransmissions++
	return inj.Victim.Transmit()
}

// Burst performs n retransmissions, invoking capture for each resulting
// frame. At the paper's 2500 packets/s a one-hour capture is ~9.5·2^20
// frames; Burst is the in-process equivalent.
func (inj *TCPInjector) Burst(n uint64, capture func(tkip.Frame)) {
	for i := uint64(0); i < n; i++ {
		capture(inj.Retransmit())
	}
}

// ForgeryConfirm returns a Confirm hook for tkip.TrailerOracle that
// validates a recovered MIC key the way a live attacker would (§7.4): forge
// a packet under the key and observe whether the network accepts it. The
// hook builds the forgery through the real encapsulation path (the
// simulator's attacker shares the session's TK the same way
// cmd/tkipattack's forgery demo does — over the air the equivalent step is
// keystream reuse) and accepts the key iff the victim-side Decapsulate
// does, so pure ICV collisions with a wrong Michael key are rejected.
func ForgeryConfirm(s *tkip.Session, msdu []byte) func([michael.KeySize]byte) bool {
	const probeTSC tkip.TSC = 0xF00D << 16 // outside the victim's capture classes
	return func(micKey [michael.KeySize]byte) bool {
		attacker := &tkip.Session{TK: s.TK, MICKey: micKey, TA: s.TA, DA: s.DA, SA: s.SA}
		_, err := s.Decapsulate(attacker.Encapsulate(msdu, probeTSC))
		return err == nil
	}
}

// HTTPSVictim is a browser issuing aligned HTTPS requests with the secret
// cookie over one persistent RC4 TLS connection (§6.3).
type HTTPSVictim struct {
	Conn    *tlsrec.Conn
	Request httpmodel.Request
	body    []byte
}

// NewHTTPSVictim derives connection keys from the master secret and
// prepares the aligned request.
func NewHTTPSVictim(master []byte, req httpmodel.Request) (*HTTPSVictim, error) {
	var cr, sr [32]byte
	cr[0], sr[0] = 0xc1, 0x5e
	client, _, err := tlsrec.DeriveKeys(master, cr, sr)
	if err != nil {
		return nil, err
	}
	return &HTTPSVictim{
		Conn:    tlsrec.NewConn(client),
		Request: req,
		body:    req.Marshal(),
	}, nil
}

// SendRequest seals the next request and returns the full TLS record as
// seen on the wire.
func (v *HTTPSVictim) SendRequest() []byte {
	return v.Conn.Seal(v.body)
}

// RecordPlaintextLen is the sealed record's plaintext length (request plus
// MAC) — what the attacker uses to derive keystream alignment (§6.3).
func (v *HTTPSVictim) RecordPlaintextLen() int {
	return len(v.body) + tlsrec.MACSize
}

// Skip advances the victim past n requests without sealing them: the
// connection's RC4 stream and sequence number move exactly as n SendRequest
// calls would, at raw PRGA speed. A resumed capture uses it to fast-forward
// past the records its checkpoint already holds; the subsequent SendRequest
// stream is byte-identical to an uninterrupted victim's.
func (v *HTTPSVictim) Skip(n uint64) {
	v.Conn.SkipRecords(n, len(v.body))
}

// CookieServer models the target web server for the brute-force phase: it
// accepts a guessed cookie iff it matches the secret, and counts attempts
// (the paper's tool tested >20000 cookies per second; the experiment
// drivers use Attempts with BruteForceTestsPerSecond to report time).
type CookieServer struct {
	Secret   []byte
	Attempts uint64
}

// Check validates one guess.
func (s *CookieServer) Check(guess []byte) bool {
	s.Attempts++
	if len(guess) != len(s.Secret) {
		return false
	}
	for i := range guess {
		if guess[i] != s.Secret[i] {
			return false
		}
	}
	return true
}

// ErrAlignment is returned when a request layout cannot satisfy the
// alignment the attack requires.
var ErrAlignment = errors.New("netsim: cookie alignment failed")

// AlignedRequest builds the §6.1 request for the given secret cookie with
// the cookie aligned to keystream offset wantMod (mod 256) inside the
// record plaintext. It returns the request and the PRGA counter base for
// the cookie-attack configuration.
func AlignedRequest(host, cookieName, secret string, wantMod int) (httpmodel.Request, int, error) {
	req := httpmodel.Request{
		Host:         host,
		Path:         "/",
		CookieName:   cookieName,
		Cookie:       secret,
		FixedHeaders: httpmodel.DefaultFixedHeaders(),
		Padding: "injected1=" + pad(60) + "; injected2=" + pad(80) +
			"; injected3=" + pad(100),
	}
	req, err := httpmodel.AlignCookie(req, wantMod)
	if err != nil {
		return req, 0, ErrAlignment
	}
	// The chain's first byte sits at plaintext offset off-1, i.e. keystream
	// position off (1-indexed) within the record — constant mod 256 on a
	// persistent connection with fixed-size records when the record length
	// is a multiple of 256; experiments arrange record sizes accordingly.
	counterBase := req.CookieOffset() % 256
	return req, counterBase, nil
}

func pad(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = 'k'
	}
	return string(b)
}
