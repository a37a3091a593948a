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
//
// The Wi-Fi victim has two transmit paths with one output. Transmit runs
// tkip.Session.Encapsulate per frame and is the protocol reference: the
// forgery check and the tests decrypt against it. TransmitBatch is the
// capture generator the exact-mode drivers use: it keys rc4.MultiLanes
// frames at a time through the batched KSA, fanned over workers, and
// TestTransmitBatchMatchesTransmit pins every frame it writes to
// Transmit's.
package netsim

import (
	"crypto/subtle"
	"errors"
	"runtime"

	"rc4break/internal/dataset"
	"rc4break/internal/httpmodel"
	"rc4break/internal/michael"
	"rc4break/internal/packet"
	"rc4break/internal/rc4"
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
// pinned to the attack's trained class space (see README "Paper fidelity"
// on TSC classes).
type WiFiVictim struct {
	Session *tkip.Session
	MSDU    []byte
	// Workers bounds the goroutines TransmitBatch keys frames on (0 =
	// GOMAXPROCS). Frame bytes do not depend on it.
	Workers int
	next    uint64
	// shards holds TransmitBatch's per-worker state, reused across calls.
	shards []*txShard
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

// Transmit encrypts and "sends" the next retransmission, modelling the
// §5.2 identical-packet generator: the attacker's server holds a TCP
// connection to the victim open and repeatedly retransmits one segment.
// Retransmissions are valid TCP (same sequence number, same payload), so
// they traverse NATs and firewalls, and every copy crosses the Wi-Fi link
// as a fresh TKIP frame: the MSDU is byte-identical each time while the
// ciphertext differs per TSC. At the paper's 2500 packets/s a one-hour
// capture is ~9.5·2^20 frames. The full TSC increments (fresh per-packet
// key) while TSC1 stays 0 and TSC0 cycles, so captures stay inside the
// trained per-TSC class space.
func (v *WiFiVictim) Transmit() tkip.Frame {
	tsc := victimTSC(v.next)
	v.next++
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

// victimTSC is the TSC of the victim's transmission i: the full counter
// increments while TSC1 stays 0 and TSC0 cycles.
func victimTSC(i uint64) tkip.TSC { return tkip.TSC(i<<16 | i&0xff) }

// BatchFrames is how many frames the capture drivers transmit per
// TransmitBatch call: enough lane groups to amortize the per-call
// plaintext, AES key schedule and worker fan-out, while the ~240 KB of
// bodies stays cache-resident until the collector copies them out.
const BatchFrames = 4096

// TransmitBatch is len(frames) Transmit calls in one: it writes the
// victim's next len(frames) frames into frames, their bodies into the
// caller's flat buffer bodies (len(frames)·FrameLen bytes, frame k's at
// k·FrameLen), and advances the victim by exactly len(frames). The
// plaintext and TK's AES key schedule are built once per call; the
// per-frame RC4 keys run rc4.MultiLanes at a time through the batched KSA,
// with lane groups split over Workers goroutines. Every frame equals the
// corresponding Transmit's bit for bit.
func (v *WiFiVictim) TransmitBatch(frames []tkip.Frame, bodies []byte) {
	n, flen := len(frames), v.FrameLen()
	if len(bodies) != n*flen {
		panic("netsim: TransmitBatch body buffer is not len(frames)·FrameLen bytes")
	}
	first := v.next
	v.next += uint64(n)
	plain := v.Session.Plaintext(v.MSDU)
	mixer := tkip.NewMixer(v.Session.TK, v.Session.TA)
	groups := (n + rc4.MultiLanes - 1) / rc4.MultiLanes
	shards := v.Workers
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	shards = min(shards, groups)
	for len(v.shards) < shards {
		v.shards = append(v.shards, newTxShard())
	}
	// Shard sh owns a contiguous run of lane groups and its own scratch;
	// frames are independent, so the split cannot change a byte.
	_ = dataset.ForShards(shards, shards, func(sh int) error {
		for g := groups * sh / shards; g < groups*(sh+1)/shards; g++ {
			lo, hi := g*rc4.MultiLanes, min((g+1)*rc4.MultiLanes, n)
			v.shards[sh].encrypt(mixer, plain, first+uint64(lo), frames[lo:hi], bodies[lo*flen:hi*flen])
		}
		return nil
	})
}

// Rewind moves the victim back n transmissions: a capture loop that stops
// part-way through a TransmitBatch gives back the frames it did not offer,
// so the victim's position stays the count of frames offered.
func (v *WiFiVictim) Rewind(n uint64) { v.next -= n }

// txShard is one TransmitBatch worker's reused state: the batched cipher,
// its keys, and the keystream destinations.
type txShard struct {
	mc   rc4.MultiCipher
	keys [rc4.MultiLanes][16]byte
	keyv [][]byte // keyv[l] is keys[l][:]
	dsts [][]byte
	pad  []byte // the destination of lanes past a short tail group
}

func newTxShard() *txShard {
	st := &txShard{keyv: make([][]byte, rc4.MultiLanes), dsts: make([][]byte, rc4.MultiLanes)}
	for l := range st.keyv {
		st.keyv[l] = st.keys[l][:]
	}
	return st
}

// encrypt builds up to rc4.MultiLanes consecutive frames, the first being
// transmission first: one batched KSA over their per-packet keys, one
// keystream pass written straight into the bodies, then the plaintext
// XORed in. Lanes past len(frames) rekey with frame 0's key and write
// their keystream to a discarded pad row.
func (st *txShard) encrypt(m *tkip.Mixer, plain []byte, first uint64, frames []tkip.Frame, bodies []byte) {
	flen := len(plain)
	if len(st.pad) != flen {
		st.pad = make([]byte, flen)
	}
	for l := range rc4.MultiLanes {
		if l >= len(frames) {
			st.keys[l], st.dsts[l] = st.keys[0], st.pad
			continue
		}
		tsc := victimTSC(first + uint64(l))
		m.Mix(&st.keys[l], tsc)
		body := bodies[l*flen : (l+1)*flen : (l+1)*flen]
		frames[l] = tkip.Frame{TSC: tsc, Body: body}
		st.dsts[l] = body
	}
	if err := st.mc.Rekey(st.keyv); err != nil {
		panic("netsim: impossible TKIP key error: " + err.Error())
	}
	st.mc.Keystream(st.dsts)
	for _, f := range frames {
		subtle.XORBytes(f.Body, f.Body, plain)
	}
}

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
