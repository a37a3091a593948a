package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"rc4break/internal/cliutil"
	"rc4break/internal/cookieattack"
	"rc4break/internal/httpmodel"
	"rc4break/internal/netsim"
	"rc4break/internal/online"
	"rc4break/internal/rc4"
	"rc4break/internal/recovery"
	"rc4break/internal/service"
	"rc4break/internal/snapshot"
	"rc4break/internal/tkip"
	"rc4break/internal/tlsrec"
)

// layers accumulates per-layer metrics — busy seconds, counts and latency
// samples — keyed by the per-layer metric names. Every value comes from the
// benchmark's own timers around calls into a layer's public functions; the
// program itself carries no tracing. A nil *layers records nothing. Safe for
// concurrent use (fleet workers and the coordinator record in parallel).
type layers struct {
	mu      sync.Mutex
	vals    map[string]float64
	samples map[string][]float64
}

func newLayers() *layers {
	return &layers{vals: make(map[string]float64), samples: make(map[string][]float64)}
}

// add accumulates d as seconds under name.
func (l *layers) add(name string, d time.Duration) { l.count(name, d.Seconds()) }

// since accumulates the time elapsed from t0 under name.
func (l *layers) since(name string, t0 time.Time) { l.add(name, time.Since(t0)) }

// count accumulates v under name.
func (l *layers) count(name string, v float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.vals[name] += v
	l.mu.Unlock()
}

// sample records one latency observation under name.
func (l *layers) sample(name string, v float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.samples[name] = append(l.samples[name], v)
	l.mu.Unlock()
}

func (l *layers) get(name string) float64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.vals[name]
}

func (l *layers) samplesOf(name string) []float64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.samples[name]...)
}

// addResult folds one online.Result into the online.* metrics.
func (l *layers) addResult(res online.Result) {
	l.count("online.rounds", float64(res.Rounds))
	l.count("oracle.skipped", float64(res.Skipped))
	l.add("online.capture_s", res.CaptureTime)
	l.add("online.decode_s", res.DecodeTime)
	l.add("online.walk_s", res.OracleTime)
	l.add("online.residual_s", res.Elapsed-res.CaptureTime-res.DecodeTime-res.OracleTime)
}

// cookieConfig is the §6 request layout every cookie job uses: the
// aligned request for secret and the attack configuration over it.
func cookieConfig(secret string) (cookieattack.Config, httpmodel.Request, error) {
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

// builtJob is one job assembled from the same public constructors
// service.SoloRun uses, with the benchmark's timers around each layer call.
// Its outcome must equal SoloRun's bitwise; that is checked on every run
// that uses it.
type builtJob struct {
	decoder  online.Decoder
	oracle   online.Oracle
	observed func() uint64
	capture  func(target uint64) error
	evidence func() ([]byte, error)
}

// buildJob assembles spec (already normalized) with layer timers into l.
// TKIP jobs need the shared trained model.
func buildJob(spec service.JobSpec, model *tkip.PerTSCModel, l *layers) (*builtJob, error) {
	stream := snapshot.StreamInfo{Mode: spec.Mode, Seed: spec.Seed}
	switch spec.Attack {
	case "cookie":
		cfg, req, err := cookieConfig(spec.Secret)
		if err != nil {
			return nil, err
		}
		a, err := cookieattack.New(cfg)
		if err != nil {
			return nil, err
		}
		a.Workers = spec.Workers
		a.Stream = stream
		secret := []byte(spec.Secret)
		j := &builtJob{
			decoder:  &cookieDecoder{a: a, cfg: cfg, l: l},
			oracle:   &timedOracle{o: &netsim.CookieServer{Secret: secret}, l: l},
			observed: func() uint64 { return a.Records },
			evidence: func() ([]byte, error) { return encode(a.WriteSnapshot, l) },
		}
		if spec.Mode == "model" {
			j.capture = func(target uint64) error {
				rng := rand.New(rand.NewSource(cliutil.ContinuationSeed(spec.Seed, a.Records)))
				t0 := time.Now()
				err := a.SimulateStatistics(rng, secret, target-a.Records)
				l.since("cookieattack.simulate_s", t0)
				return err
			}
			return j, nil
		}
		master := make([]byte, 48)
		rand.New(rand.NewSource(spec.Seed)).Read(master)
		victim, err := netsim.NewHTTPSVictim(master, req)
		if err != nil {
			return nil, err
		}
		collector := &tlsrec.CollectRequests{WantLen: victim.RecordPlaintextLen()}
		j.capture = func(target uint64) error {
			var victimD, feedD, foldD time.Duration
			var wire, folded uint64
			var foldErr error
			fold := func(body []byte) {
				t0 := time.Now()
				if err := a.ObserveRecord(body); err != nil && foldErr == nil {
					foldErr = err
				}
				foldD += time.Since(t0)
				folded++
			}
			for a.Records < target && foldErr == nil {
				t0 := time.Now()
				rec := victim.SendRequest()
				t1 := time.Now()
				err := collector.Feed(rec, fold)
				feedD += time.Since(t1)
				victimD += t1.Sub(t0)
				wire += uint64(len(rec))
				if err != nil {
					return err
				}
			}
			l.add("netsim.victim_s", victimD)
			l.add("tlsrec.scan_s", feedD-foldD)
			l.add("cookieattack.fold_s", foldD)
			l.count("netsim.victim_bytes", float64(wire))
			l.count("tlsrec.scan_bytes", float64(wire))
			l.count("cookieattack.fold_records", float64(folded))
			return foldErr
		}
		return j, nil
	case "tkip":
		if model == nil {
			return nil, errors.New("tkip job needs a trained model")
		}
		session := tkip.DemoSession()
		victim := netsim.NewWiFiVictim(session, tkip.DemoPayload)
		a, err := tkip.NewAttack(model, tkip.TrailerPositions(len(victim.MSDU)))
		if err != nil {
			return nil, err
		}
		a.Stream = stream
		j := &builtJob{
			decoder: &tkipDecoder{a: a, l: l},
			oracle: &timedOracle{l: l, o: &tkip.TrailerOracle{
				DA: session.DA, SA: session.SA, MSDU: victim.MSDU,
				Confirm: netsim.ForgeryConfirm(session, victim.MSDU),
			}},
			observed: func() uint64 { return a.Frames },
			evidence: func() ([]byte, error) { return encode(a.WriteSnapshot, l) },
		}
		if spec.Mode == "model" {
			trailer := trueTrailer(session, victim.MSDU)
			j.capture = func(target uint64) error {
				rng := rand.New(rand.NewSource(cliutil.ContinuationSeed(spec.Seed, a.Frames)))
				t0 := time.Now()
				err := a.SimulateCaptures(rng, trailer, target-a.Frames)
				l.since("tkip.simulate_s", t0)
				return err
			}
			return j, nil
		}
		sniffer := netsim.NewSniffer(victim.FrameLen())
		j.capture = func(target uint64) error {
			var victimD, sniffD, foldD time.Duration
			var wire, folded uint64
			for a.Frames < target {
				t0 := time.Now()
				f := victim.Transmit()
				t1 := time.Now()
				keep := sniffer.Filter(f)
				t2 := time.Now()
				victimD += t1.Sub(t0)
				sniffD += t2.Sub(t1)
				wire += uint64(len(f.Body))
				if keep {
					a.Observe(f)
					foldD += time.Since(t2)
					folded++
				}
			}
			l.add("netsim.victim_s", victimD)
			l.add("netsim.sniff_s", sniffD)
			l.add("tkip.fold_s", foldD)
			l.count("netsim.victim_bytes", float64(wire))
			l.count("tkip.fold_frames", float64(folded))
			return nil
		}
		return j, nil
	}
	return nil, fmt.Errorf("unknown attack %q", spec.Attack)
}

// trueTrailer decrypts one encapsulation with the real key to obtain the
// plaintext MIC‖ICV that model-mode capture feeds the sampler.
func trueTrailer(s *tkip.Session, msdu []byte) []byte {
	f := s.Encapsulate(msdu, 0)
	key := tkip.MixKey(s.TK, s.TA, 0)
	plain := make([]byte, len(f.Body))
	rc4.MustNew(key[:]).XORKeyStream(plain, f.Body)
	return plain[len(msdu):]
}

// encode times one evidence snapshot encode.
func encode(write func(io.Writer) error, l *layers) ([]byte, error) {
	var buf bytes.Buffer
	t0 := time.Now()
	err := write(&buf)
	l.since("snapshot.encode_s", t0)
	l.count("snapshot.encode_bytes", float64(buf.Len()))
	return buf.Bytes(), err
}

// runBuilt runs a built job through online.Run on the same granule
// schedule service.SoloRun uses and returns the result and final evidence.
func runBuilt(spec service.JobSpec, model *tkip.PerTSCModel, l *layers) (online.Result, []byte, error) {
	j, err := buildJob(spec, model, l)
	if err != nil {
		return online.Result{}, nil, err
	}
	res, runErr := online.Run(online.Config{
		Decoder:       j.decoder,
		Oracle:        j.oracle,
		Cadence:       online.Cadence{First: spec.FirstDecode, Every: spec.DecodeEvery},
		MaxCandidates: spec.MaxCandidates,
		Budget:        spec.Budget,
		Feed:          granuleFeed{chunk: spec.CaptureChunk, observed: j.observed, capture: j.capture},
	})
	l.addResult(res)
	if runErr != nil && !errors.Is(runErr, online.ErrBudgetExhausted) {
		return res, nil, runErr
	}
	snap, err := j.evidence()
	if err != nil {
		return res, nil, err
	}
	return res, snap, runErr
}

// granuleFeed advances capture in absolute granules — the next boundary is
// the smaller of the target and the next multiple of chunk — the schedule a
// job on the service (gated or solo) follows. chunk is a normalized spec's
// CaptureChunk, never 0.
type granuleFeed struct {
	chunk    uint64
	observed func() uint64
	capture  func(target uint64) error
}

func (f granuleFeed) AdvanceTo(target uint64) error {
	for at := f.observed(); at < target; at = f.observed() {
		if err := f.capture(min(target, (at/f.chunk+1)*f.chunk)); err != nil {
			return err
		}
	}
	return nil
}

// cookieDecoder is cookieattack.Attack.Decode split at its layer boundary:
// the likelihood pass, then the list-Viterbi decode over those tables.
type cookieDecoder struct {
	a   *cookieattack.Attack
	cfg cookieattack.Config
	dec recovery.PairDecoder
	l   *layers
}

func (d *cookieDecoder) Observed() uint64 { return d.a.Records }

func (d *cookieDecoder) Decode(max int) (recovery.CandidateSource, error) {
	t0 := time.Now()
	lks, err := d.a.Likelihoods()
	d.l.since("cookieattack.likelihood_s", t0)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	d.dec.Workers = d.a.Workers
	cands, err := d.dec.Decode(lks, d.cfg.Plaintext[d.cfg.Offset-1], d.cfg.Plaintext[d.cfg.Offset+d.cfg.CookieLen], max, d.cfg.Charset)
	d.l.since("recovery.viterbi_s", t0)
	if err != nil {
		return nil, err
	}
	for i := range cands {
		cands[i].Plaintext = cands[i].Plaintext[1 : d.cfg.CookieLen+1]
	}
	return &timedSource{src: recovery.SliceSource(cands), l: d.l}, nil
}

// tkipDecoder is tkip.Attack.Decode split at its layer boundary: the
// likelihood pass, then the lazy best-first enumerator.
type tkipDecoder struct {
	a *tkip.Attack
	l *layers
}

func (d *tkipDecoder) Observed() uint64 { return d.a.Frames }

func (d *tkipDecoder) Decode(int) (recovery.CandidateSource, error) {
	t0 := time.Now()
	lks, err := d.a.Likelihoods()
	d.l.since("tkip.likelihood_s", t0)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	src, err := recovery.NewSingleByteEnumerator(lks)
	d.l.since("recovery.enumerate_s", t0)
	if err != nil {
		return nil, err
	}
	return &timedSource{src: src, l: d.l}, nil
}

// timedSource times and counts candidate enumeration.
type timedSource struct {
	src recovery.CandidateSource
	l   *layers
}

func (s *timedSource) Next() (recovery.Candidate, bool) {
	t0 := time.Now()
	c, ok := s.src.Next()
	s.l.since("recovery.enumerate_s", t0)
	if ok {
		s.l.count("recovery.candidates", 1)
	}
	return c, ok
}

// timedOracle times and counts oracle checks.
type timedOracle struct {
	o online.Oracle
	l *layers
}

func (o *timedOracle) Check(c []byte) bool {
	t0 := time.Now()
	ok := o.o.Check(c)
	o.l.since("oracle.check_s", t0)
	o.l.count("oracle.checks", 1)
	return ok
}
