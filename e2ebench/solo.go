package main

import (
	"crypto/sha256"
	"errors"
	"time"

	"rc4break/internal/netsim"
	"rc4break/internal/online"
	"rc4break/internal/service"
	"rc4break/internal/tkip"
)

// trainKeys sizes the TKIP per-TSC model every TKIP job shares (the
// service's default).
const trainKeys = 1 << 12

// cookieModelSpec is the canonical §6 job: model-mode capture at the paper
// budget 9·2^27, decoding on a geometric cadence from 2^27 with 2^13
// candidates per round.
func cookieModelSpec(v netsim.SimVictim) service.JobSpec {
	return service.JobSpec{Attack: "cookie", Mode: "model", Seed: v.Seed, Secret: v.Secret,
		Budget: 9 << 27, FirstDecode: 1 << 27, MaxCandidates: 1 << 13}
}

// exactSpec is an exact-capture job: a fixed budget, one shallow decode at
// its end. The budgets give the cookie job (≈20 µs/record on a 2-CPU host)
// and the TKIP job (≈3 µs/frame) about the same capture time.
func exactSpec(v netsim.SimVictim) service.JobSpec {
	if v.Attack == "tkip" {
		return service.JobSpec{Attack: "tkip", Mode: "exact", Budget: 1 << 18, FirstDecode: 1 << 18,
			MaxCandidates: 1 << 6, TrainKeys: trainKeys}
	}
	return service.JobSpec{Attack: "cookie", Mode: "exact", Seed: v.Seed, Secret: v.Secret,
		Budget: 1 << 15, FirstDecode: 1 << 15, MaxCandidates: 1 << 6}
}

// jobList is a workload's generated input: the normalized spec of each job
// and the population index of its victim.
type jobList struct {
	specs   []service.JobSpec
	victims []int
}

// newJobList maps n jobs onto the population round-robin through specOf.
func newJobList(pop []netsim.SimVictim, n int, specOf func(netsim.SimVictim) service.JobSpec) (jobList, error) {
	var jl jobList
	for i := 0; i < n; i++ {
		v := pop[i%len(pop)]
		spec, err := specOf(v).Normalize()
		if err != nil {
			return jl, err
		}
		jl.specs = append(jl.specs, spec)
		jl.victims = append(jl.victims, v.Index)
	}
	return jl, nil
}

// outcomeOf converts one finished job into its checkable outcome; a runtime
// error other than budget exhaustion is returned.
func outcomeOf(victim int, spec service.JobSpec, res online.Result, evidence []byte, runErr error) (outcome, error) {
	o := outcome{
		Victim: victim, Attack: spec.Attack, Mode: spec.Mode,
		Success: runErr == nil, Plaintext: res.Plaintext, Rank: res.Rank,
		Observed: res.Observed, Rounds: res.Rounds, Checks: res.Checks, Skipped: res.Skipped,
		Evidence: sha256.Sum256(evidence),
	}
	if runErr != nil && !errors.Is(runErr, online.ErrBudgetExhausted) {
		return o, runErr
	}
	return o, nil
}

// runJobs times jobs back to back as a closed loop with one client: each
// job is due the moment the previous one returns. run executes one job.
func (b *bench) runJobs(jl jobList, run func(spec service.JobSpec) (online.Result, []byte, error)) *pass {
	return measure(func(p *pass) {
		for i, spec := range jl.specs {
			t0 := time.Now()
			res, evidence, err := run(spec)
			p.latency = append(p.latency, time.Since(t0).Seconds())
			o, err := outcomeOf(jl.victims[i], spec, res, evidence, err)
			if err != nil {
				b.fail(i, "%v", err)
			}
			p.outs = append(p.outs, o)
			p.ok = append(p.ok, false)
			p.observed += res.Observed
		}
	})
}

// checkRecovered marks oracle-confirmed jobs as successes and fails any
// whose confirmed plaintext is not the victim's secret.
func (b *bench) checkRecovered(p *pass, specs []service.JobSpec) {
	for i, o := range p.outs {
		if !o.Success {
			continue
		}
		if o.Attack == "cookie" && string(o.Plaintext) != specs[i].Secret {
			b.fail(i, "recovered cookie %q, victim's secret is %q", o.Plaintext, specs[i].Secret)
			continue
		}
		p.ok[i] = true
	}
}

// checkSame fails every job of got whose outcome differs from want's.
func (b *bench) checkSame(got, want *pass, what string) {
	for i := range got.outs {
		if i >= len(want.outs) || !got.outs[i].same(want.outs[i]) {
			b.fail(i, "outcome differs from %s", what)
		}
	}
}

// trainModel trains the shared TKIP model as one set-up repetition does:
// the first repetition through service.SharedModel (which the jobs then
// reuse), later ones through tkip.Train with the same configuration, so
// every repetition pays for one training.
func (b *bench) trainModel(rep int) (*tkip.PerTSCModel, error) {
	t0 := time.Now()
	var m *tkip.PerTSCModel
	var err error
	if rep == 0 {
		m, err = service.SharedModel(trainKeys)
	} else {
		positions := tkip.TrailerPositions(len(netsim.NewWiFiVictim(tkip.DemoSession(), tkip.DemoPayload).MSDU))
		_, err = tkip.Train(tkip.TrainConfig{Positions: positions[len(positions)-1], KeysPerTSC: trainKeys})
		if err == nil {
			m, err = service.SharedModel(trainKeys)
		}
	}
	b.trainS = append(b.trainS, time.Since(t0).Seconds())
	return m, err
}

// warmUp runs spec cut to its first decode point, so the heap and decoder
// scratch reach steady state before the timed window.
func warmUp(spec service.JobSpec) error {
	spec.Budget = spec.FirstDecode
	_, _, err := service.SoloRun(spec)
	if err != nil && !errors.Is(err, online.ErrBudgetExhausted) {
		return err
	}
	return nil
}

// runCookieSolo is the canonical records-to-first-success job run solo,
// back to back.
func runCookieSolo(b *bench) error {
	var jl jobList
	err := b.setup(func(int) error {
		pop := netsim.Population(netsim.PopulationConfig{Victims: b.jobs, Seed: b.opts.seed})
		var err error
		if jl, err = newJobList(pop, b.jobs, cookieModelSpec); err != nil {
			return err
		}
		return warmUp(jl.specs[0])
	})
	if err != nil {
		return err
	}
	b.budget = []string{"cookieattack.simulate_s", "cookieattack.likelihood_s", "recovery.viterbi_s",
		"recovery.enumerate_s", "oracle.check_s", "snapshot.encode_s"}
	b.soloWorkload(jl, nil, false)
	return nil
}

// runExactCapture runs exact-mode cookie and TKIP jobs, alternating, over a
// population of eight victims; capture dominates and decode is one shallow
// round per job.
func runExactCapture(b *bench) error {
	var jl jobList
	var model *tkip.PerTSCModel
	err := b.setup(func(rep int) error {
		pop := netsim.Population(netsim.PopulationConfig{Victims: 8, Seed: b.opts.seed, TKIPEvery: 2})
		var err error
		if jl, err = newJobList(pop, b.jobs, exactSpec); err != nil {
			return err
		}
		if model, err = b.trainModel(rep); err != nil {
			return err
		}
		// Warm-up: the first cookie and TKIP victims at 1/64 of their budget.
		warm, err := newJobList(pop, 2, exactSpec)
		if err != nil {
			return err
		}
		for _, spec := range warm.specs {
			spec.FirstDecode >>= 6
			if err := warmUp(spec); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.budget = []string{"netsim.victim_s", "netsim.sniff_s", "tlsrec.scan_s", "cookieattack.fold_s", "tkip.fold_s",
		"cookieattack.likelihood_s", "tkip.likelihood_s", "recovery.viterbi_s", "recovery.enumerate_s",
		"oracle.check_s", "snapshot.encode_s"}
	b.soloWorkload(jl, model, true)
	return nil
}

// soloWorkload runs jl through service.SoloRun. Untraced, that pass is
// reported; exact-capture jobs are then checked against jobs built from the
// same public constructors (one reference per distinct spec). Traced, the
// built jobs with layer timers are the reported pass and the SoloRun pass is
// both their reference and the untraced time for the overhead.
func (b *bench) soloWorkload(jl jobList, model *tkip.PerTSCModel, exact bool) {
	u := b.runJobs(jl, service.SoloRun)
	b.main = u
	if b.opts.trace {
		lay := b.lay
		t := b.runJobs(jl, func(spec service.JobSpec) (online.Result, []byte, error) {
			return runBuilt(spec, model, lay)
		})
		b.untraced, b.main = u, t
		b.checkSame(t, u, "service.SoloRun")
	}
	b.peakRSS = peakRSSMB()
	if !exact {
		b.checkRecovered(b.main, jl.specs)
		return
	}
	if !b.opts.trace {
		refs := make(map[service.JobSpec]outcome)
		for i, spec := range jl.specs {
			ref, ok := refs[spec]
			if !ok {
				res, evidence, err := runBuilt(spec, model, nil)
				if ref, err = outcomeOf(jl.victims[i], spec, res, evidence, err); err != nil {
					b.fail(i, "reference run: %v", err)
					continue
				}
				refs[spec] = ref
			}
			ref.Victim = u.outs[i].Victim
			if !u.outs[i].same(ref) {
				b.fail(i, "evidence differs from the reference built from public constructors")
			}
		}
	}
	for i := range b.main.outs {
		_, bad := b.failed[i]
		b.main.ok[i] = !bad
	}
}
