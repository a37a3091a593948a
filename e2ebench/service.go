package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rc4break/internal/cookieattack"
	"rc4break/internal/netsim"
	"rc4break/internal/service"
	"rc4break/internal/tkip"
)

// serviceCapacity is the attackd scheduler's slot count in service-mix.
const serviceCapacity = 2

// serviceSpec maps a victim to the job an attackd client submits: model
// mode, checkpointing every round. Cookie jobs run at the paper budget with
// 2^10 candidates per round; TKIP jobs run against the shared demo model.
func serviceSpec(v netsim.SimVictim) service.JobSpec {
	if v.Attack == "tkip" {
		return service.JobSpec{Attack: "tkip", Mode: "model", Seed: v.Seed, Budget: 9 << 20,
			FirstDecode: 1 << 20, MaxCandidates: 1 << 12, TrainKeys: trainKeys, CheckpointRounds: 1}
	}
	return service.JobSpec{Attack: "cookie", Mode: "model", Seed: v.Seed, Secret: v.Secret,
		Budget: 9 << 27, FirstDecode: 1 << 27, MaxCandidates: 1 << 10, CheckpointRounds: 1}
}

// serviceEnv is one in-process attackd: a server over a store in a temp
// dir, its HTTP API on loopback, and one keep-alive client. It records when
// each job first ran (from Config.Logf) and when its result was emitted
// (from Config.Results).
type serviceEnv struct {
	dir    string
	store  *service.Store
	srv    *service.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client

	mu      sync.Mutex
	running map[string]time.Time
	done    map[string]time.Time
}

func startService() (*serviceEnv, error) {
	dir, err := os.MkdirTemp("", "e2ebench-store-*")
	if err != nil {
		return nil, err
	}
	e := &serviceEnv{dir: dir, running: make(map[string]time.Time), done: make(map[string]time.Time)}
	if e.store, err = service.OpenStore(dir); err == nil {
		e.srv, err = service.New(service.Config{Store: e.store, Capacity: serviceCapacity, Logf: e.logf, Results: e})
	}
	var l net.Listener
	if err == nil {
		l, err = net.Listen("tcp", "127.0.0.1:0")
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e.hs = &http.Server{Handler: e.srv.Handler()}
	e.served = make(chan error, 1)
	go func() { e.served <- e.hs.Serve(l) }()
	e.url = "http://" + l.Addr().String()
	e.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	return e, nil
}

// close stops the HTTP server, waits for every job goroutine and removes
// the store.
func (e *serviceEnv) close() {
	e.hs.Close()
	<-e.served
	e.srv.Wait()
	e.client.CloseIdleConnections()
	os.RemoveAll(e.dir)
}

func (e *serviceEnv) logf(format string, args ...interface{}) {
	msg := fmt.Sprintf(format, args...)
	if f := strings.Fields(msg); len(f) >= 2 && f[0] == "job" && strings.HasSuffix(msg, ": running") {
		now := time.Now()
		e.mu.Lock()
		e.running[f[1]] = now
		e.mu.Unlock()
	}
}

// Write receives the server's per-job result lines (one JSON object per
// call).
func (e *serviceEnv) Write(line []byte) (int, error) {
	now := time.Now()
	var r struct {
		Job string `json:"job"`
	}
	if err := json.Unmarshal(line, &r); err == nil {
		e.mu.Lock()
		e.done[r.Job] = now
		e.mu.Unlock()
	}
	return len(line), nil
}

func (e *serviceEnv) times(id string) (running, done time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.running[id], e.done[id]
}

// call makes one API request and decodes a JSON reply into v (or returns
// the raw body when v is nil).
func (e *serviceEnv) call(method, path string, body any, want int, v any) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, e.url+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if v != nil {
		return raw, json.Unmarshal(raw, v)
	}
	return raw, nil
}

// runServiceMix is the attackd shape: a burst of cookie and TKIP jobs far
// above capacity, submitted over HTTP on the population's jitter schedule
// (an open loop), so latency is sojourn time through the scheduler queue.
func runServiceMix(b *bench) error {
	var jl jobList
	var pop []netsim.SimVictim
	var env *serviceEnv
	var model *tkip.PerTSCModel
	defer func() {
		if env != nil {
			env.close()
		}
	}()
	err := b.setup(func(rep int) error {
		if env != nil {
			env.close()
			env = nil
		}
		pop = netsim.Population(netsim.PopulationConfig{Victims: b.jobs, Tenants: 2, Seed: b.opts.seed,
			TKIPEvery: 4, MaxJitterMS: 100})
		var err error
		if jl, err = newJobList(pop, b.jobs, serviceSpec); err != nil {
			return err
		}
		if model, err = b.trainModel(rep); err != nil {
			return err
		}
		env, err = startService()
		return err
	})
	if err != nil {
		return err
	}
	b.slots = serviceCapacity
	b.budget = []string{"service.granule_s", "service.decode_s"}
	b.parallel = []string{"snapshot.encode_s"}

	lay := b.lay
	ids := make([]string, len(jl.specs))
	p := measure(func(p *pass) {
		order := make([]int, len(jl.specs))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(x, y int) bool { return pop[order[x]].JitterMS < pop[order[y]].JitterMS })
		start := time.Now()
		due := make([]time.Time, len(jl.specs))
		maxLag := 0.0
		for _, i := range order {
			due[i] = start.Add(time.Duration(pop[i].JitterMS) * time.Millisecond)
			time.Sleep(time.Until(due[i]))
			sent := time.Now()
			if lag := sent.Sub(due[i]).Seconds() * 1e3; lag > maxLag {
				maxLag = lag
			}
			var st service.JobStatus
			_, err := env.call("POST", "/api/v1/jobs", service.SubmitRequest{Tenant: pop[i].Tenant, Spec: jl.specs[i]}, http.StatusAccepted, &st)
			lay.sample("service.submit_ms", time.Since(sent).Seconds()*1e3)
			if err != nil {
				b.fail(i, "submit: %v", err)
				continue
			}
			ids[i] = st.ID
		}
		lay.count("service.submit_lag_ms_max", maxLag)
		env.srv.Wait()
		end := start
		p.latency = make([]float64, len(jl.specs))
		for i, id := range ids {
			running, done := env.times(id)
			if done.IsZero() {
				continue
			}
			if done.After(end) {
				end = done
			}
			p.latency[i] = done.Sub(due[i]).Seconds()
			if !running.IsZero() {
				lay.sample("service.queue_wait_s", running.Sub(due[i]).Seconds())
			}
		}
		p.wall = end.Sub(start).Seconds()
	})
	b.main = p
	b.peakRSS = peakRSSMB()

	// Outputs, read back through the API: each job must equal
	// service.SoloRun of its spec bitwise.
	evidence := make([][]byte, len(jl.specs))
	for i, id := range ids {
		var st service.JobStatus
		o := outcome{Victim: jl.victims[i], Attack: jl.specs[i].Attack, Mode: jl.specs[i].Mode}
		if id != "" {
			_, err := env.call("GET", "/api/v1/jobs/"+id+"/result", nil, http.StatusOK, &st)
			if err == nil {
				evidence[i], err = env.call("GET", "/api/v1/jobs/"+id+"/evidence", nil, http.StatusOK, nil)
			}
			if err == nil {
				o, err = statusOutcome(jl.victims[i], st, evidence[i])
			}
			if err != nil {
				b.fail(i, "%v", err)
			}
		}
		p.outs = append(p.outs, o)
		p.ok = append(p.ok, false)
		p.observed += o.Observed
		lay.count("online.rounds", float64(o.Rounds))
		lay.count("oracle.checks", float64(o.Checks))
		lay.count("oracle.skipped", float64(o.Skipped))
	}
	b.checkSame(p, b.runJobs(jl, service.SoloRun), "service.SoloRun of its spec")
	b.checkRecovered(p, jl.specs)
	if b.opts.trace {
		return b.serviceLayers(env, p, evidence, model)
	}
	return nil
}

// statusOutcome converts a finished job's API status into its outcome.
func statusOutcome(victim int, st service.JobStatus, evidence []byte) (outcome, error) {
	o := outcome{Victim: victim, Attack: st.Attack, Mode: st.Mode, Success: st.Success, Rank: st.Rank,
		Observed: st.Observed, Rounds: st.Rounds, Checks: st.Checks, Skipped: st.Skipped}
	o.Evidence = sha256.Sum256(evidence)
	if st.State != service.StateDone {
		return o, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	if st.Plaintext != "" {
		pt, err := hex.DecodeString(st.Plaintext)
		if err != nil {
			return o, fmt.Errorf("job %s: plaintext %q: %v", st.ID, st.Plaintext, err)
		}
		o.Plaintext = pt
	}
	return o, nil
}

// serviceLayers reads the service layer's figures after the window: the
// server's own granule and decode histograms, the store's size, and a
// re-timed snapshot encode of each job's evidence multiplied by the encodes
// the server made (one per round with CheckpointRounds 1, plus the final
// one after an unsuccessful last round).
func (b *bench) serviceLayers(env *serviceEnv, p *pass, evidence [][]byte, model *tkip.PerTSCModel) error {
	lay := b.lay
	sc := bufio.NewScanner(strings.NewReader(env.srv.Registry().Render()))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		switch f[0] {
		case "attackd_granule_seconds_sum":
			lay.count("service.granule_s", v)
		case "attackd_decode_seconds_total":
			lay.count("service.decode_s", v)
		}
	}
	var size int64
	err := filepath.WalkDir(env.dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			size += info.Size()
		}
		return err
	})
	if err != nil {
		return err
	}
	lay.count("service.store_write_mb", float64(size)/1e6)
	blobs, err := env.store.BlobCount()
	if err != nil {
		return err
	}
	lay.count("service.blobs", float64(blobs))
	for i, o := range p.outs {
		if evidence[i] == nil {
			continue
		}
		var write func(io.Writer) error
		if o.Attack == "cookie" {
			a, err := cookieattack.ReadSnapshot(bytes.NewReader(evidence[i]))
			if err != nil {
				return err
			}
			write = a.WriteSnapshot
		} else {
			a, err := tkip.ReadAttackSnapshot(bytes.NewReader(evidence[i]), model)
			if err != nil {
				return err
			}
			write = a.WriteSnapshot
		}
		encodes := o.Rounds
		if !o.Success {
			encodes++
		}
		one := newLayers()
		if _, err := encode(write, one); err != nil {
			return err
		}
		lay.count("snapshot.encode_s", one.get("snapshot.encode_s")*float64(encodes))
		lay.count("snapshot.encode_bytes", one.get("snapshot.encode_bytes")*float64(encodes))
	}
	return nil
}
