package service

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"rc4break/internal/cliutil"
	"rc4break/internal/netsim"
	"rc4break/internal/online"
	"rc4break/internal/snapshot"
)

// loadSpec maps a simulated victim to a job spec sized for test runtimes:
// model-mode jobs at paper-scale budgets (cookie successes land around
// 9<<26 records), exact-mode jobs at small budgets that exhaust quickly —
// the bitwise comparison against SoloRun is what matters, not the outcome.
func loadSpec(v netsim.SimVictim) JobSpec {
	if v.Attack == "tkip" {
		if v.Index%8 == 7 {
			// Seed is pinned to 0 by Normalize: these specs are identical
			// across victims, so their evidence blobs must dedup to one file.
			return JobSpec{Attack: "tkip", Mode: "exact", Budget: 1 << 15, FirstDecode: 1 << 14,
				MaxCandidates: 1 << 12, TrainKeys: 1 << 12, CheckpointRounds: 100}
		}
		return JobSpec{Attack: "tkip", Mode: "model", Seed: v.Seed, Budget: 9 << 20,
			FirstDecode: 1 << 20, MaxCandidates: 1 << 12, TrainKeys: 1 << 12, CheckpointRounds: 100}
	}
	spec := JobSpec{Attack: "cookie", Mode: "model", Seed: v.Seed, Secret: v.Secret,
		Budget: 9 << 27, FirstDecode: 9 << 25, MaxCandidates: 1 << 10, CheckpointRounds: 100}
	if v.Index%12 == 2 {
		spec.Mode = "exact"
		spec.Budget = 1 << 15
		spec.FirstDecode = 1 << 14
	}
	return spec
}

// soloRunner caches SoloRun results by resolved spec so duplicate-spec jobs
// cost one reference run.
type soloRunner struct {
	mu    sync.Mutex
	cache map[string]soloOut
}

type soloOut struct {
	res  online.Result
	snap []byte
	err  error
}

func (sr *soloRunner) run(t *testing.T, spec JobSpec) (online.Result, []byte, error) {
	t.Helper()
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	keyBytes, err := json.Marshal(norm)
	if err != nil {
		t.Fatal(err)
	}
	key := string(keyBytes)
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if out, ok := sr.cache[key]; ok {
		return out.res, out.snap, out.err
	}
	res, snap, runErr := SoloRun(spec)
	if runErr != nil && !errors.Is(runErr, online.ErrBudgetExhausted) {
		t.Fatalf("solo run failed: %v", runErr)
	}
	if sr.cache == nil {
		sr.cache = make(map[string]soloOut)
	}
	sr.cache[key] = soloOut{res, snap, runErr}
	return res, snap, runErr
}

func submitHTTP(base, tenant string, spec JobSpec) (JobStatus, int, error) {
	body, err := json.Marshal(SubmitRequest{Tenant: tenant, Spec: spec})
	if err != nil {
		return JobStatus{}, 0, err
	}
	resp, err := http.Post(base+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return JobStatus{}, 0, err
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode != http.StatusAccepted {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return st, resp.StatusCode, fmt.Errorf("submit: http %d: %s", resp.StatusCode, e.Error)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, resp.StatusCode, err
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, buf.Bytes()
}

// TestServiceLoadAcceptance is the tentpole acceptance test: a generated
// population of 32 victims (mixed cookie/TKIP, model/exact, four tenants)
// plus two duplicate-spec submissions all run concurrently through the HTTP
// API over four scheduler slots, with jittered submission times — and every
// job's evidence bytes, rank, observed count, rounds, checks and skips must
// be bitwise-identical to an unscheduled SoloRun of the same spec. It then
// checks the store deduplicated shared payloads: one evidence blob per
// distinct spec, and nothing else.
func TestServiceLoadAcceptance(t *testing.T) {
	pop := netsim.Population(netsim.PopulationConfig{
		Victims: 32, Tenants: 4, Seed: 1, TKIPEvery: 4, MaxJitterMS: 25,
	})
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var results bytes.Buffer
	s, err := New(Config{Store: store, Capacity: 4, Logf: t.Logf, Results: &results})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type sub struct {
		tenant string
		spec   JobSpec
		jitter time.Duration
	}
	subs := make([]sub, 0, len(pop)+2)
	for _, v := range pop {
		subs = append(subs, sub{v.Tenant, loadSpec(v), time.Duration(v.JitterMS) * time.Millisecond})
	}
	// Two extra tenants submit victim 0's exact spec: content addressing
	// must collapse all three final evidence blobs into one file.
	subs = append(subs,
		sub{"tenant-extra-a", loadSpec(pop[0]), 0},
		sub{"tenant-extra-b", loadSpec(pop[0]), 5 * time.Millisecond})
	if len(subs) < 32 {
		t.Fatalf("load test has %d jobs, want >= 32", len(subs))
	}

	ids := make([]string, len(subs))
	var wg sync.WaitGroup
	for i, sb := range subs {
		wg.Add(1)
		go func(i int, sb sub) {
			defer wg.Done()
			time.Sleep(sb.jitter)
			st, code, err := submitHTTP(ts.URL, sb.tenant, sb.spec)
			if err != nil || code != http.StatusAccepted {
				t.Errorf("submit %d: code=%d err=%v", i, code, err)
				return
			}
			ids[i] = st.ID
		}(i, sb)
	}
	wg.Wait()
	if t.Failed() {
		t.Fatal("submissions failed")
	}
	s.Wait()

	solo := &soloRunner{}
	expected := make(map[string]bool) // every blob key the store should hold
	successes := 0
	statuses := make([]JobStatus, len(subs))
	for i := range subs {
		var st JobStatus
		if code := getJSON(t, ts.URL+"/api/v1/jobs/"+ids[i]+"/result", &st); code != http.StatusOK {
			t.Fatalf("job %s result: http %d", ids[i], code)
		}
		statuses[i] = st
		if st.State != StateDone {
			t.Fatalf("job %s state %q (error %q), want done", ids[i], st.State, st.Error)
		}
		res, snap, runErr := solo.run(t, subs[i].spec)
		if runErr == nil {
			successes++
		}
		if st.Success != (runErr == nil) {
			t.Errorf("job %s success=%v, solo success=%v", ids[i], st.Success, runErr == nil)
		}
		if st.Rank != res.Rank || st.Observed != res.Observed || st.Rounds != res.Rounds ||
			st.Checks != res.Checks || st.Skipped != res.Skipped {
			t.Errorf("job %s diverged from solo: rank %d/%d observed %d/%d rounds %d/%d checks %d/%d skipped %d/%d",
				ids[i], st.Rank, res.Rank, st.Observed, res.Observed, st.Rounds, res.Rounds,
				st.Checks, res.Checks, st.Skipped, res.Skipped)
		}
		if st.Plaintext != hex.EncodeToString(res.Plaintext) {
			t.Errorf("job %s plaintext %q, solo %q", ids[i], st.Plaintext, hex.EncodeToString(res.Plaintext))
		}
		code, ev := getBody(t, ts.URL+"/api/v1/jobs/"+ids[i]+"/evidence")
		if code != http.StatusOK {
			t.Fatalf("job %s evidence: http %d", ids[i], code)
		}
		if !bytes.Equal(ev, snap) {
			t.Errorf("job %s evidence (%d bytes) is not bitwise-identical to solo evidence (%d bytes)",
				ids[i], len(ev), len(snap))
		}
		k := snapshot.BlobKey(blobKind, snap)
		if want := hex.EncodeToString(k[:]); st.Evidence != want {
			t.Errorf("job %s evidence key %s, want content address %s", ids[i], st.Evidence, want)
		}
		expected[st.Evidence] = true
	}
	if successes == 0 {
		t.Error("no job in the load mix recovered its secret; the mix should include successes")
	}

	// Duplicate-spec groups share one evidence blob: victim 0 and the two
	// extra submissions, and the four identical exact-mode TKIP specs.
	if statuses[len(pop)].Evidence != statuses[0].Evidence || statuses[len(pop)+1].Evidence != statuses[0].Evidence {
		t.Errorf("duplicate cookie specs did not share an evidence blob: %s %s %s",
			statuses[0].Evidence, statuses[len(pop)].Evidence, statuses[len(pop)+1].Evidence)
	}
	var tkipExact []string
	for i := range subs {
		if subs[i].spec.Attack == "tkip" && subs[i].spec.Mode == "exact" {
			tkipExact = append(tkipExact, statuses[i].Evidence)
		}
	}
	if len(tkipExact) < 2 {
		t.Fatalf("load mix has %d exact tkip jobs, want >= 2", len(tkipExact))
	}
	for _, k := range tkipExact[1:] {
		if k != tkipExact[0] {
			t.Errorf("identical tkip specs did not share an evidence blob: %v", tkipExact)
		}
	}

	// The store holds exactly the distinct evidence blobs — no duplicates,
	// no strays.
	want := make([]string, 0, len(expected))
	for k := range expected {
		want = append(want, k)
	}
	sort.Strings(want)
	got, err := store.BlobKeys()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("store holds %d blobs, want exactly the %d distinct payloads (dedup failed or strays written)",
			len(got), len(want))
	}
	if len(want) >= len(subs) {
		t.Errorf("%d blobs for %d jobs: duplicate-spec payloads were not deduplicated", len(want), len(subs))
	}

	// Satellite: the results stream carries one CLI-schema line per job with
	// job/tenant attribution set.
	seen := make(map[string]bool)
	dec := json.NewDecoder(&results)
	for dec.More() {
		var r cliutil.RunResult
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("results stream: %v", err)
		}
		if r.Job == "" || r.Tenant == "" {
			t.Fatalf("results line missing job/tenant attribution: %+v", r)
		}
		seen[r.Job] = true
	}
	if len(seen) != len(subs) {
		t.Errorf("results stream covered %d jobs, want %d", len(seen), len(subs))
	}

	// Metrics reflect the finished fleet.
	code, metricsBody := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: http %d", code)
	}
	doneLine := fmt.Sprintf("attackd_jobs{state=%q} %d", StateDone, len(subs))
	if !bytes.Contains(metricsBody, []byte(doneLine)) {
		t.Errorf("/metrics missing %q", doneLine)
	}
	for _, name := range []string{"attackd_observations_total", "attackd_decode_rounds_total",
		"attackd_decode_seconds_total", "attackd_store_blobs", "attackd_queue_depth"} {
		if !bytes.Contains(metricsBody, []byte(name)) {
			t.Errorf("/metrics missing %s", name)
		}
	}
}

// crashSpecs are the restart tests' workload: multi-round model-mode cookie
// and TKIP jobs checkpointing every round, so an interrupt always lands
// with durable mid-run state behind it. The TKIP job's model is never
// stored: a restarted server retrains it from TrainKeys.
func crashSpecs() ([]JobSpec, []string) {
	specs := []JobSpec{
		{Attack: "cookie", Mode: "model", Seed: 101, Secret: "Badger7+",
			Budget: 9 << 27, FirstDecode: 9 << 25, MaxCandidates: 1 << 10, CheckpointRounds: 1},
		{Attack: "cookie", Mode: "model", Seed: 102, Secret: "C00kie",
			Budget: 9 << 27, FirstDecode: 9 << 25, MaxCandidates: 1 << 10, CheckpointRounds: 1},
		{Attack: "cookie", Mode: "model", Seed: 103, Secret: "Waldo42",
			Budget: 9 << 27, FirstDecode: 9 << 25, MaxCandidates: 1 << 10, CheckpointRounds: 1},
		{Attack: "tkip", Mode: "model", Seed: 104, Budget: 9 << 20,
			FirstDecode: 1 << 20, MaxCandidates: 1 << 12, TrainKeys: 1 << 12, CheckpointRounds: 1},
	}
	return specs, []string{"t-a", "t-b", "t-c", "t-d"}
}

// TestServiceCrashRestartResumesByteIdentical kills the service mid-job
// (Interrupt: no final writes, the durable state is whatever the last
// ordinary checkpoint left — a kill -9 stand-in), restarts a fresh server
// over the same store, resumes, and requires every job's outcome and
// evidence bytes to match an uninterrupted control run — and the two
// stores to hold the identical sorted set of blobs (every checkpoint
// deduplicated, no stray partial state).
func TestServiceCrashRestartResumesByteIdentical(t *testing.T) {
	specs, tenants := crashSpecs()

	// Control: same specs, never interrupted.
	controlStore, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	control, err := New(Config{Store: controlStore, Capacity: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i, spec := range specs {
		st, err := control.Submit(tenants[i], spec)
		if err != nil {
			t.Fatalf("control submit %d: %v", i, err)
		}
		ids = append(ids, st.ID)
	}
	control.Wait()

	// Crash run: interrupt once the first job has completed a decode round.
	dir := t.TempDir()
	crashStore, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	crashed, err := New(Config{Store: crashStore, Capacity: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		st, err := crashed.Submit(tenants[i], spec)
		if err != nil {
			t.Fatalf("crash submit %d: %v", i, err)
		}
		if st.ID != ids[i] {
			t.Fatalf("crash run assigned %s, control %s", st.ID, ids[i])
		}
	}
	waitFor(t, "first job to finish a round", func() bool {
		st, err := crashed.Status(ids[0])
		return err == nil && st.Rounds >= 1
	})
	crashed.Interrupt()
	nonTerminal := 0
	for _, id := range ids {
		st, err := crashed.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone && st.State != StateFailed {
			nonTerminal++
		}
	}
	if nonTerminal == 0 {
		t.Fatal("interrupt landed after every job finished; resume path not exercised")
	}

	// Restart over the same store.
	restartStore, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	restarted, err := New(Config{Store: restartStore, Capacity: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if n := restarted.Resume(); n != nonTerminal {
		t.Fatalf("Resume relaunched %d jobs, want %d", n, nonTerminal)
	}
	restarted.Wait()

	// Checks/Skipped are deliberately not compared: the oracle's reject
	// cache is in-memory only, so a resumed run re-checks candidates a
	// continuous run skipped. Everything evidence-derived must match.
	for _, id := range ids {
		want, err := control.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := restarted.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if got.State != want.State || got.Success != want.Success || got.Rank != want.Rank ||
			got.Observed != want.Observed || got.Rounds != want.Rounds ||
			got.Plaintext != want.Plaintext || got.Evidence != want.Evidence {
			t.Errorf("job %s after crash+resume:\n got %+v\nwant %+v", id, got, want)
		}
		wantEv, err := control.EvidenceBytes(id)
		if err != nil {
			t.Fatal(err)
		}
		gotEv, err := restarted.EvidenceBytes(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotEv, wantEv) {
			t.Errorf("job %s evidence bytes differ after crash+resume", id)
		}
	}
	controlBlobs, err := controlStore.BlobKeys()
	if err != nil {
		t.Fatal(err)
	}
	crashBlobs, err := restartStore.BlobKeys()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(crashBlobs, controlBlobs) {
		t.Errorf("blob sets diverge after crash+resume:\n got %d blobs %v\nwant %d blobs %v",
			len(crashBlobs), crashBlobs, len(controlBlobs), controlBlobs)
	}
}

// TestServiceDrainSuspendsAndResumes covers the graceful SIGTERM path:
// Drain checkpoints every in-flight job as suspended, a restarted server
// resumes them, and final results still match the solo reference.
func TestServiceDrainSuspendsAndResumes(t *testing.T) {
	specs, tenants := crashSpecs()
	dir := t.TempDir()
	store1, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := New(Config{Store: store1, Capacity: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i, spec := range specs {
		st, err := s1.Submit(tenants[i], spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	waitFor(t, "capture progress", func() bool {
		st, err := s1.Status(ids[0])
		return err == nil && st.Observed > 0
	})
	s1.Drain()
	if s1.Ready() == nil {
		t.Error("Ready() nil after drain; /healthz would stay green")
	}
	if _, err := s1.Submit("t-late", specs[0]); !errors.Is(err, ErrDraining) {
		t.Errorf("post-drain submit = %v, want ErrDraining", err)
	}
	suspended := 0
	for _, id := range ids {
		st, err := s1.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case StateSuspended:
			suspended++
			if st.Evidence == "" {
				t.Errorf("job %s suspended without an evidence checkpoint", id)
			}
		case StateDone: // finished before the drain landed
		default:
			t.Errorf("job %s state %q after drain, want suspended or done", id, st.State)
		}
	}
	if suspended == 0 {
		t.Fatal("drain suspended no jobs; nothing to resume")
	}

	store2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(Config{Store: store2, Capacity: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if n := s2.Resume(); n != suspended {
		t.Fatalf("Resume relaunched %d jobs, want %d", n, suspended)
	}
	s2.Wait()
	solo := &soloRunner{}
	for i, id := range ids {
		res, snap, runErr := solo.run(t, specs[i])
		st, err := s2.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone || st.Success != (runErr == nil) || st.Rank != res.Rank ||
			st.Observed != res.Observed || st.Rounds != res.Rounds ||
			st.Plaintext != hex.EncodeToString(res.Plaintext) {
			t.Errorf("job %s after drain+resume: %+v vs solo rank=%d observed=%d rounds=%d",
				id, st, res.Rank, res.Observed, res.Rounds)
		}
		ev, err := s2.EvidenceBytes(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ev, snap) {
			t.Errorf("job %s evidence differs from solo after drain+resume", id)
		}
	}
}
