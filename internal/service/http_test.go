package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rc4break/internal/cookieattack"
	"rc4break/internal/httpmodel"
	"rc4break/internal/online"
)

func TestHTTPEndpoints(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Store: store, Capacity: 1, TenantMaxActive: 1, MaxActive: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Malformed body and invalid spec are 400s.
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: http %d, want 400", resp.StatusCode)
	}
	if _, code, _ := submitHTTP(ts.URL, "x", JobSpec{Attack: "nope"}); code != http.StatusBadRequest {
		t.Fatalf("bad spec: http %d, want 400", code)
	}

	if code, body := getBody(t, ts.URL+"/healthz"); code != http.StatusOK || !bytes.Contains(body, []byte("ok")) {
		t.Fatalf("/healthz: http %d body %q", code, body)
	}

	spec := JobSpec{Attack: "cookie", Mode: "model", Seed: 5, Secret: "C00kie",
		Budget: 9 << 27, FirstDecode: 9 << 25, MaxCandidates: 1 << 10, CheckpointRounds: 100}
	st1, code, err := submitHTTP(ts.URL, "alpha", spec)
	if err != nil || code != http.StatusAccepted {
		t.Fatalf("submit: code=%d err=%v", code, err)
	}
	if st1.ID == "" || st1.Tenant != "alpha" || st1.State != StateQueued {
		t.Fatalf("submit status %+v", st1)
	}

	// Admission control: tenant cap then global cap, both 429.
	if _, code, _ := submitHTTP(ts.URL, "alpha", spec); code != http.StatusTooManyRequests {
		t.Fatalf("tenant-limit submit: http %d, want 429", code)
	}
	spec2 := spec
	spec2.Seed = 6
	st2, code, err := submitHTTP(ts.URL, "beta", spec2)
	if err != nil || code != http.StatusAccepted {
		t.Fatalf("second tenant submit: code=%d err=%v", code, err)
	}
	if _, code, _ := submitHTTP(ts.URL, "gamma", spec); code != http.StatusTooManyRequests {
		t.Fatalf("global-limit submit: http %d, want 429", code)
	}

	// Result of an unfinished job is 409; unknown job is 404.
	if code := getJSON(t, ts.URL+"/api/v1/jobs/"+st1.ID+"/result", nil); code != http.StatusConflict {
		t.Fatalf("early result: http %d, want 409", code)
	}
	if code := getJSON(t, ts.URL+"/api/v1/jobs/j-9999", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job: http %d, want 404", code)
	}

	s.Wait()

	var list []JobStatus
	if code := getJSON(t, ts.URL+"/api/v1/jobs", &list); code != http.StatusOK || len(list) != 2 {
		t.Fatalf("list: http %d, %d jobs, want 2", code, len(list))
	}
	if list[0].ID != st1.ID || list[1].ID != st2.ID {
		t.Fatalf("list order %s,%s want %s,%s", list[0].ID, list[1].ID, st1.ID, st2.ID)
	}
	var alpha []JobStatus
	if code := getJSON(t, ts.URL+"/api/v1/jobs?tenant=alpha", &alpha); code != http.StatusOK ||
		len(alpha) != 1 || alpha[0].ID != st1.ID {
		t.Fatalf("tenant filter: http %d %+v", code, alpha)
	}

	var done JobStatus
	if code := getJSON(t, ts.URL+"/api/v1/jobs/"+st1.ID+"/result", &done); code != http.StatusOK {
		t.Fatalf("result: http %d, want 200", code)
	}
	if done.State != StateDone || !done.Success || done.Evidence == "" {
		t.Fatalf("finished job status %+v", done)
	}

	// The event stream replays admission -> running -> rounds -> terminal.
	sresp, err := http.Get(ts.URL + "/api/v1/jobs/" + st1.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var events []Event
	sc := bufio.NewScanner(sresp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("stream line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) < 3 {
		t.Fatalf("stream has %d events, want >= 3 (queued, running, terminal)", len(events))
	}
	if events[0].State != StateQueued || events[len(events)-1].State != StateDone {
		t.Fatalf("stream states: first %q last %q", events[0].State, events[len(events)-1].State)
	}
	for i, ev := range events {
		if ev.Seq != i+1 || ev.Job != st1.ID {
			t.Fatalf("event %d: %+v", i, ev)
		}
	}

	code, ev := getBody(t, ts.URL+"/api/v1/jobs/"+st1.ID+"/evidence")
	if code != http.StatusOK || len(ev) == 0 {
		t.Fatalf("evidence: http %d, %d bytes", code, len(ev))
	}

	code, metricsBody := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK || !bytes.Contains(metricsBody, []byte("attackd_jobs")) {
		t.Fatalf("/metrics: http %d", code)
	}

	// A submit the store cannot persist is the server's fault: 500, not
	// 400. Replacing jobs/ with a file makes every manifest write fail, even
	// for root.
	jobsDir := filepath.Join(store.Dir(), "jobs")
	if err := os.RemoveAll(jobsDir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jobsDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, code, _ := submitHTTP(ts.URL, "alpha", spec); code != http.StatusInternalServerError {
		t.Fatalf("unwritable-store submit: http %d, want 500", code)
	}

	// Drain flips /healthz and rejects submissions with 503.
	s.Drain()
	if code, _ := getBody(t, ts.URL+"/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz after drain: http %d, want 503", code)
	}
	if _, code, _ := submitHTTP(ts.URL, "alpha", spec); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: http %d, want 503", code)
	}
}

// TestSubmitBodyBoundary pins the submit path's trust boundary: an
// oversized body is 413, an unknown field is 400, and a valid submit is
// still accepted.
func TestSubmitBodyBoundary(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Store: store, Capacity: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	huge := `{"tenant":"a","spec":{"attack":"cookie","secret":"` + strings.Repeat("x", maxSubmitBytes) + `"}}`
	if code := post(huge); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: http %d, want 413", code)
	}
	if code := post(`{"tenant":"a","spec":{"attack":"cookie","secret":"C00kie","budgett":1}}`); code != http.StatusBadRequest {
		t.Fatalf("unknown spec field: http %d, want 400", code)
	}
	if code := post(`{"tenant":"a","spec":{"attack":"cookie","secret":"C00kie"},"priority":9}`); code != http.StatusBadRequest {
		t.Fatalf("unknown request field: http %d, want 400", code)
	}
	valid := `{"tenant":"a","spec":{"attack":"cookie","secret":"C00kie","budget":1048576,"first_decode":1048576,"max_candidates":1}}`
	if code := post(valid); code != http.StatusAccepted {
		t.Fatalf("valid submit: http %d, want 202", code)
	}
	s.Wait()
}

// TestSubmitRefusesUnrunnableSpecs pins the spec refusals at the HTTP
// boundary, each a 400: a cookie outside the charset the candidate walk is
// restricted to (it could only burn the whole budget), a cookie longer
// than cookieattack.MaxCookieLen, a negative walk depth (online.Run would
// walk its default while the manifest recorded the negative), and bodies
// naming the runtime inputs Traces and Model, which are not part of the
// JSON spec.
func TestSubmitRefusesUnrunnableSpecs(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Store: store, Capacity: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, spec := range []string{
		`{"attack":"cookie","seed":3,"secret":"C00k;e"}`,
		`{"attack":"cookie","secret":"C00kieC00kieC00ki"}`,
		`{"attack":"cookie","secret":"C00kie","max_candidates":-1}`,
		`{"attack":"cookie","secret":"C00kie","traces":"x.pcap"}`,
		`{"attack":"tkip","model":{"Positions":12}}`,
	} {
		resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(`{"tenant":"a","spec":`+spec+`}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %s: http %d, want 400", spec, resp.StatusCode)
		}
	}
	if got := s.List(""); len(got) != 0 {
		t.Fatalf("refused specs admitted %d jobs", len(got))
	}
	// Unrefused, this job decodes over the whole 9·2^27 budget and ends in
	// ErrBudgetExhausted: no candidate can hold the ';'.
	if _, _, err := SoloRun(JobSpec{Attack: "cookie", Seed: 3, Secret: "C00k;e"}); err == nil || errors.Is(err, online.ErrBudgetExhausted) {
		t.Fatalf("SoloRun of an out-of-charset cookie: %v, want a spec refusal", err)
	}
}

// FuzzSubmitDecode fuzzes the submit path up to, not including, Submit:
// the strict body decode and Normalize. Neither may panic, and a body
// both accept must normalize to a spec that re-normalizes to itself (the
// manifest a restarted server re-derives the job from) and that can run
// as stated: a cookie of 1..MaxCookieLen charset bytes, a positive walk
// depth, a first decode within the budget, a nonzero capture granule, and
// no runtime inputs.
func FuzzSubmitDecode(f *testing.F) {
	f.Add([]byte(`{"tenant":"a","spec":{"attack":"cookie","secret":"C00kie"}}`))
	f.Add([]byte(`{"tenant":"b","spec":{"attack":"tkip","mode":"exact","seed":7,"first_decode":4096,"budget":8192}}`))
	f.Add([]byte(`{"spec":{"attack":"cookie","secret":"s","decode_every":3,"capture_chunk":1,"checkpoint_rounds":-2,"trace_id":"0a"}}`))
	f.Add([]byte(`{"spec":{"attack":"tkip","max_candidates":-1,"train_keys":1}}`))
	f.Add([]byte(`{"spec":{"attack":"cookie","seed":3,"secret":"C00k;e"}}`))
	f.Add([]byte(`{"spec":{"attack":"cookie","secret":"C00kie","max_candidates":-1}}`))
	f.Add([]byte(`{"spec":{"attack":"cookie","secret":"C00kie","budget":4096}}`))
	f.Add([]byte(`{"spec":{"attack":"cookie","secret":"C00kie","traces":"x.pcap"}}`))
	f.Add([]byte(`{"spec":{"attack":"tkip","model":{"Positions":12}}}`))
	charset := httpmodel.CookieCharset()
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeSubmit(bytes.NewReader(body))
		if err != nil {
			return
		}
		spec, err := req.Spec.Normalize()
		if err != nil {
			return
		}
		again, err := spec.Normalize()
		if err != nil {
			t.Fatalf("normalized spec %+v rejected on re-normalize: %v", spec, err)
		}
		if again != spec {
			t.Fatalf("normalize is not idempotent:\n%+v\n%+v", spec, again)
		}
		if spec.Attack == "cookie" {
			if len(spec.Secret) < 1 || len(spec.Secret) > cookieattack.MaxCookieLen {
				t.Fatalf("cookie of %d bytes accepted", len(spec.Secret))
			}
			for i := 0; i < len(spec.Secret); i++ {
				if !bytes.Contains(charset, []byte{spec.Secret[i]}) {
					t.Fatalf("cookie %q accepted with byte %q outside the charset", spec.Secret, spec.Secret[i])
				}
			}
		}
		if spec.MaxCandidates <= 0 || spec.FirstDecode > spec.Budget || spec.CaptureChunk == 0 {
			t.Fatalf("accepted spec cannot run as stated: %+v", spec)
		}
		if spec.Traces != "" || spec.Model != nil {
			t.Fatalf("runtime inputs decoded from JSON: %+v", spec)
		}
	})
}
