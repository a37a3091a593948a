package rc4break

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"rc4break/internal/cliutil"
	"rc4break/internal/cookieattack"
	"rc4break/internal/job"
	"rc4break/internal/online"
	"rc4break/internal/service"
	"rc4break/internal/snapshot"
)

// goldenDigests holds the SHA-256 of each artifact goldenArtifacts builds,
// as this build writes it on amd64. A change to the envelope, to a
// payload layout or to any evidence value moves a digest here; re-pin the
// table only for a change that means to alter those bytes, and say so.
var goldenDigests = map[string]string{
	"capture/https.pcapng": "20eb929a3008f5ab6fb69755522bc1934bf982d12bd014d8b66e76319c005800",
	"capture/tkip.pcap":    "e18da27521386d8ea98958f9c714451b35f9b1c89c7c46c9665989de41cb070f",
	"envelope":             "e5a3844804a81570207c0741b634902f588deb4756267523f2a52fb3d6767624",
	"fleet-lane/cookie":    "6aefc99fc47c4c6d8a8984622c5d74e92e15cc4ce8485d46c4736de1253a9f5f",
	"solorun/cookie/deep":  "69cef337a1bef03112640d2aaf094f0084914787a44b57d781b3dd56fec917df",
	"solorun/cookie/exact": "7c05dc5c8ea41cba6943f4c9ed13d84e96e1d34bd58851616b4972505caac708",
	"solorun/cookie/model": "705e764d55da968d0c2e2307a140f04b4ab28ebe824cae7a72dbc2d0adee402e",
	"solorun/tkip/exact":   "6ee6fbd770ad1300d579b3d547cc25b1292b864f23bc1611f65be935663a6a07",
	"solorun/tkip/model":   "a631f0018064a9c3f0566de32a4f52fda57ef5da6df5e59cce9469f1e6067b1c",
	"tkip-model-16":        "f7fa79aa90642e9b943404577878711a9f8b7d237129fc3c795553c3fe63f720",
}

// goldenDeepSpec is a model-mode cookie job at full-scale record counts
// that succeeds deep in its candidate list, so the sampler's means and the
// list-Viterbi's heap order (ties included) both decide goldenDeepResult.
// Its evidence is the "solorun/cookie/deep" artifact.
var goldenDeepSpec = job.Spec{Attack: "cookie", Mode: "model", Seed: 2, Secret: "C00kie",
	Budget: 9 << 27, FirstDecode: 1 << 27, MaxCandidates: 1 << 13}

var goldenDeepResult = online.Result{
	Plaintext: []byte("C00kie"), Rank: 264, Observed: 1 << 29, Rounds: 3, Checks: 16477, Skipped: 171,
}

// TestGoldenDigests pins the exact bytes of small fixed artifacts: a bare
// envelope, cookie and TKIP SoloRun evidence in model and exact mode, a
// 16-key TKIP model file, one fleet lane and both capture containers
// Spec.WriteCapture writes; and the Result of goldenDeepSpec's SoloRun. It
// runs on amd64 only; the bytes on other architectures (where float
// rounding may differ) are not checked anywhere.
func TestGoldenDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are pinned on amd64 only, not checked on %s", runtime.GOARCH)
	}
	got, err := goldenArtifacts(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res, snap, err := service.SoloRun(goldenDeepSpec)
	if err != nil {
		t.Fatal(err)
	}
	got["solorun/cookie/deep"] = snap
	res.CaptureTime, res.DecodeTime, res.OracleTime, res.Elapsed = 0, 0, 0, 0
	if !reflect.DeepEqual(res, goldenDeepResult) {
		t.Errorf("deep cookie run: %+v, want %+v", res, goldenDeepResult)
	}
	var table []string
	for name, b := range got {
		sum := sha256.Sum256(b)
		digest := hex.EncodeToString(sum[:])
		table = append(table, fmt.Sprintf("\t%q: %q,", name, digest))
		if want, ok := goldenDigests[name]; !ok || want != digest {
			t.Errorf("%s: sha256 %s, want %q", name, digest, want)
		}
	}
	if len(got) != len(goldenDigests) {
		t.Errorf("built %d artifacts, table pins %d", len(got), len(goldenDigests))
	}
	if t.Failed() {
		sort.Strings(table)
		t.Logf("this build's table:\n%s", strings.Join(table, "\n"))
	}
}

// goldenArtifacts builds every artifact TestGoldenDigests pins except
// goldenDeepSpec's evidence, writing the capture files under dir.
func goldenArtifacts(dir string) (map[string][]byte, error) {
	out := map[string][]byte{}
	var env bytes.Buffer
	if err := snapshot.Write(&env, "rc4break.golden.v1", []byte("all your biases belong to us")); err != nil {
		return nil, err
	}
	out["envelope"] = env.Bytes()

	for _, spec := range []job.Spec{
		{Attack: "cookie", Mode: "model", Seed: 3, Secret: "C00kie", Budget: 1 << 16},
		{Attack: "cookie", Mode: "exact", Seed: 3, Secret: "C00kie", Budget: 4096},
		{Attack: "tkip", Mode: "model", Seed: 3, TrainKeys: 16, Budget: 1 << 14},
		{Attack: "tkip", Mode: "exact", Seed: 3, TrainKeys: 16, Budget: 4096},
	} {
		// One decode round, of depth 1, at the budget.
		spec.FirstDecode, spec.MaxCandidates = spec.Budget, 1
		_, snap, err := service.SoloRun(spec)
		if err != nil && !errors.Is(err, online.ErrBudgetExhausted) {
			return nil, err
		}
		out["solorun/"+spec.Attack+"/"+spec.Mode] = snap
	}

	model, err := job.LoadOrTrainModel("", 16, 0, nil)
	if err != nil {
		return nil, err
	}
	var m bytes.Buffer
	if err := model.Save(&m); err != nil {
		return nil, err
	}
	out["tkip-model-16"] = m.Bytes()

	cfg, _, err := job.CookieLayout("C00kie")
	if err != nil {
		return nil, err
	}
	stream := snapshot.StreamInfo{Mode: "model", Seed: 1}
	lane, err := cookieattack.CollectLane(cfg, []byte("C00kie"), stream, cliutil.LaneSeed(1, 0), 1<<16, 0)
	if err != nil {
		return nil, err
	}
	var l bytes.Buffer
	if err := lane.WriteSnapshot(&l); err != nil {
		return nil, err
	}
	out["fleet-lane/cookie"] = l.Bytes()

	for _, c := range []struct {
		spec job.Spec
		file string
	}{
		{job.Spec{Attack: "cookie", Seed: 2, Secret: "C00kie"}, "https.pcapng"},
		{job.Spec{Attack: "tkip", Seed: 2}, "tkip.pcap"},
	} {
		path := filepath.Join(dir, c.file)
		if _, err := c.spec.WriteCapture(context.Background(), path, 256); err != nil {
			return nil, err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		out["capture/"+c.file] = b
	}
	return out, nil
}
