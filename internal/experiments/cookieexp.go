package experiments

import (
	"bytes"
	"errors"
	"math/rand"
	"strconv"

	"rc4break/internal/cookieattack"
	"rc4break/internal/httpmodel"
	"rc4break/internal/job"
	"rc4break/internal/netsim"
	"rc4break/internal/online"
)

// CookieParams controls the Figure 10 simulation.
type CookieParams struct {
	// Ciphertexts lists x-axis points; the paper sweeps 1·2^27 .. 15·2^27.
	Ciphertexts []uint64
	// Trials per point (the paper uses 256).
	Trials int
	// Candidates is the brute-force list depth (the paper uses 2^23; the
	// default is smaller — see README "Paper fidelity").
	Candidates int
	Seed       int64
}

func (p CookieParams) withDefaults() CookieParams {
	if len(p.Ciphertexts) == 0 {
		p.Ciphertexts = []uint64{1 << 27, 3 << 27, 5 << 27, 9 << 27, 15 << 27}
	}
	if p.Trials == 0 {
		p.Trials = 16
	}
	if p.Candidates == 0 {
		p.Candidates = 1 << 12
	}
	return p
}

// Figure10 reproduces the cookie brute-force success curve: per ciphertext
// count, the probability that a 16-character cookie is recovered within the
// candidate list, and within the single most likely candidate (the paper's
// two curves). Also reported: hours of traffic at the §6.3 request rate.
// Each trial is a model-mode cookie job (a fresh random cookie, its own
// seed) whose list is walked against the job's server in one online.Run
// round.
func Figure10(p CookieParams) (Result, error) {
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed))
	charset := httpmodel.CookieCharset()

	res := Result{
		ID:      "Figure 10",
		Title:   "Cookie brute-force success vs ciphertext copies (16-char cookie)",
		Columns: []string{"success(list)", "success(top1)", "hours@4450rps"},
		Notes:   "paper: >94% with 2^23 candidates at 9x2^27; top-1 much lower; our default list depth is smaller, shifting the curve slightly right",
	}
	for _, n := range p.Ciphertexts {
		var okList, okTop1 int
		for t := 0; t < p.Trials; t++ {
			secret := randomCookie(rng, charset, 16)
			rt, err := job.New(job.Spec{Attack: "cookie", Mode: "model", Seed: rng.Int63(), Secret: string(secret)}, nil)
			if err != nil {
				return Result{}, err
			}
			got, err := online.Run(online.Config{
				Decoder:       rt.Decoder,
				Oracle:        rt.Oracle,
				Cadence:       online.Cadence{First: n},
				Budget:        n,
				MaxCandidates: p.Candidates,
				Feed:          online.FeedFunc(rt.CaptureTo),
			})
			if errors.Is(err, online.ErrBudgetExhausted) {
				continue
			}
			if err != nil {
				return Result{}, err
			}
			okList++
			if got.Rank == 1 {
				okTop1++
			}
		}
		hours := float64(n) / netsim.HTTPSRequestsPerSecond / 3600
		res.Rows = append(res.Rows, Row{
			Label: strconv.Itoa(int(n>>27)) + "x2^27",
			Values: []float64{
				float64(okList) / float64(p.Trials),
				float64(okTop1) / float64(p.Trials),
				hours,
			},
		})
	}
	return res, nil
}

func randomCookie(rng *rand.Rand, charset []byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = charset[rng.Intn(len(charset))]
	}
	return out
}

// CharsetAblation is the §6.2 ablation: candidate-list success with the
// RFC 6265 90-character restriction versus the full 256-value byte space,
// at a fixed ciphertext count. It builds cookieattack directly rather than
// through job, because it varies the charset that job.CookieLayout fixes.
func CharsetAblation(seed int64, n uint64, trials, candidates int) (Result, error) {
	rng := rand.New(rand.NewSource(seed))
	charset := httpmodel.CookieCharset()
	res := Result{
		ID:      "§6.2 ablation",
		Title:   "Candidate-list success: RFC 6265 charset vs full byte space",
		Columns: []string{"success rate"},
		Notes:   "restricting Algorithm 2 to the 90-character cookie alphabet shrinks the search space ~2.8x per byte",
	}
	for _, mode := range []struct {
		label   string
		charset []byte
	}{
		{"charset=90", charset},
		{"charset=256", nil},
	} {
		ok := 0
		for t := 0; t < trials; t++ {
			secret := randomCookie(rng, charset, 16)
			cfg, _, err := job.CookieLayout(string(secret))
			if err != nil {
				return Result{}, err
			}
			cfg.Charset = mode.charset
			attack, err := cookieattack.New(cfg)
			if err != nil {
				return Result{}, err
			}
			if err := attack.SimulateStatistics(rng, secret, n); err != nil {
				return Result{}, err
			}
			cands, err := attack.Candidates(candidates)
			if err != nil {
				return Result{}, err
			}
			for _, c := range cands {
				if bytes.Equal(c.Plaintext, secret) {
					ok++
					break
				}
			}
		}
		res.Rows = append(res.Rows, Row{Label: mode.label, Values: []float64{float64(ok) / float64(trials)}})
	}
	return res, nil
}
