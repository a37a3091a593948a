package experiments

import (
	"errors"
	"math/rand"
	"sort"
	"strconv"

	"rc4break/internal/httpmodel"
	"rc4break/internal/job"
	"rc4break/internal/netsim"
	"rc4break/internal/online"
)

// OnlineCookieParams controls the records-to-success experiment.
type OnlineCookieParams struct {
	// Trials per curve (each trial draws a fresh random cookie).
	Trials int
	// Budget is the observation cap per trial (the fixed-budget baseline
	// the online runs are compared against); default 9·2^27.
	Budget uint64
	// First and Every select the decode cadence (geometric from First when
	// Every is 0); default First 2^24.
	First, Every uint64
	// Candidates is the per-round list depth; default 2^12.
	Candidates int
	Seed       int64
}

func (p OnlineCookieParams) withDefaults() OnlineCookieParams {
	if p.Trials == 0 {
		p.Trials = 8
	}
	if p.Budget == 0 {
		p.Budget = 9 << 27
	}
	if p.First == 0 {
		p.First = 1 << 24
	}
	if p.Candidates == 0 {
		p.Candidates = 1 << 12
	}
	return p
}

// OnlineCookieRecords measures the online §6 attack's records-to-first-
// success distribution — the online counterpart of Figure 10. Where the
// figure reports P[success] after a fixed ciphertext budget, this runs the
// closed loop per trial (decode at each cadence point, brute-force the
// round's list against the server, stop at the first confirmed cookie) and
// reports, per decode point, the cumulative fraction of trials finished by
// then, plus the distribution's summary (median records-to-success and the
// mean budget saving).
func OnlineCookieRecords(p OnlineCookieParams) (Result, error) {
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed))
	charset := httpmodel.CookieCharset()
	cad := online.Cadence{First: p.First, Every: p.Every}

	// The cadence points every trial decodes at (absolute, shared).
	var points []uint64
	for obs := uint64(0); obs < p.Budget; {
		next := cad.Next(obs)
		if next >= p.Budget {
			next = p.Budget
		}
		points = append(points, next)
		obs = next
	}

	succeededAt := make([]uint64, 0, p.Trials) // records at success, per successful trial
	ranks := make([]int, 0, p.Trials)
	perPoint := make([]int, len(points)) // successes landing at each decode point
	for t := 0; t < p.Trials; t++ {
		secret := randomCookie(rng, charset, 16)
		rt, err := job.New(job.Spec{
			Attack: "cookie",
			Mode:   "model",
			Seed:   p.Seed + int64(t)*7919,
			Secret: string(secret),
		}, nil)
		if err != nil {
			return Result{}, err
		}
		res, err := online.Run(online.Config{
			Decoder:       rt.Decoder,
			Oracle:        rt.Oracle,
			Cadence:       cad,
			MaxCandidates: p.Candidates,
			Budget:        p.Budget,
			Feed:          online.FeedFunc(rt.CaptureTo),
		})
		if errors.Is(err, online.ErrBudgetExhausted) {
			continue // censored trial
		}
		if err != nil {
			return Result{}, err
		}
		succeededAt = append(succeededAt, res.Observed)
		ranks = append(ranks, res.Rank)
		for i, pt := range points {
			if res.Observed <= pt {
				perPoint[i]++
				break
			}
		}
	}

	res := Result{
		ID:      "Online §6",
		Title:   "Records to first server-confirmed cookie (online closed loop)",
		Columns: []string{"P(success<=records)", "hit here", "hours@4450rps"},
		Notes:   onlineNotes(succeededAt, ranks, p),
	}
	cum := 0
	for i, pt := range points {
		cum += perPoint[i]
		res.Rows = append(res.Rows, Row{
			Label: strconv.Itoa(int(pt>>20)) + "x2^20",
			Values: []float64{
				float64(cum) / float64(p.Trials),
				float64(perPoint[i]),
				float64(pt) / netsim.HTTPSRequestsPerSecond / 3600,
			},
		})
	}
	return res, nil
}

// onlineNotes summarizes the distribution: median records-to-success, mean
// saving versus the fixed budget, and the rank spread at success.
func onlineNotes(succeededAt []uint64, ranks []int, p OnlineCookieParams) string {
	if len(succeededAt) == 0 {
		return "no trial succeeded within the budget; raise -candidates or the budget"
	}
	sorted := append([]uint64(nil), succeededAt...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	med := sorted[len(sorted)/2]
	var savedSum float64
	for _, s := range succeededAt {
		savedSum += float64(p.Budget - s)
	}
	sort.Ints(ranks)
	return "median records-to-success " + strconv.Itoa(int(med>>20)) + "x2^20 vs fixed budget " +
		strconv.Itoa(int(p.Budget>>20)) + "x2^20; mean saving " +
		strconv.Itoa(int(savedSum/float64(len(succeededAt)))/(1<<20)) + "x2^20 records; median rank at success " +
		strconv.Itoa(ranks[len(ranks)/2])
}
