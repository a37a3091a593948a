package online_test

import (
	"errors"
	"fmt"
	"testing"

	"rc4break/internal/cookieattack"
	"rc4break/internal/online"
	"rc4break/internal/recovery"
	"rc4break/internal/tkip"
)

// Both attacks must implement the runtime's Decoder contract.
var (
	_ online.Decoder = (*cookieattack.Attack)(nil)
	_ online.Decoder = (*tkip.Attack)(nil)
	_ online.Oracle  = (*tkip.TrailerOracle)(nil)
)

func TestCadenceNext(t *testing.T) {
	cases := []struct {
		c        online.Cadence
		observed uint64
		want     uint64
	}{
		// Default geometric: 2^20, 2^21, ...
		{online.Cadence{First: 1 << 20}, 0, 1 << 20},
		{online.Cadence{First: 1 << 20}, 1 << 20, 1 << 21},
		{online.Cadence{First: 1 << 20}, 1<<20 + 1, 1 << 21},
		{online.Cadence{First: 1 << 20}, 3 << 20, 1 << 22},
		// Explicit geometric base.
		{online.Cadence{First: 1000}, 0, 1000},
		{online.Cadence{First: 1000}, 999, 1000},
		{online.Cadence{First: 1000}, 1000, 2000},
		{online.Cadence{First: 1000}, 3999, 4000},
		{online.Cadence{First: 1000}, 4000, 8000},
		// Arithmetic.
		{online.Cadence{First: 500, Every: 300}, 0, 500},
		{online.Cadence{First: 500, Every: 300}, 500, 800},
		{online.Cadence{First: 500, Every: 300}, 799, 800},
		{online.Cadence{First: 500, Every: 300}, 1700, 2000},
		// Mid-interval resume lands on the absolute grid.
		{online.Cadence{First: 1 << 10}, 5 << 10, 8 << 10},
	}
	for _, tc := range cases {
		if got := tc.c.Next(tc.observed); got != tc.want {
			t.Errorf("Cadence%+v.Next(%d) = %d, want %d", tc.c, tc.observed, got, tc.want)
		}
	}
}

// fakeDecoder models an attack whose ranked list only surfaces the true
// value once enough evidence has accumulated: below revealAt the list is
// decoys only; at or above it, the true value appears at trueRank.
type fakeDecoder struct {
	observed uint64
	revealAt uint64
	trueRank int
	truth    []byte
	decodes  int
}

func (d *fakeDecoder) Observed() uint64 { return d.observed }

func (d *fakeDecoder) Decode(max int) (recovery.CandidateSource, error) {
	d.decodes++
	var cands []recovery.Candidate
	for i := 1; i <= max; i++ {
		pt := []byte(fmt.Sprintf("decoy-%06d", i))
		if d.observed >= d.revealAt && i == d.trueRank {
			pt = append([]byte(nil), d.truth...)
		}
		cands = append(cands, recovery.Candidate{Plaintext: pt, Score: -float64(i)})
	}
	return recovery.SliceSource(cands), nil
}

type fakeOracle struct {
	truth  []byte
	checks uint64
}

func (o *fakeOracle) Check(c []byte) bool {
	o.checks++
	return string(c) == string(o.truth)
}

func TestRunStopsAtFirstConfirmedHit(t *testing.T) {
	truth := []byte("the-secret!")
	dec := &fakeDecoder{revealAt: 4000, trueRank: 7, truth: truth}
	oracle := &fakeOracle{truth: truth}
	var checkpoints int
	res, err := online.Run(online.Config{
		Decoder:       dec,
		Oracle:        oracle,
		Cadence:       online.Cadence{First: 1000},
		MaxCandidates: 16,
		Budget:        1 << 20,
		Feed:          online.FeedFunc(func(target uint64) error { dec.observed = target; return nil }),
		Checkpoint:    func() error { checkpoints++; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Plaintext) != string(truth) {
		t.Fatalf("recovered %q", res.Plaintext)
	}
	// Decode points are 1000, 2000, 4000: the reveal threshold is hit at
	// the third round.
	if res.Observed != 4000 || res.Rounds != 3 || res.Rank != 7 {
		t.Fatalf("observed=%d rounds=%d rank=%d, want 4000/3/7", res.Observed, res.Rounds, res.Rank)
	}
	if checkpoints != 2 {
		t.Fatalf("checkpoints=%d, want 2 (after each failed round)", checkpoints)
	}
	// Round 1 checks 16 decoys; round 2 re-lists the same 16 (all
	// cache-skipped); round 3's ranks 1..6 are also cached, so only the
	// hit reaches the oracle — yet it still reports rank 7.
	if res.Skipped != 16+6 {
		t.Fatalf("skipped=%d, want 22", res.Skipped)
	}
	if res.Checks != oracle.checks || res.Checks != 16+1 {
		t.Fatalf("checks=%d (oracle saw %d), want 17", res.Checks, oracle.checks)
	}
}

func TestRunBudgetExhausted(t *testing.T) {
	dec := &fakeDecoder{revealAt: 1 << 30, trueRank: 1, truth: []byte("never")}
	oracle := &fakeOracle{truth: []byte("never")}
	res, err := online.Run(online.Config{
		Decoder:       dec,
		Oracle:        oracle,
		Cadence:       online.Cadence{First: 1000},
		MaxCandidates: 4,
		Budget:        3000,
		Feed:          online.FeedFunc(func(target uint64) error { dec.observed = target; return nil }),
	})
	if !errors.Is(err, online.ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	// Decode points: 1000, 2000, then the budget-clamped 3000.
	if res.Rounds != 3 || dec.observed != 3000 {
		t.Fatalf("rounds=%d observed=%d, want 3 rounds ending at 3000", res.Rounds, dec.observed)
	}
}

// granuleFeed advances evidence in fixed granules, overshooting targets the
// way a fleet coordinator merging whole worker lanes does.
type granuleFeed struct {
	dec     *fakeDecoder
	granule uint64
}

func (f *granuleFeed) AdvanceTo(target uint64) error {
	for f.dec.observed < target {
		f.dec.observed += f.granule
	}
	return nil
}

// TestRunFeedOvershoot pins the pluggable-feed contract: a feed that lands
// past the cadence point decodes at the actual observed count, skips cadence
// points the overshoot already covered, and finishes once the budget is
// covered even if the final granule lands beyond it.
func TestRunFeedOvershoot(t *testing.T) {
	truth := []byte("never-found")
	dec := &fakeDecoder{revealAt: 1 << 30, trueRank: 1, truth: truth}
	res, err := online.Run(online.Config{
		Decoder:       dec,
		Oracle:        &fakeOracle{truth: truth},
		Cadence:       online.Cadence{First: 1000},
		MaxCandidates: 4,
		Budget:        3000,
		Feed:          &granuleFeed{dec: dec, granule: 700},
	})
	if !errors.Is(err, online.ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	// Granules of 700: decode at 1400 (target 1000), 2100 (target 2000 —
	// the overshoot already skipped it past 1400's next point), then 3500
	// (budget-clamped target 3000), which covers the budget and ends the run.
	if res.Rounds != 3 || res.Observed != 3500 || dec.decodes != 3 {
		t.Fatalf("rounds=%d observed=%d decodes=%d, want 3/3500/3", res.Rounds, res.Observed, dec.decodes)
	}
}

func TestRunCaptureErrorPropagates(t *testing.T) {
	dec := &fakeDecoder{truth: []byte("x")}
	boom := errors.New("boom")
	_, err := online.Run(online.Config{
		Decoder:       dec,
		Oracle:        &fakeOracle{truth: []byte("x")},
		Cadence:       online.Cadence{First: 1 << 20},
		MaxCandidates: 1,
		Budget:        1 << 21,
		Feed:          online.FeedFunc(func(uint64) error { return boom }),
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := online.Run(online.Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	dec := &fakeDecoder{truth: []byte("x")}
	if _, err := online.Run(online.Config{
		Decoder: dec,
		Oracle:  &fakeOracle{},
		Feed:    online.FeedFunc(func(uint64) error { return nil }),
	}); err == nil {
		t.Fatal("zero budget accepted")
	}
	// Without a first decode point Cadence.Next never advances, and
	// without a candidate bound no round walks anything.
	for _, c := range []struct {
		cfg  online.Config
		want error
	}{
		{online.Config{MaxCandidates: 1}, online.ErrNoFirstDecode},
		{online.Config{Cadence: online.Cadence{First: 1}}, online.ErrNoCandidates},
	} {
		c.cfg.Decoder, c.cfg.Oracle, c.cfg.Budget = dec, &fakeOracle{}, 1
		c.cfg.Feed = online.FeedFunc(func(uint64) error { return nil })
		if _, err := online.Run(c.cfg); !errors.Is(err, c.want) {
			t.Errorf("Run(%+v) = %v, want %v", c.cfg.Cadence, err, c.want)
		}
	}
}
