package experiments

import (
	"context"
	"runtime"
	"testing"

	"rc4break/internal/dataset"
	"rc4break/internal/rc4"
)

// These tests pin the engine-based long-term scans to sequential loops over
// keys 0..keys-1 of each scan's lane, with the bare cipher and the scans'
// buffer mechanics, at every worker count. Identical counts imply identical
// Result values, so the drivers are compared through their rendered rows.

// workerCounts are the worker counts every scan must be independent of.
var workerCounts = []int{1, 2, 3, 7}

// withGOMAXPROCS runs fn with GOMAXPROCS set to n, the worker count of the
// drivers, which take none.
func withGOMAXPROCS(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// refZeroPairs is the LongTermZeroPairs scan as one sequential loop.
func refZeroPairs(master [16]byte, keys, blocks int) (zero, one28, control, total uint64) {
	src := dataset.NewKeySource(master, zeroPairLane)
	key := make([]byte, 16)
	buf := make([]byte, 259)
	for k := 0; k < keys; k++ {
		src.NextKey(key)
		ci := rc4.MustNew(key)
		ci.Skip(1279)
		for b := 0; b < blocks; b++ {
			ci.Keystream(buf[:3])
			if buf[2] == 0 {
				switch buf[0] {
				case 0:
					zero++
				case 128:
					one28++
				case 64:
					control++
				}
			}
			total++
			ci.Skip(253)
		}
	}
	return
}

// refABSAB is the ABSABGapVerification scan as one sequential loop.
func refABSAB(master [16]byte, keys, blocks int, gaps []int) (hits, total []uint64) {
	maxGap := 0
	for _, g := range gaps {
		if g > maxGap {
			maxGap = g
		}
	}
	hits = make([]uint64, len(gaps))
	total = make([]uint64, len(gaps))
	src := dataset.NewKeySource(master, absabLane)
	key := make([]byte, 16)
	buf := make([]byte, 256+maxGap+4)
	for k := 0; k < keys; k++ {
		src.NextKey(key)
		c := rc4.MustNew(key)
		c.Skip(1023)
		c.Keystream(buf)
		for b := 0; b < blocks; b++ {
			for r := 0; r+3 <= 256; r++ {
				for gi, g := range gaps {
					s := r + 2 + g
					if buf[r] == buf[s] && buf[r+1] == buf[s+1] {
						hits[gi]++
					}
					total[gi]++
				}
			}
			copy(buf, buf[256:])
			c.Keystream(buf[maxGap+4:])
		}
	}
	return
}

// refEq9 is the Equation9Search scan as one sequential loop.
func refEq9(master [16]byte, keys, blocks int, pairs [][2]int) (hits []uint64, total uint64) {
	hits = make([]uint64, len(pairs))
	src := dataset.NewKeySource(master, eq9Lane)
	key := make([]byte, 16)
	buf := make([]byte, 256)
	for k := 0; k < keys; k++ {
		src.NextKey(key)
		c := rc4.MustNew(key)
		c.Skip(1024)
		for b := 0; b < blocks; b++ {
			c.Keystream(buf)
			for pi, p := range pairs {
				if buf[p[0]] == buf[p[1]] {
					hits[pi]++
				}
			}
			total++
		}
	}
	return
}

func TestLongTermZeroPairsMatchesPreEngineLoop(t *testing.T) {
	master := [16]byte{0x42}
	// The eq. 8 cells fire about once per 2^16 blocks: the second case is
	// large enough that a different key population changes the counts.
	for _, c := range []struct{ keys, blocks int }{{5, 64}, {8, 1 << 14}} {
		zero, one28, control, total := refZeroPairs(master, c.keys, c.blocks)
		want := []uint64{zero, one28, control}
		for _, workers := range workerCounts {
			withGOMAXPROCS(workers, func() {
				res, err := LongTermZeroPairs(context.Background(), master, c.keys, c.blocks)
				if err != nil {
					t.Fatal(err)
				}
				for i, row := range res.Rows {
					meas := float64(want[i]) / float64(total) * 65536
					if row.Values[0] != meas {
						t.Errorf("keys=%d workers=%d: %s: measured %v, reference %v", c.keys, workers, row.Label, row.Values[0], meas)
					}
				}
			})
		}
	}
}

func TestABSABGapVerificationMatchesPreEngineLoop(t *testing.T) {
	master := [16]byte{0x43}
	gaps := []int{0, 3, 17}
	const keys, blocks = 4, 32
	hits, total := refABSAB(master, keys, blocks, gaps)
	for _, workers := range workerCounts {
		withGOMAXPROCS(workers, func() {
			res, err := ABSABGapVerification(context.Background(), master, keys, blocks, gaps)
			if err != nil {
				t.Fatal(err)
			}
			for gi, row := range res.Rows {
				meas := float64(hits[gi]) / float64(total[gi]) * 65536
				if row.Values[0] != meas {
					t.Errorf("workers=%d: %s: measured %v, reference %v", workers, row.Label, row.Values[0], meas)
				}
			}
		})
	}
}

func TestEquation9SearchMatchesPreEngineLoop(t *testing.T) {
	master := [16]byte{0x44}
	pairs := [][2]int{{0, 2}, {5, 250}}
	const keys, blocks = 4, 32
	hits, total := refEq9(master, keys, blocks, pairs)
	for _, workers := range workerCounts {
		withGOMAXPROCS(workers, func() {
			res, err := Equation9Search(context.Background(), master, keys, blocks, pairs)
			if err != nil {
				t.Fatal(err)
			}
			for pi, row := range res.Rows {
				meas := float64(hits[pi]) / float64(total) * 256
				if row.Values[0] != meas {
					t.Errorf("workers=%d: %s: measured %v, reference %v", workers, row.Label, row.Values[0], meas)
				}
			}
		})
	}
}

func TestLongTermDriversCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := LongTermZeroPairs(ctx, [16]byte{1}, 8, 64); err == nil {
		t.Error("LongTermZeroPairs ignored cancellation")
	}
	if _, err := ABSABGapVerification(ctx, [16]byte{1}, 8, 64, nil); err == nil {
		t.Error("ABSABGapVerification ignored cancellation")
	}
	if _, err := Equation9Search(ctx, [16]byte{1}, 8, 64, nil); err == nil {
		t.Error("Equation9Search ignored cancellation")
	}
	if _, err := Table1(ctx, [16]byte{1}, 8, 64); err == nil {
		t.Error("Table1 ignored cancellation")
	}
	if _, err := Table2(ctx, 1<<12); err == nil {
		t.Error("Table2 ignored cancellation")
	}
}
