package tkip

import (
	"math/rand"
	"testing"
)

// mapWindow is the dedup window as a Go map plus a FIFO ring: the
// implementation the open-addressed table replaced, kept as its reference.
type mapWindow struct {
	seen  map[TSC]struct{}
	order []TSC
	next  int
}

func (w *mapWindow) dup(t TSC) bool {
	if w.seen == nil {
		w.seen = make(map[TSC]struct{}, dedupWindow)
		w.order = make([]TSC, dedupWindow)
	}
	if _, dup := w.seen[t]; dup {
		return true
	}
	if len(w.seen) == dedupWindow {
		delete(w.seen, w.order[w.next])
	}
	w.seen[t] = struct{}{}
	w.order[w.next] = t
	w.next = (w.next + 1) % dedupWindow
	return false
}

// TestDedupTableMatchesMap drives the collector's dedup table and the map
// reference through one random stream and requires the same verdict on
// every TSC. The stream mixes a monotone 48-bit counter that wraps past
// 2^48-1 to 0, duplicate bursts of recent TSCs, re-appearances of TSCs
// from up to four windows back (evicted ones must come back as fresh),
// TSC 0 and the all-ones TSC, random 64-bit TSCs, and TSCs whose home
// slots sit at the end of the table, so probe runs and backward shifts
// wrap around index 0. Over six ring wraps go by.
func TestDedupTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	var edge []TSC // TSCs homed in the table's last four slots
	for len(edge) < 64 {
		if k := TSC(rng.Uint64()); dedupSlot(k) >= dedupSlotMask-3 {
			edge = append(edge, k)
		}
	}
	c, ref := &TraceCollector{}, &mapWindow{}
	var history []TSC
	counter := uint64(1<<48 - 5000)
	const ops = 12 * dedupWindow
	for op := 0; op < ops; op++ {
		var k TSC
		switch r := rng.Intn(100); {
		case r < 45 || len(history) == 0:
			k = TSC(counter & (1<<48 - 1))
			counter++
		case r < 65: // a burst of retransmissions of one recent TSC
			k = history[len(history)-1-rng.Intn(min(8, len(history)))]
			for burst := rng.Intn(4); burst > 0; burst-- {
				if got, want := c.dup(k), ref.dup(k); got != want {
					t.Fatalf("op %d: burst TSC %#x: table says dup=%v, map %v", op, k, got, want)
				}
			}
		case r < 80: // anything from the last four windows
			k = history[len(history)-1-rng.Intn(min(4*dedupWindow, len(history)))]
		case r < 88:
			k = edge[rng.Intn(len(edge))]
		case r < 92:
			k = TSC([]uint64{0, ^uint64(0)}[rng.Intn(2)])
		default:
			k = TSC(rng.Uint64())
		}
		got, want := c.dup(k), ref.dup(k)
		if got != want {
			t.Fatalf("op %d: TSC %#x: table says dup=%v, map %v", op, k, got, want)
		}
		if !want {
			history = append(history, k)
		}
	}
	if len(c.seen) != len(ref.seen) {
		t.Fatalf("table holds %d TSCs, map %d", len(c.seen), len(ref.seen))
	}
	if len(history) < 6*dedupWindow {
		t.Fatalf("only %d acceptances: the ring did not wrap six times", len(history))
	}
}
