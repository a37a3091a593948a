package dataset

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// LaneLedger tracks the lease state of a fixed set of disjoint work lanes —
// the bookkeeping behind distributed capture. A lane is the fleet-level
// sibling of Config.Lane's key lanes: just as two generation runs on
// different lanes draw disjoint key sequences, two capture workers
// holding different ledger lanes observe disjoint slices of the evidence
// stream, so no observation can ever be counted twice. The ledger hands out
// the lowest available lane (deterministic assignment), expires leases whose
// workers went silent so the lane can be re-captured elsewhere, and marks
// lanes done when their evidence has been accepted.
//
// The ledger is safe for concurrent use; it never calls out while holding
// its lock.
type LaneLedger struct {
	mu    sync.Mutex
	lanes []laneEntry
}

// LaneState enumerates a lane's lifecycle: available (capturable), leased
// (one worker is capturing it), done (its evidence is merged).
type LaneState uint8

const (
	LaneAvailable LaneState = iota
	LaneLeased
	LaneDone
)

type laneEntry struct {
	state   LaneState
	owner   string
	expires time.Time
}

// NewLaneLedger creates a ledger of n lanes, all available.
func NewLaneLedger(n uint64) *LaneLedger {
	return &LaneLedger{lanes: make([]laneEntry, n)}
}

// Lanes reports the total lane count.
func (l *LaneLedger) Lanes() uint64 { return uint64(len(l.lanes)) }

// Lease grants the lowest available lane to owner until now+ttl. The second
// return is false when no lane is currently available (all leased or done) —
// the caller should retry after a lease could have expired, not give up: an
// expired lease returns its lane to the pool via Reclaim.
func (l *LaneLedger) Lease(owner string, now time.Time, ttl time.Duration) (uint64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.lanes {
		if l.lanes[i].state == LaneAvailable {
			l.lanes[i] = laneEntry{state: LaneLeased, owner: owner, expires: now.Add(ttl)}
			return uint64(i), true
		}
	}
	return 0, false
}

// Reclaim returns every leased lane whose lease expired at or before now to
// the available pool and reports the reclaimed lanes. Call it before Lease:
// a worker that died mid-capture holds its lane only until the TTL runs out.
func (l *LaneLedger) Reclaim(now time.Time) []uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var reclaimed []uint64
	for i := range l.lanes {
		if l.lanes[i].state == LaneLeased && !l.lanes[i].expires.After(now) {
			l.lanes[i] = laneEntry{}
			reclaimed = append(reclaimed, uint64(i))
		}
	}
	return reclaimed
}

// Complete marks a lane done, regardless of current owner: lane evidence is
// deterministic per lane, so whichever worker's upload was accepted first
// completes the lane (a re-leased lane's late first owner is rejected at the
// evidence layer as a duplicate, not here). Completing a done lane is an
// error — the caller's duplicate detection should have fired first.
func (l *LaneLedger) Complete(lane uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lane >= uint64(len(l.lanes)) {
		return fmt.Errorf("dataset: lane %d outside ledger of %d lanes", lane, len(l.lanes))
	}
	if l.lanes[lane].state == LaneDone {
		return errors.New("dataset: lane already complete")
	}
	l.lanes[lane] = laneEntry{state: LaneDone}
	return nil
}

// Release returns a leased lane to the pool early — the fleet's release
// RPC, sent by a worker whose collect loop failed, so the lane comes back
// immediately instead of timing out. Only the current owner can release;
// anyone else's release is ignored — their lease already expired or was
// reassigned.
func (l *LaneLedger) Release(lane uint64, owner string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lane < uint64(len(l.lanes)) && l.lanes[lane].state == LaneLeased && l.lanes[lane].owner == owner {
		l.lanes[lane] = laneEntry{}
	}
}

// State reports one lane's current state.
func (l *LaneLedger) State(lane uint64) LaneState {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lane >= uint64(len(l.lanes)) {
		return LaneAvailable
	}
	return l.lanes[lane].state
}

// Counts reports how many lanes are available, leased, and done.
func (l *LaneLedger) Counts() (available, leased, done uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.lanes {
		switch l.lanes[i].state {
		case LaneLeased:
			leased++
		case LaneDone:
			done++
		default:
			available++
		}
	}
	return
}

// Done reports whether every lane is complete.
func (l *LaneLedger) Done() bool {
	_, _, done := l.Counts()
	return done == uint64(len(l.lanes))
}
