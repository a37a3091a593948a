package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
)

// median is the middle value of xs (the mean of the two middle values for
// an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean of xs; 0 for an empty slice.
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// rate is count per second over seconds; 0 when no time elapsed.
func rate(count, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return count / seconds
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// outcome is one job's checkable result. Every field is a pure function of
// the job's spec, so two runs of one seed produce identical outcomes.
type outcome struct {
	Victim    int
	Attack    string
	Mode      string
	Success   bool
	Plaintext []byte
	Rank      int
	Observed  uint64
	Rounds    int
	Checks    uint64
	Skipped   uint64
	// Evidence is the SHA-256 of the job's final evidence snapshot bytes.
	Evidence [32]byte
}

// same reports whether two outcomes agree bitwise.
func (o outcome) same(p outcome) bool {
	return o.Victim == p.Victim && o.Attack == p.Attack && o.Mode == p.Mode &&
		o.Success == p.Success && string(o.Plaintext) == string(p.Plaintext) &&
		o.Rank == p.Rank && o.Observed == p.Observed && o.Rounds == p.Rounds &&
		o.Checks == p.Checks && o.Skipped == p.Skipped && o.Evidence == p.Evidence
}

// digest hashes a run's outcomes, in job order, into one hex string that two
// runs of the same seed must reproduce.
func digest(outs []outcome) string {
	h := sha256.New()
	var b [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	str := func(s []byte) {
		u(uint64(len(s)))
		h.Write(s)
	}
	for _, o := range outs {
		u(uint64(o.Victim))
		str([]byte(o.Attack))
		str([]byte(o.Mode))
		if o.Success {
			u(1)
		} else {
			u(0)
		}
		str(o.Plaintext)
		u(uint64(o.Rank))
		u(o.Observed)
		u(uint64(o.Rounds))
		u(o.Checks)
		u(o.Skipped)
		h.Write(o.Evidence[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
