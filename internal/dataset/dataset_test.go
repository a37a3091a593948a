package dataset

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"rc4break/internal/rc4"
	"rc4break/internal/stats"
)

func rc4mustNew(key []byte) *rc4.Cipher { return rc4.MustNew(key) }

func TestKeySourceDeterministic(t *testing.T) {
	var master [16]byte
	master[0] = 0x42
	a := NewKeySource(master, 3)
	b := NewKeySource(master, 3)
	ka, kb := make([]byte, 16), make([]byte, 16)
	for i := 0; i < 10; i++ {
		a.NextKey(ka)
		b.NextKey(kb)
		if !bytes.Equal(ka, kb) {
			t.Fatal("same lane diverged")
		}
	}
	c := NewKeySource(master, 4)
	kc := make([]byte, 16)
	c.NextKey(kc)
	a2 := NewKeySource(master, 3)
	a2.NextKey(ka)
	if bytes.Equal(ka, kc) {
		t.Fatal("different lanes produced identical first key")
	}
}

func TestKeySourceVariedLengths(t *testing.T) {
	src := NewKeySource([16]byte{1}, 0)
	k8 := make([]byte, 8)
	k32 := make([]byte, 32)
	src.NextKey(k8)
	src.NextKey(k32)
	zero := make([]byte, 32)
	if bytes.Equal(k32, zero) {
		t.Fatal("key is all zeros")
	}
}

func TestSingleByteCountsObserveMerge(t *testing.T) {
	a := NewSingleByteCounts(4)
	b := NewSingleByteCounts(4)
	a.Observe([]byte{1, 2, 3, 4})
	a.Observe([]byte{1, 9, 9, 9})
	b.Observe([]byte{1, 2, 0, 0})
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Keys != 3 {
		t.Fatalf("keys = %d, want 3", a.Keys)
	}
	if got := a.Count(1, 1); got != 3 {
		t.Errorf("Count(1,1) = %d, want 3", got)
	}
	if got := a.Count(2, 2); got != 2 {
		t.Errorf("Count(2,2) = %d, want 2", got)
	}
	if p := a.Probability(1, 1); p != 1.0 {
		t.Errorf("Probability(1,1) = %v, want 1", p)
	}
	dist := a.Distribution(2)
	if dist[2] != 2.0/3 || dist[9] != 1.0/3 {
		t.Errorf("Distribution(2) wrong: %v %v", dist[2], dist[9])
	}
	// Incompatible merge.
	c := NewSingleByteCounts(5)
	if err := a.Merge(c); err == nil {
		t.Error("incompatible merge accepted")
	}
}

func TestDigraphCountsObserveMerge(t *testing.T) {
	d := NewDigraphCounts(3)
	if d.KeystreamLen() != 4 {
		t.Fatalf("KeystreamLen = %d, want 4", d.KeystreamLen())
	}
	d.Observe([]byte{10, 20, 10, 20})
	d.Observe([]byte{10, 20, 30, 40})
	if got := d.Count(1, 10, 20); got != 2 {
		t.Errorf("Count(1,10,20) = %d, want 2", got)
	}
	if got := d.Count(3, 30, 40); got != 1 {
		t.Errorf("Count(3,30,40) = %d, want 1", got)
	}
	first, second := d.Marginals(2)
	if first[20] != 2 || second[10] != 1 || second[30] != 1 {
		t.Error("marginals wrong")
	}
	if p := d.Probability(1, 10, 20); p != 1.0 {
		t.Errorf("Probability = %v, want 1", p)
	}
	e := NewDigraphCounts(2)
	if err := d.Merge(e); err == nil {
		t.Error("incompatible merge accepted")
	}
}

func TestTargetedPairs(t *testing.T) {
	cells := []PairCell{
		{A: 1, B: 2, X: 0, Y: 0},
		{A: 2, B: 4, X: 7, Y: 9},
	}
	tp, err := NewTargetedPairs(cells)
	if err != nil {
		t.Fatal(err)
	}
	if tp.KeystreamLen() != 4 {
		t.Fatalf("KeystreamLen = %d, want 4", tp.KeystreamLen())
	}
	tp.Observe([]byte{0, 0, 5, 5})
	tp.Observe([]byte{1, 7, 5, 9})
	if tp.Counts[0] != 1 || tp.Counts[1] != 1 {
		t.Errorf("counts = %v", tp.Counts)
	}
	if p := tp.Probability(0); p != 0.5 {
		t.Errorf("Probability(0) = %v, want 0.5", p)
	}
	if _, err := NewTargetedPairs([]PairCell{{A: 2, B: 2}}); err == nil {
		t.Error("a==b accepted")
	}
	if _, err := NewTargetedPairs([]PairCell{{A: 0, B: 2}}); err == nil {
		t.Error("a=0 accepted")
	}
}

func TestEqualityCounts(t *testing.T) {
	eq, err := NewEqualityCounts([]int{1, 1}, []int{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	eq.Observe([]byte{5, 0, 5, 5})
	eq.Observe([]byte{5, 0, 6, 5})
	if eq.Counts[0] != 1 || eq.Counts[1] != 2 {
		t.Errorf("counts = %v", eq.Counts)
	}
	if p := eq.Probability(1); p != 1.0 {
		t.Errorf("Probability(1) = %v", p)
	}
	if _, err := NewEqualityCounts([]int{1}, []int{1}); err == nil {
		t.Error("a==b accepted")
	}
	if _, err := NewEqualityCounts([]int{1, 2}, []int{3}); err == nil {
		t.Error("ragged lists accepted")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(Config{Keys: 0}, func() Observer { return NewSingleByteCounts(1) }); err == nil {
		t.Error("zero keys accepted")
	}
}

// TestRunDeterministicAcrossWorkerCounts pins the default worker count:
// Run sized by GOMAXPROCS gives the same counters whatever GOMAXPROCS is.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	for name, factory := range runObservers() {
		var want Observer
		for _, workers := range workerCounts {
			withGOMAXPROCS(workers, func() {
				got, err := Run(Config{Keys: 2000}, factory)
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = got
				} else if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: GOMAXPROCS=%d changed the counters", name, workers)
				}
			})
		}
	}
}

// TestRunKeyRangesConcatenate pins the chunking a checkpointed generation
// relies on: keys [0, a) merged with keys [a, a+b) of the same lane equal
// one run of a+b keys.
func TestRunKeyRangesConcatenate(t *testing.T) {
	factory := func() Observer { return NewSingleByteCounts(8) }
	whole, err := Run(Config{Keys: 300, Lane: 3}, factory)
	if err != nil {
		t.Fatal(err)
	}
	head, err := Run(Config{Keys: 110, Lane: 3, Workers: 2}, factory)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := Run(Config{Keys: 190, Lane: 3, FirstKey: 110, Workers: 3}, factory)
	if err != nil {
		t.Fatal(err)
	}
	if err := head.Merge(tail); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(head, whole) {
		t.Fatal("chunked key ranges differ from one run")
	}
}

func TestRunFindsMantinShamirBias(t *testing.T) {
	// End-to-end §3 pipeline: generate a dataset, run the chi-squared test,
	// confirm Z2 is biased and that Pr[Z2=0] ≈ 2^-7.
	obs, err := Run(Config{Keys: 1 << 18}, func() Observer { return NewSingleByteCounts(2) })
	if err != nil {
		t.Fatal(err)
	}
	s := obs.(*SingleByteCounts)
	res, err := stats.ChiSquareUniform(s.Position(2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rejected() {
		t.Errorf("Z2 uniformity not rejected: p=%g", res.P)
	}
	p := s.Probability(2, 0)
	if p < 1.7/256 || p > 2.3/256 {
		t.Errorf("Pr[Z2=0] = %v, want ≈ 2/256", p)
	}
}

func TestMultiObserver(t *testing.T) {
	single := NewSingleByteCounts(2)
	eq, _ := NewEqualityCounts([]int{1}, []int{2})
	m := &Multi{Observers: []Observer{single, eq}}
	if m.KeystreamLen() != 2 {
		t.Fatalf("KeystreamLen = %d", m.KeystreamLen())
	}
	m.Observe([]byte{3, 3})
	if single.Keys != 1 || eq.Counts[0] != 1 {
		t.Error("Multi did not fan out")
	}
	m2 := &Multi{Observers: []Observer{NewSingleByteCounts(2), mustEq(t)}}
	m2.Observe([]byte{3, 4})
	if err := m.Merge(m2); err != nil {
		t.Fatal(err)
	}
	if single.Keys != 2 {
		t.Error("Multi merge failed")
	}
}

func mustEq(t *testing.T) *EqualityCounts {
	eq, err := NewEqualityCounts([]int{1}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	return eq
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := NewSingleByteCounts(3)
	s.Observe([]byte{1, 2, 3})
	s.Observe([]byte{4, 5, 6})
	var buf bytes.Buffer
	if err := Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	gs, ok := got.(*SingleByteCounts)
	if !ok {
		t.Fatalf("loaded type %T", got)
	}
	if gs.Keys != 2 || gs.Count(1, 1) != 1 || gs.Count(3, 6) != 1 {
		t.Error("loaded counts differ")
	}

	d := NewDigraphCounts(2)
	d.Observe([]byte{9, 9, 9})
	buf.Reset()
	if err := Save(&buf, d); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err != nil {
		t.Fatal(err)
	}

	// Only single and digraph datasets are saved: TargetedPairs and
	// EqualityCounts keep their keystream length unexported, so a loaded
	// copy would report KeystreamLen 0.
	tp, err := NewTargetedPairs([]PairCell{{A: 1, B: 3}})
	if err != nil {
		t.Fatal(err)
	}
	eq, err := NewEqualityCounts([]int{1}, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	for _, obs := range []Observer{&Multi{}, tp, eq} {
		buf.Reset()
		if err := Save(&buf, obs); err == nil {
			t.Errorf("%T save accepted", obs)
		}
	}
	if _, err := Load(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Error("garbage load accepted")
	}
}

func TestTargetedLongTermMatchesFullTable(t *testing.T) {
	// The targeted counter must agree exactly with the full table on the
	// same deterministic keystream set.
	master := [16]byte{9}
	cells := []LongTermCell{
		{I: -1, X: 0, Y: 0},
		{I: 5, X: 255, Y: 255},
		{I: -1, X: 0, Y: 1, YPlusI: true},   // (0, i+1)
		{I: -1, X: 1, Y: 255, XPlusI: true}, // (i+1, 255)
	}
	tt, err := CollectLongTermTargeted(context.Background(), master, 3, 8, cells)
	if err != nil {
		t.Fatal(err)
	}
	lt := collectLongTermLanes(master, 3, 8)
	if tt.Pairs != lt.Pairs {
		t.Fatalf("pair totals differ: %d vs %d", tt.Pairs, lt.Pairs)
	}
	var want [4]uint64
	for i := 0; i < 256; i++ {
		want[0] += lt.Count(i, 0, 0)
		want[2] += lt.Count(i, 0, byte(i+1))
		want[3] += lt.Count(i, byte(i+1), 255)
	}
	want[1] = lt.Count(5, 255, 255)
	for ci := range cells {
		if tt.Counts[ci] != want[ci] {
			t.Errorf("cell %d: targeted %d, full %d", ci, tt.Counts[ci], want[ci])
		}
	}
}

// collectLongTermLanes draws CollectLongTermTargeted's lane but fills the
// full table, so the two can be compared on identical keystreams.
func collectLongTermLanes(master [16]byte, keys, blocks int) *LongTermDigraphs {
	lt := &LongTermDigraphs{}
	src := NewKeySource(master, targetedLane)
	key := make([]byte, 16)
	buf := make([]byte, 257)
	for k := 0; k < keys; k++ {
		src.NextKey(key)
		c := rc4mustNew(key)
		c.Skip(1023)
		c.Keystream(buf[:1])
		for b := 0; b < blocks; b++ {
			c.Keystream(buf[1:])
			for r := 0; r < 256; r++ {
				lt.Counts[r*65536+int(buf[r])*256+int(buf[r+1])]++
			}
			lt.Pairs += 256
			buf[0] = buf[256]
		}
	}
	return lt
}
