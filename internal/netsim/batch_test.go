package netsim

import (
	"bytes"
	"fmt"
	"testing"

	"rc4break/internal/tkip"
)

// TestTransmitBatchMatchesTransmit pins the capture generator to the
// protocol reference: every frame TransmitBatch writes — across a partial
// lane group, exact and straddling group boundaries, a multi-batch count,
// a skipped start and the TSC high word's carry at transmission 2^16 —
// equals the scalar Transmit's, under one worker or two, and the victim
// ends where n Transmit calls leave it.
func TestTransmitBatchMatchesTransmit(t *testing.T) {
	s := testTKIPSession()
	for _, skip := range []uint64{0, 5, 65533} {
		for _, n := range []int{1, 31, 32, 33, 4097} {
			ref := NewWiFiVictim(s, []byte("PAYLOAD"))
			ref.Skip(skip)
			want := make([]tkip.Frame, n)
			for k := range want {
				want[k] = ref.Transmit()
			}
			next := ref.Transmit()
			for _, workers := range []int{1, 2} {
				t.Run(fmt.Sprintf("skip%d/n%d/workers%d", skip, n, workers), func(t *testing.T) {
					v := NewWiFiVictim(s, []byte("PAYLOAD"))
					v.Workers = workers
					v.Skip(skip)
					frames := make([]tkip.Frame, n)
					v.TransmitBatch(frames, make([]byte, n*v.FrameLen()))
					for k, f := range frames {
						if f.TSC != want[k].TSC || !bytes.Equal(f.Body, want[k].Body) {
							t.Fatalf("frame %d (TSC %#x): batch differs from Transmit (TSC %#x)", k, f.TSC, want[k].TSC)
						}
					}
					if f := v.Transmit(); f.TSC != next.TSC || !bytes.Equal(f.Body, next.Body) {
						t.Fatal("victim not advanced by exactly n")
					}
				})
			}
		}
	}
}

// TestRewindGivesBackFrames: a batch followed by Rewind(m) leaves the
// victim where n-m Transmit calls would.
func TestRewindGivesBackFrames(t *testing.T) {
	s := testTKIPSession()
	ref := NewWiFiVictim(s, []byte("PAYLOAD"))
	ref.Skip(40 - 7)
	want := ref.Transmit()
	v := NewWiFiVictim(s, []byte("PAYLOAD"))
	v.TransmitBatch(make([]tkip.Frame, 40), make([]byte, 40*v.FrameLen()))
	v.Rewind(7)
	if got := v.Transmit(); got.TSC != want.TSC || !bytes.Equal(got.Body, want.Body) {
		t.Fatalf("after rewind: TSC %#x, want %#x", got.TSC, want.TSC)
	}
}

// BenchmarkTransmitBatch is the exact TKIP capture generator: one op
// transmits BatchFrames frames on GOMAXPROCS workers. Compare frames/s with
// the scalar BenchmarkTKIPInjection in the root package.
func BenchmarkTransmitBatch(b *testing.B) {
	v := NewWiFiVictim(testTKIPSession(), []byte("PAYLOAD"))
	frames := make([]tkip.Frame, BatchFrames)
	bodies := make([]byte, BatchFrames*v.FrameLen())
	b.SetBytes(int64(len(bodies)))
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		v.TransmitBatch(frames, bodies)
	}
	b.ReportMetric(float64(BatchFrames)*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
}
