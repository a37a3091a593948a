package online

import (
	"testing"

	"rc4break/internal/recovery"
)

type rejectAll struct{}

func (rejectAll) Check([]byte) bool { return false }

// TestWalkRememberOnlyWhenAskedTo pins the reject cache's final-round rule:
// a round that remembers adds its rejects, the final round only reads them,
// and both report the same checks and skips.
func TestWalkRememberOnlyWhenAskedTo(t *testing.T) {
	list := func() recovery.CandidateSource {
		return recovery.SliceSource([]recovery.Candidate{
			{Plaintext: []byte("a")}, {Plaintext: []byte("b")}, {Plaintext: []byte("c")},
		})
	}
	rejected := map[string]struct{}{"b": {}}
	for _, remember := range []bool{false, true} {
		var res Result
		if hit, _, walked := res.walk(list(), rejectAll{}, 3, rejected, remember); hit != nil || walked != 3 {
			t.Fatalf("remember=%v: hit=%q walked=%d", remember, hit, walked)
		}
		if res.Checks != 2 || res.Skipped != 1 {
			t.Fatalf("remember=%v: checks=%d skipped=%d, want 2/1", remember, res.Checks, res.Skipped)
		}
		if want := map[bool]int{false: 1, true: 3}[remember]; len(rejected) != want {
			t.Fatalf("remember=%v: cache holds %d, want %d", remember, len(rejected), want)
		}
	}
}
