package job

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNormalizeDefaults pins the one defaults table: an empty schedule
// takes each attack's values, a default first decode is clamped to a
// smaller budget, and the result normalizes to itself.
func TestNormalizeDefaults(t *testing.T) {
	cases := []struct {
		in, want Spec
	}{
		{Spec{Attack: "cookie", Secret: "C00kie"},
			Spec{Attack: "cookie", Mode: "model", Secret: "C00kie", Budget: 9 << 27, FirstDecode: 1 << 27,
				MaxCandidates: 1 << 16, CaptureChunk: 1 << 26, CheckpointRounds: 1}},
		{Spec{Attack: "tkip", Mode: "exact", Seed: 7},
			Spec{Attack: "tkip", Mode: "exact", Budget: 9 << 20, FirstDecode: 1 << 20,
				MaxCandidates: 1 << 20, CaptureChunk: 1 << 19, CheckpointRounds: 1, TrainKeys: 1 << 12}},
		{Spec{Attack: "cookie", Mode: "exact", Secret: "C00kie", Budget: 8192},
			Spec{Attack: "cookie", Mode: "exact", Secret: "C00kie", Budget: 8192, FirstDecode: 8192,
				MaxCandidates: 1 << 16, CaptureChunk: 4096, CheckpointRounds: 1}},
		{Spec{Attack: "tkip", Budget: 1, CheckpointRounds: -3},
			Spec{Attack: "tkip", Mode: "model", Budget: 1, FirstDecode: 1,
				MaxCandidates: 1 << 20, CaptureChunk: 1, CheckpointRounds: 1, TrainKeys: 1 << 12}},
	}
	for _, c := range cases {
		got, err := c.in.Normalize()
		if err != nil {
			t.Fatalf("%+v: %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("%+v normalized to\n%+v, want\n%+v", c.in, got, c.want)
		}
		if again, err := got.Normalize(); err != nil || again != got {
			t.Fatalf("normalized %+v re-normalizes to %+v, %v", got, again, err)
		}
		def := Defaults(c.in.Attack)
		if c.in.Budget == 0 && (got.Budget != def.Budget || got.FirstDecode != def.FirstDecode || got.MaxCandidates != def.MaxCandidates) {
			t.Fatalf("Defaults(%q) = %+v disagrees with Normalize's %+v", c.in.Attack, def, got)
		}
	}
}

// TestNormalizeRefuses pins the specs Normalize turns away: a cookie no
// candidate walk can reach (empty, longer than MaxCookieLen, or with a
// byte outside the cookie charset), a TKIP secret, a negative walk depth
// or worker count (which would be recorded but not run), a first decode
// past the budget, an unknown attack or mode, a bad trace ID, and capture
// files that do not exist.
func TestNormalizeRefuses(t *testing.T) {
	for _, s := range []Spec{
		{Attack: "cookie"},
		{Attack: "cookie", Secret: strings.Repeat("C", 17)},
		{Attack: "cookie", Seed: 3, Secret: "C00k;e"},
		{Attack: "cookie", Secret: "C00 ie"},
		{Attack: "tkip", Secret: "C00kie"},
		{Attack: "cookie", Secret: "C00kie", MaxCandidates: -1},
		{Attack: "tkip", Workers: -1},
		{Attack: "tkip", Budget: 4096, FirstDecode: 4097},
		{Attack: "wep"},
		{Attack: "tkip", Mode: "trace"},
		{Attack: "tkip", TraceID: "0"},
		{Attack: "tkip", Traces: filepath.Join(t.TempDir(), "*.pcap")},
	} {
		if got, err := s.Normalize(); err == nil {
			t.Errorf("%+v accepted as %+v", s, got)
		}
	}
}

// TestNormalizeExpandsTracesOnce pins the -pcap list: globs expand once,
// sorted, into a comma-joined file list that normalizes to itself, and a
// matched name that the list syntax cannot carry is refused.
func TestNormalizeExpandsTracesOnce(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"b.pcap", "a.pcap", "c.pcapng"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	spec := Spec{Attack: "tkip", Traces: filepath.Join(dir, "c.pcapng") + ", " + filepath.Join(dir, "*.pcap")}
	got, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{filepath.Join(dir, "c.pcapng"), filepath.Join(dir, "a.pcap"), filepath.Join(dir, "b.pcap")}
	if got.Traces != strings.Join(want, ",") || strings.Join(got.traceFiles(), "|") != strings.Join(want, "|") {
		t.Fatalf("traces %q, want %q", got.Traces, want)
	}
	if again, err := got.Normalize(); err != nil || again != got {
		t.Fatalf("re-normalized to %+v, %v", again, err)
	}
	if err := os.WriteFile(filepath.Join(dir, "d,e.pcap"), nil, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Normalize(); err == nil {
		t.Fatal("a matched capture name with a comma was accepted")
	}
}
