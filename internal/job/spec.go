package job

import (
	"cmp"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"rc4break/internal/cliutil"
	"rc4break/internal/cookieattack"
	"rc4break/internal/httpmodel"
	"rc4break/internal/obs"
	"rc4break/internal/online"
	"rc4break/internal/tkip"
)

// Spec describes one attack job: which attack, which capture stream, and
// the schedule that captures and decodes it. It is attackd's submitted
// spec (service.JobSpec, with these JSON keys) and the job the attack CLIs
// and fleetd build from their flags; README "Job spec" maps each field to
// its key and flags. Normalize fills every default. Everything a job
// produces is a pure function of its normalized Spec, so two jobs with
// equal specs produce bitwise-equal evidence. Traces and Model are runtime
// inputs and never part of the JSON form.
type Spec struct {
	// Attack is "cookie" (§6 HTTPS cookie recovery) or "tkip" (§5 Michael
	// MIC key recovery).
	Attack string `json:"attack"`
	// Mode is the capture source: "model" (sampled sufficient statistics,
	// the default) or "exact" (the simulated victim's real records or
	// frames). Traces, when set, replaces the exact stream with capture
	// files.
	Mode string `json:"mode,omitempty"`
	// Seed identifies the capture stream. TKIP exact streams ignore it, and
	// Normalize pins it to 0 there.
	Seed int64 `json:"seed,omitempty"`
	// Secret is the cookie attack's target cookie: 1..MaxCookieLen bytes of
	// the RFC 6265 cookie charset; its length sets the unknown span. TKIP
	// jobs take none.
	Secret string `json:"secret,omitempty"`
	// Budget caps total observations (records or frames). An offline CLI
	// run collects its shard up to it.
	Budget uint64 `json:"budget,omitempty"`
	// FirstDecode and DecodeEvery shape the decode cadence (geometric from
	// FirstDecode when DecodeEvery is zero: online.Cadence semantics).
	FirstDecode uint64 `json:"first_decode,omitempty"`
	DecodeEvery uint64 `json:"decode_every,omitempty"`
	// MaxCandidates bounds each round's candidate walk.
	MaxCandidates int `json:"max_candidates,omitempty"`
	// CaptureChunk is the capture granule Runtime.CaptureTo walks in every
	// front end: granule ends are absolute multiples of this value (plus
	// each capture target), a model-mode granule is one draw, attackd
	// grants one scheduler slot per granule, and the CLIs rewrite an
	// exact-mode -checkpoint at each end. Every possible suspension point is thus a
	// point an uninterrupted run also passes through.
	CaptureChunk uint64 `json:"capture_chunk,omitempty"`
	// CheckpointRounds persists attackd's evidence blob every N
	// unsuccessful decode rounds. Terminal states always persist.
	CheckpointRounds int `json:"checkpoint_rounds,omitempty"`
	// TrainKeys sizes the TKIP per-TSC model (keys per TSC0 class) when it
	// must be trained.
	TrainKeys uint64 `json:"train_keys,omitempty"`
	// Workers bounds capture and decode parallelism (0 = GOMAXPROCS); it
	// never affects evidence.
	Workers int `json:"workers,omitempty"`
	// TraceID, when set, joins the job's spans to a trace the submitter
	// already owns: up to 16 hex digits (a 64-bit trace ID). Purely
	// observational.
	TraceID string `json:"trace_id,omitempty"`
	// Traces names pcap/pcapng files that concatenate into one logical
	// capture stream: comma-separated paths and globs, as -pcap takes them.
	// Normalize expands the globs once (cliutil.ExpandGlobs order), so a
	// normalized spec lists files.
	Traces string `json:"-"`
	// Model is the TKIP per-TSC model; required by TKIP jobs.
	Model *tkip.PerTSCModel `json:"-"`
}

// defaults holds each attack's schedule defaults: Normalize gives every
// zero field its attack's value here, and nothing else in the program
// states one.
var defaults = map[string]Spec{
	"cookie": {
		// §6.3: 9·2^27 requests recover a 16-character cookie 94% of the
		// time (Fig. 10).
		Budget: 9 << 27,
		// Fig. 10's success rate is ~0 below 2^27 requests, so an earlier
		// decode would only walk lists that cannot hold the cookie.
		FirstDecode: 1 << 27,
		// The paper walks 2^23 candidates; 2^16 per round keeps a
		// 16-character decode to a fraction of a second (README "Online
		// mode").
		MaxCandidates: 1 << 16,
	},
	"tkip": {
		// §5.4: about 9·2^20 injected frames, an hour at the measured
		// rate, give near-certain success (Figs. 8 and 9).
		Budget: 9 << 20,
		// 1·2^20 frames, the first point of Figs. 8 and 9.
		FirstDecode: 1 << 20,
		// The paper walks nearly 2^30 trailers; 2^20 per round keeps one
		// walk within seconds.
		MaxCandidates: 1 << 20,
		// The paper trains on 2^32 keys per TSC class; 2^12 trains the
		// demo model in seconds and already succeeds from 1·2^20 frames.
		TrainKeys: 1 << 12,
	},
}

// Defaults returns attack's default schedule: the values Normalize gives
// zero fields (CaptureChunk and CheckpointRounds aside).
func Defaults(attack string) Spec { return defaults[attack] }

// Normalize validates the spec and fills every default, returning the
// resolved spec; a normalized spec normalizes to itself. attackd persists
// the result in the job manifest, so a restarted server re-derives the job
// from the manifest alone even if these defaults change. A default first
// decode is clamped to the budget; CaptureChunk defaults to FirstDecode/2
// and CheckpointRounds to 1.
func (s Spec) Normalize() (Spec, error) {
	if s.Mode = cmp.Or(s.Mode, "model"); s.Mode != "model" && s.Mode != "exact" {
		return s, fmt.Errorf("job: unknown mode %q (want model or exact)", s.Mode)
	}
	def, ok := defaults[s.Attack]
	if !ok {
		return s, fmt.Errorf("job: unknown attack %q (want cookie or tkip)", s.Attack)
	}
	if s.Attack == "cookie" {
		if err := checkSecret(s.Secret); err != nil {
			return s, err
		}
	} else if s.Secret != "" {
		return s, errors.New("job: tkip jobs take no secret (the demo session is the target)")
	}
	if s.Attack == "tkip" && s.Mode == "exact" {
		// The exact stream is the demo session's TSC sequence; pinning the
		// seed makes the stream identity honest (and equal-spec jobs dedup
		// their evidence blobs).
		s.Seed = 0
	}
	if s.MaxCandidates < 0 || s.Workers < 0 {
		return s, fmt.Errorf("job: negative max_candidates %d or workers %d", s.MaxCandidates, s.Workers)
	}
	s.Budget = cmp.Or(s.Budget, def.Budget)
	if s.FirstDecode = cmp.Or(s.FirstDecode, min(def.FirstDecode, s.Budget)); s.FirstDecode > s.Budget {
		return s, fmt.Errorf("job: first decode %d beyond budget %d", s.FirstDecode, s.Budget)
	}
	s.MaxCandidates = cmp.Or(s.MaxCandidates, def.MaxCandidates)
	s.TrainKeys = cmp.Or(s.TrainKeys, def.TrainKeys)
	s.CaptureChunk = cmp.Or(s.CaptureChunk, max(s.FirstDecode/2, 1))
	s.CheckpointRounds = max(s.CheckpointRounds, 1)
	if s.TraceID != "" {
		if _, err := ParseTraceID(s.TraceID); err != nil {
			return s, err
		}
	}
	if s.Traces != "" {
		files, err := cliutil.ExpandGlobs(s.Traces)
		if err != nil {
			return s, fmt.Errorf("job: capture files: %w", err)
		}
		for _, f := range files {
			if strings.ContainsAny(f, ",*?[") {
				return s, fmt.Errorf("job: capture file %q: a name with a comma or glob character cannot be listed", f)
			}
		}
		s.Traces = strings.Join(files, ",")
	}
	return s, nil
}

// checkSecret refuses a cookie no job can recover: one outside
// 1..MaxCookieLen bytes, or one with a byte outside the charset the
// candidate walk is restricted to.
func checkSecret(secret string) error {
	if len(secret) == 0 || len(secret) > cookieattack.MaxCookieLen {
		return fmt.Errorf("job: cookie secret length %d out of range [1,%d]", len(secret), cookieattack.MaxCookieLen)
	}
	charset := string(httpmodel.CookieCharset())
	if i := strings.IndexFunc(secret, func(r rune) bool { return !strings.ContainsRune(charset, r) }); i >= 0 {
		return fmt.Errorf("job: cookie secret byte %q at %d is outside the RFC 6265 cookie charset, so no candidate can match it", secret[i], i)
	}
	return nil
}

// Cadence is the spec's decode schedule.
func (s Spec) Cadence() online.Cadence {
	return online.Cadence{First: s.FirstDecode, Every: s.DecodeEvery}
}

// ParseTraceID decodes a trace_id: 1..16 hex digits, nonzero.
func ParseTraceID(s string) (obs.TraceID, error) {
	if len(s) > 16 {
		return 0, fmt.Errorf("job: trace_id %q longer than 16 hex digits", s)
	}
	id, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("job: trace_id %q is not hex: %v", s, err)
	}
	if id == 0 {
		return 0, errors.New("job: trace_id must be nonzero (omit it for a fresh trace)")
	}
	return obs.TraceID(id), nil
}

// traceFiles is the normalized spec's capture file list; nil without
// Traces.
func (s Spec) traceFiles() []string {
	if s.Traces == "" {
		return nil
	}
	return strings.Split(s.Traces, ",")
}
