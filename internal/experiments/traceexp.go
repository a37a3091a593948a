package experiments

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"

	"rc4break/internal/cliutil"
	"rc4break/internal/cookieattack"
	"rc4break/internal/fleet"
	"rc4break/internal/job"
	"rc4break/internal/obs"
	"rc4break/internal/snapshot"
	"rc4break/internal/tkip"
	"rc4break/internal/tlsrec"
)

// TraceParams controls the trace-versus-sim equivalence experiment.
type TraceParams struct {
	// Frames and Records size the two captures; defaults 2^15 TKIP
	// frames and 2^13 TLS records (a few MB each).
	Frames, Records uint64
	// TrainKeys is the TKIP model's keys per class (default 2^3 — the
	// experiment checks ingest equivalence, not attack success).
	TrainKeys uint64
	Seed      int64
}

func (p TraceParams) withDefaults() TraceParams {
	if p.Frames == 0 {
		p.Frames = 1 << 15
	}
	if p.Records == 0 {
		p.Records = 1 << 13
	}
	if p.TrainKeys == 0 {
		p.TrainKeys = 8
	}
	if p.Seed == 0 {
		p.Seed = 41
	}
	return p
}

// TraceVsSim is the trace-ingestion subsystem's experiment-level witness:
// for each attack it writes the job's exact stream as a capture file
// (job.Spec.WriteCapture), serves the file back as an exact fleet lane and
// verifies that lane's evidence is bitwise identical to the live victim's,
// reporting the capture size and ingest throughput alongside. Any
// divergence is an error, not a table row. The returned RunResult lines
// (one per attack) are the machine-readable form the drivers' -json flag
// emits.
func TraceVsSim(p TraceParams) (Result, []cliutil.RunResult, error) {
	p = p.withDefaults()
	positions := job.TKIPTrailer()
	model, err := tkip.Train(tkip.TrainConfig{
		Positions:  positions[len(positions)-1],
		KeysPerTSC: p.TrainKeys,
		Master:     [16]byte{0x7A},
	})
	if err != nil {
		return Result{}, nil, err
	}
	const secret = "Secur3C00kieVal+"
	layout, _, err := job.CookieLayout(secret)
	if err != nil {
		return Result{}, nil, err
	}
	dir, err := os.MkdirTemp("", "tracevssim")
	if err != nil {
		return Result{}, nil, err
	}
	defer os.RemoveAll(dir)

	// §5.4: TKIP frames through radiotap/802.11 into per-TSC counts; §6.3:
	// TLS records through Ethernet/TCP reassembly into digraph/ABSAB
	// statistics. parse runs the same collector with no attack attached.
	cases := []struct {
		label, file string
		spec        job.Spec
		n           uint64
		parse       func(paths []string) error
	}{
		{"tkip (radiotap pcap)", "tkip.pcap", job.Spec{Attack: "tkip", Mode: "exact", Model: model}, p.Frames,
			func(paths []string) error {
				_, err := tkip.CollectTraceFiles(nil, job.TKIPVictim().FrameLen(), paths, 0, 0, false)
				return err
			}},
		{"cookie (ethernet pcapng)", "cookie.pcapng", job.Spec{Attack: "cookie", Mode: "exact", Seed: p.Seed, Secret: secret}, p.Records,
			func(paths []string) error {
				_, err := cookieattack.CollectTraceFiles(nil, len(layout.Plaintext)+tlsrec.MACSize, paths, 0, 0, false)
				return err
			}},
	}
	var rows []Row
	var results []cliutil.RunResult
	for _, c := range cases {
		path := filepath.Join(dir, c.file)
		size, err := c.spec.WriteCapture(context.Background(), path, c.n)
		if err != nil {
			return Result{}, nil, err
		}
		traced := c.spec
		traced.Traces = path
		// Both lanes carry the same stream stamp, so their snapshots compare
		// byte for byte; the file-served lane fails if the capture is short.
		fj := fleet.JobSpec{Mode: "exact", Seed: c.spec.Seed}
		lane := fleet.Lease{Records: c.n, Stream: snapshot.StreamInfo{Mode: "exact", Seed: c.spec.Seed}}
		live, err := c.spec.CollectLane(fj, lane)
		if err != nil {
			return Result{}, nil, err
		}
		ingested, err := traced.CollectLane(fj, lane)
		if err != nil {
			return Result{}, nil, err
		}
		if !bytes.Equal(live, ingested) {
			return Result{}, nil, fmt.Errorf("trace: %s evidence ingested from %s differs from direct capture", c.spec.Attack, c.file)
		}

		// The timed ingest is the -pcap CLI path; each pass is timed by a
		// nil journal's span, which records nothing.
		rt, err := job.New(traced, nil)
		if err != nil {
			return Result{}, nil, err
		}
		span := (*obs.Journal)(nil).Start(obs.SpanContext{}, "trace.ingest")
		err = rt.CaptureTo(c.n)
		ingestTime := span.End()
		if err != nil {
			return Result{}, nil, err
		}
		// Parse-only pass over the same capture: the ceiling the pipeline
		// hits with no attack to fold into.
		span = (*obs.Journal)(nil).Start(obs.SpanContext{}, "trace.parse")
		err = c.parse([]string{path})
		parseTime := span.End()
		if err != nil {
			return Result{}, nil, err
		}
		mb := float64(size) / (1 << 20)
		rows = append(rows, Row{Label: c.label, Values: []float64{
			float64(c.n), mb, mb / parseTime.Seconds(), mb / ingestTime.Seconds(), 1,
		}})
		results = append(results, cliutil.RunResult{
			Attack:       c.spec.Attack,
			Mode:         "trace",
			Success:      true,
			Observations: c.n,
			ParseMBps:    mb / parseTime.Seconds(),
			IngestMBps:   mb / ingestTime.Seconds(),
			CaptureMS:    float64(ingestTime.Microseconds()) / 1000,
			ElapsedMS:    float64(ingestTime.Microseconds()) / 1000,
		})
	}
	return Result{
		ID:    "Trace §5.4/§6.3",
		Title: "Trace ingestion vs in-process capture (sim → pcap → ingest round trip)",
		Columns: []string{
			"observations", "capture MB", "parse MB/s", "ingest MB/s", "bitwise equal",
		},
		Rows: rows,
		Notes: "equal=1 certifies the ingested evidence is byte-identical to direct capture; " +
			"parse MB/s is the same pipeline with no attack attached (its parse-bound ceiling), " +
			"so the parse-vs-ingest gap is the batched evidence fold's cost per capture byte",
	}, results, nil
}
