package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"rc4break/internal/cliutil"
	"rc4break/internal/cookieattack"
	"rc4break/internal/job"
	"rc4break/internal/netsim"
	"rc4break/internal/obs"
	"rc4break/internal/packet"
	"rc4break/internal/tkip"
	"rc4break/internal/trace"
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
// for each attack it captures one stream twice — directly in-process, and
// through the full sim → pcap → parse → reassemble → ingest round trip —
// and verifies the two evidence snapshots are bitwise identical, reporting
// the capture size and ingest throughput alongside. Any divergence is an
// error, not a table row. The returned RunResult lines (one per attack)
// are the machine-readable form the drivers' -json flag emits.
func TraceVsSim(p TraceParams) (Result, []cliutil.RunResult, error) {
	p = p.withDefaults()
	var rows []Row
	var results []cliutil.RunResult

	// §5 side: TKIP frames through radiotap/802.11 into per-TSC counts.
	msduLen := packet.HeaderSize + 7
	model, err := tkip.Train(tkip.TrainConfig{
		Positions:  msduLen + tkip.TrailerSize,
		KeysPerTSC: p.TrainKeys,
		Master:     [16]byte{0x7A},
	})
	if err != nil {
		return Result{}, nil, err
	}
	direct, err := job.New(job.Spec{Attack: "tkip", Mode: "exact", Model: model}, nil)
	if err != nil {
		return Result{}, nil, err
	}
	if err := direct.CaptureTo(p.Frames); err != nil {
		return Result{}, nil, err
	}
	session := tkip.DemoSession()
	victim := netsim.NewWiFiVictim(session, tkip.DemoPayload)
	var capture bytes.Buffer
	pw, err := trace.NewPcapWriter(&capture, trace.LinkTypeRadiotap)
	if err != nil {
		return Result{}, nil, err
	}
	fw, err := netsim.NewFrameWriter(pw, trace.LinkTypeRadiotap, session)
	if err != nil {
		return Result{}, nil, err
	}
	if err := victim.WriteTrace(fw, p.Frames); err != nil {
		return Result{}, nil, err
	}
	// The capture is the exact stream, so the ingest folds into a second,
	// empty runtime of the same job and carries its identity.
	ingestRT, err := job.New(job.Spec{Attack: "tkip", Mode: "exact", Model: model}, nil)
	if err != nil {
		return Result{}, nil, err
	}
	ingested := ingestRT.Decoder.(*tkip.Attack)
	// Each pass is timed by a nil journal's span, which records nothing.
	span := (*obs.Journal)(nil).Start(obs.SpanContext{}, "trace.ingest")
	stats, err := tkip.CollectTraceReaders(ingested, victim.FrameLen(),
		[]io.Reader{bytes.NewReader(capture.Bytes())}, 0, 0, false)
	ingestTime := span.End()
	if err != nil {
		return Result{}, nil, err
	}
	if stats.Matched != p.Frames {
		return Result{}, nil, fmt.Errorf("trace: TKIP ingest matched %d of %d frames", stats.Matched, p.Frames)
	}
	equal, err := snapshotsEqual(direct.Evidence, ingested.WriteSnapshot)
	if err != nil {
		return Result{}, nil, err
	}
	if !equal {
		return Result{}, nil, errors.New("trace: TKIP evidence ingested from pcap differs from direct capture")
	}
	// Parse-only pass over the same capture: the ceiling the pipeline hits
	// with no attack to fold into.
	span = (*obs.Journal)(nil).Start(obs.SpanContext{}, "trace.parse")
	if _, err := tkip.CollectTraceReaders(nil, victim.FrameLen(),
		[]io.Reader{bytes.NewReader(capture.Bytes())}, 0, 0, false); err != nil {
		return Result{}, nil, err
	}
	parseTime := span.End()
	mb := float64(capture.Len()) / (1 << 20)
	rows = append(rows, Row{Label: "tkip (radiotap pcap)", Values: []float64{
		float64(p.Frames), mb, mb / parseTime.Seconds(), mb / ingestTime.Seconds(), 1,
	}})
	results = append(results, cliutil.RunResult{
		Attack:       "tkip",
		Mode:         "trace",
		Success:      true,
		Observations: p.Frames,
		ParseMBps:    mb / parseTime.Seconds(),
		IngestMBps:   mb / ingestTime.Seconds(),
		CaptureMS:    float64(ingestTime.Microseconds()) / 1000,
		ElapsedMS:    float64(ingestTime.Microseconds()) / 1000,
	})

	// §6 side: TLS records through Ethernet/TCP reassembly into
	// digraph/ABSAB statistics.
	const secret = "Secur3C00kieVal+"
	directC, err := job.New(job.Spec{Attack: "cookie", Mode: "exact", Seed: p.Seed, Secret: secret}, nil)
	if err != nil {
		return Result{}, nil, err
	}
	if err := directC.CaptureTo(p.Records); err != nil {
		return Result{}, nil, err
	}
	_, req, err := job.CookieLayout(secret)
	if err != nil {
		return Result{}, nil, err
	}
	var captureC bytes.Buffer
	pwC, err := trace.NewPcapNGWriter(&captureC, trace.LinkTypeEthernet)
	if err != nil {
		return Result{}, nil, err
	}
	sw, err := netsim.NewStreamWriter(pwC, trace.LinkTypeEthernet)
	if err != nil {
		return Result{}, nil, err
	}
	wv, err := job.HTTPSVictim(p.Seed, req)
	if err != nil {
		return Result{}, nil, err
	}
	if err := wv.WriteTrace(sw, p.Records); err != nil {
		return Result{}, nil, err
	}
	ingestRTC, err := job.New(job.Spec{Attack: "cookie", Mode: "exact", Seed: p.Seed, Secret: secret}, nil)
	if err != nil {
		return Result{}, nil, err
	}
	ingestedC := ingestRTC.Decoder.(*cookieattack.Attack)
	span = (*obs.Journal)(nil).Start(obs.SpanContext{}, "trace.ingest")
	statsC, err := cookieattack.CollectTraceReaders(ingestedC, wv.RecordPlaintextLen(),
		[]io.Reader{bytes.NewReader(captureC.Bytes())}, 0, 0, false)
	ingestTimeC := span.End()
	if err != nil {
		return Result{}, nil, err
	}
	if statsC.Matched != p.Records {
		return Result{}, nil, fmt.Errorf("trace: TLS ingest matched %d of %d records", statsC.Matched, p.Records)
	}
	equal, err = snapshotsEqual(directC.Evidence, ingestedC.WriteSnapshot)
	if err != nil {
		return Result{}, nil, err
	}
	if !equal {
		return Result{}, nil, errors.New("trace: cookie evidence ingested from pcapng differs from direct capture")
	}
	span = (*obs.Journal)(nil).Start(obs.SpanContext{}, "trace.parse")
	if _, err := cookieattack.CollectTraceReaders(nil, wv.RecordPlaintextLen(),
		[]io.Reader{bytes.NewReader(captureC.Bytes())}, 0, 0, false); err != nil {
		return Result{}, nil, err
	}
	parseTimeC := span.End()
	mbC := float64(captureC.Len()) / (1 << 20)
	rows = append(rows, Row{Label: "cookie (ethernet pcapng)", Values: []float64{
		float64(p.Records), mbC, mbC / parseTimeC.Seconds(), mbC / ingestTimeC.Seconds(), 1,
	}})
	results = append(results, cliutil.RunResult{
		Attack:       "cookie",
		Mode:         "trace",
		Success:      true,
		Observations: p.Records,
		ParseMBps:    mbC / parseTimeC.Seconds(),
		IngestMBps:   mbC / ingestTimeC.Seconds(),
		CaptureMS:    float64(ingestTimeC.Microseconds()) / 1000,
		ElapsedMS:    float64(ingestTimeC.Microseconds()) / 1000,
	})

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

// snapshotsEqual compares a runtime's evidence with a snapshot writer's
// output byte for byte.
func snapshotsEqual(evidence func() ([]byte, error), write func(io.Writer) error) (bool, error) {
	want, err := evidence()
	if err != nil {
		return false, err
	}
	var got bytes.Buffer
	if err := write(&got); err != nil {
		return false, err
	}
	return bytes.Equal(want, got.Bytes()), nil
}
