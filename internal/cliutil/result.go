package cliutil

import (
	"encoding/hex"
	"encoding/json"
	"io"
	"os"

	"rc4break/internal/online"
)

// RunResult is the machine-readable outcome of one attack run — what the
// drivers emit under -json so fleet tooling and experiments consume results
// structurally instead of scraping the human-readable narrative. One JSON
// object per run, written as the final stdout line.
type RunResult struct {
	// Attack is "cookie" or "tkip"; Mode is the collection mode.
	Attack string `json:"attack"`
	Mode   string `json:"mode"`
	// Job and Tenant identify the run inside a multi-tenant service
	// (cmd/attackd); the single-run CLIs leave them empty, and omitempty
	// keeps their output byte-identical to the pre-service schema.
	Job    string `json:"job,omitempty"`
	Tenant string `json:"tenant,omitempty"`
	// Online reports whether the run captured and decoded on a cadence
	// (-online). Offline recovery runs too, as the loop's single final
	// round over evidence collected beforehand.
	Online bool `json:"online"`
	// Success is false on budget exhaustion or a missing candidate.
	Success bool `json:"success"`
	// Plaintext is the hex-encoded recovered value (cookie bytes or MIC
	// key) on success.
	Plaintext string `json:"plaintext,omitempty"`
	// Rank is the confirmed candidate's 1-based list position.
	Rank int `json:"rank,omitempty"`
	// Observations is the records/frames folded into the evidence at the
	// end of the run — the records-to-success metric for online runs.
	Observations uint64 `json:"observations"`
	// Rounds, Checks and Skipped describe the decode loop; an offline run
	// reports its one round and its checks (it never skips).
	Rounds  int    `json:"rounds,omitempty"`
	Checks  uint64 `json:"checks,omitempty"`
	Skipped uint64 `json:"skipped,omitempty"`
	// ParseMBps and IngestMBps split a trace-mode run's capture throughput:
	// ParseMBps is the parse-bound ceiling (container parsing, reassembly
	// and record scanning with no attack attached) and IngestMBps is the
	// full parse+fold pipeline. Both are measured over the same capture
	// bytes, so their gap is the evidence-folding cost.
	ParseMBps  float64 `json:"parse_mbps,omitempty"`
	IngestMBps float64 `json:"ingest_mbps,omitempty"`
	// CaptureMS/DecodeMS/OracleMS split the loop's wall clock by phase on
	// every path. An offline run collects before its round, so it reports
	// no capture time and ElapsedMS covers decode and oracle only.
	CaptureMS float64 `json:"capture_ms"`
	DecodeMS  float64 `json:"decode_ms"`
	OracleMS  float64 `json:"oracle_ms"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// Error carries the failure reason when Success is false.
	Error string `json:"error,omitempty"`
}

// OnlineRunResult converts an online.Run outcome into the JSON result shape.
func OnlineRunResult(attack, mode string, res online.Result, err error) RunResult {
	r := RunResult{
		Attack:       attack,
		Mode:         mode,
		Online:       true,
		Success:      err == nil,
		Rank:         res.Rank,
		Observations: res.Observed,
		Rounds:       res.Rounds,
		Checks:       res.Checks,
		Skipped:      res.Skipped,
		CaptureMS:    float64(res.CaptureTime.Microseconds()) / 1000,
		DecodeMS:     float64(res.DecodeTime.Microseconds()) / 1000,
		OracleMS:     float64(res.OracleTime.Microseconds()) / 1000,
		ElapsedMS:    float64(res.Elapsed.Microseconds()) / 1000,
	}
	if err == nil {
		r.Plaintext = hex.EncodeToString(res.Plaintext)
	} else {
		r.Error = err.Error()
	}
	return r
}

// Write emits the result as one JSON line.
func (r RunResult) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(r)
}

// Emit writes the result to stdout when enabled (the drivers' -json flag)
// and is a no-op otherwise. Callers must invoke it after their last
// narrative output so the JSON line stays the final stdout line.
func (r RunResult) Emit(enabled bool) error {
	if !enabled {
		return nil
	}
	return r.Write(os.Stdout)
}
