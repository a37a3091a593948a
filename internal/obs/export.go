package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"rc4break/internal/durable"
)

// ndjsonSpan is the NDJSON export shape: one JSON object per line per span,
// IDs in fixed-width hex so traces grep and join cleanly across processes.
type ndjsonSpan struct {
	Trace   string            `json:"trace"`
	Span    string            `json:"span"`
	Parent  string            `json:"parent,omitempty"`
	Name    string            `json:"name"`
	Proc    string            `json:"proc"`
	Track   int64             `json:"track"`
	StartNS int64             `json:"start_ns"`
	DurNS   int64             `json:"dur_ns"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

func hexID(v uint64) string { return fmt.Sprintf("%016x", v) }

func attrMap(attrs []Attr) map[string]string {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]string, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value()
	}
	return m
}

// WriteNDJSON writes one JSON object per record, newline-delimited, in
// deterministic order (start time, then span ID).
func WriteNDJSON(w io.Writer, recs []Record) error {
	recs = sortedByStart(recs)
	enc := json.NewEncoder(w)
	for _, r := range recs {
		line := ndjsonSpan{
			Trace:   hexID(r.Trace),
			Span:    hexID(r.Span),
			Name:    r.Name,
			Proc:    r.Proc,
			Track:   r.Track,
			StartNS: r.Start,
			DurNS:   r.Dur,
			Attrs:   attrMap(r.Attrs),
		}
		if r.Parent != 0 {
			line.Parent = hexID(r.Parent)
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return nil
}

// chromeEvent is one Chrome trace-event object. "X" complete events carry
// ts/dur in microseconds; "M" metadata events name the synthetic processes.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	PID  int               `json:"pid"`
	TID  int64             `json:"tid"`
	TS   float64           `json:"ts,omitempty"`
	Dur  float64           `json:"dur,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChromeFile writes the journal's spans to path as a Chrome
// trace-event file (WriteChrome): the -trace-out sink of cmd/repro and
// cmd/fleetd, written through durable.WriteFile.
func WriteChromeFile(path string, j *Journal) error {
	return durable.WriteFile(path, func(w io.Writer) error { return WriteChrome(w, j.Snapshot()) })
}

// WriteChrome writes the records as a Chrome trace-event JSON array loadable
// in chrome://tracing and Perfetto. Each distinct Proc label becomes a
// synthetic process (named via a process_name metadata event) and each
// span's Track becomes the thread row, so a coordinator and its workers lay
// out as parallel process groups under one trace. Trace/span/parent IDs ride
// in args for cross-referencing with the NDJSON export.
func WriteChrome(w io.Writer, recs []Record) error {
	recs = sortedByStart(recs)

	procs := make(map[string]int)
	var procNames []string
	for _, r := range recs {
		if _, ok := procs[r.Proc]; !ok {
			procs[r.Proc] = 0
			procNames = append(procNames, r.Proc)
		}
	}
	sort.Strings(procNames)
	events := make([]chromeEvent, 0, len(recs)+len(procNames))
	for i, name := range procNames {
		procs[name] = i + 1
		events = append(events, chromeEvent{
			Name: "process_name",
			Ph:   "M",
			PID:  i + 1,
			Args: map[string]string{"name": name},
		})
	}

	for _, r := range recs {
		args := attrMap(r.Attrs)
		if args == nil {
			args = make(map[string]string, 3)
		}
		args["trace"] = hexID(r.Trace)
		args["span"] = hexID(r.Span)
		if r.Parent != 0 {
			args["parent"] = hexID(r.Parent)
		}
		events = append(events, chromeEvent{
			Name: r.Name,
			Ph:   "X",
			PID:  procs[r.Proc],
			TID:  r.Track,
			TS:   float64(r.Start) / 1e3,
			Dur:  float64(r.Dur) / 1e3,
			Args: args,
		})
	}

	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{TraceEvents: events})
}

// sortedByStart returns a copy ordered by (Start, Span) so exports are
// stable regardless of fold/ring interleaving.
func sortedByStart(recs []Record) []Record {
	out := make([]Record, len(recs))
	copy(out, recs)
	sort.SliceStable(out, func(i, k int) bool {
		if out[i].Start != out[k].Start {
			return out[i].Start < out[k].Start
		}
		return out[i].Span < out[k].Span
	})
	return out
}
