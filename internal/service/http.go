package service

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"rc4break/internal/metrics"
	"rc4break/internal/obs"
)

// SubmitRequest is the POST /api/v1/jobs body.
type SubmitRequest struct {
	Tenant string  `json:"tenant"`
	Spec   JobSpec `json:"spec"`
}

// maxSubmitBytes caps a submit body. An encoded SubmitRequest is a few
// hundred bytes; a larger body is refused with 413 before it is buffered.
const maxSubmitBytes = 1 << 16

// decodeSubmit reads one submit body. Unknown fields are errors, so a
// misspelled spec field is refused instead of silently taking its default.
func decodeSubmit(r io.Reader) (SubmitRequest, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req SubmitRequest
	err := dec.Decode(&req)
	return req, err
}

// Handler serves the job API:
//
//	POST /api/v1/jobs              submit  {tenant, spec} -> JobStatus
//	GET  /api/v1/jobs[?tenant=t]   list
//	GET  /api/v1/jobs/{id}         status
//	GET  /api/v1/jobs/{id}/stream  progress events as JSON lines until terminal
//	GET  /api/v1/jobs/{id}/result  terminal JobStatus (409 while unfinished)
//	GET  /api/v1/jobs/{id}/evidence  the evidence blob (snapshot envelope)
//	GET  /metrics                  Prometheus text format
//	GET  /healthz                  200 until drain begins
//	GET  /debug/trace              span journal as NDJSON (when Config.Tracer set)
//	GET  /debug/trace/chrome       span journal as Chrome trace-event JSON
//	GET  /debug/pprof/...          net/http/pprof
//
// Every request's service time lands in attackd_http_request_seconds.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /api/v1/jobs/{id}/evidence", s.handleEvidence)
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.Handle("GET /healthz", metrics.Healthz(s.Ready))
	obs.MountDebug(mux, s.cfg.Tracer)
	return metrics.ObserveHandler(s.httpSeconds, mux)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError maps a service error to its status code; an error the service
// did not classify (a failed store write) is the server's fault, 500.
func writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrBadSpec):
		code = http.StatusBadRequest
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrTenantBusy), errors.Is(err, ErrQueueFull):
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrNotDone):
		code = http.StatusConflict
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeSubmit(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	if err != nil {
		code := http.StatusBadRequest
		if tooBig := new(http.MaxBytesError); errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, map[string]string{"error": "bad request body: " + err.Error()})
		return
	}
	st, err := s.Submit(req.Tenant, req.Spec)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.List(r.URL.Query().Get("tenant")))
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.Status(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleStream writes the job's events as JSON lines, flushing each, until
// the job reaches a terminal state (done, failed, or suspended by a drain).
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := s.Status(id); err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	seq := 0
	for {
		evs, terminal, err := s.EventsSince(id, seq)
		if err != nil {
			return
		}
		for _, ev := range evs {
			if enc.Encode(ev) != nil {
				return // client went away
			}
			seq = ev.Seq
		}
		if flusher != nil {
			flusher.Flush()
		}
		if terminal {
			return
		}
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	st, err := s.Status(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	if st.State != StateDone && st.State != StateFailed {
		writeError(w, ErrNotDone)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleEvidence(w http.ResponseWriter, r *http.Request) {
	payload, err := s.EvidenceBytes(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(payload)
}
