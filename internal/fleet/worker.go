package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"time"

	"rc4break/internal/obs"
	"rc4break/internal/snapshot"
)

// Worker is one capture node: it joins a coordinator, leases lanes, runs
// the attack's collect loop for each, and streams the lane snapshots back.
// Workers are stateless between lanes — everything durable lives in the
// coordinator's acks — so a worker can be killed at any instant and
// rejoined with no local recovery: its unacked lane simply expires and is
// re-captured (byte-identically, lanes being pure functions of the job) by
// whoever leases it next.
type Worker struct {
	// Addr is the coordinator's TCP address.
	Addr string
	// ID names the worker in leases and logs; empty means hostname-pid.
	ID string
	// Attack is the attack kind this worker can collect ("cookie" or
	// "tkip"); a job of any other kind is refused.
	Attack string
	// Fingerprint is the locally constructed attack configuration
	// fingerprint; the coordinator turns away workers whose fingerprint
	// differs from the job's.
	Fingerprint [16]byte
	// Collect captures one leased lane and returns the attack snapshot
	// envelope bytes (WriteSnapshot output), sent verbatim as the upload's
	// second frame. An error aborts the worker; the lane lease then
	// expires server-side and is re-captured elsewhere.
	Collect func(job JobSpec, lease Lease) ([]byte, error)
	Logf    func(format string, args ...interface{})
	// Dial overrides the transport (tests); nil means net.Dial("tcp", Addr).
	Dial func() (net.Conn, error)
	// MaxWait caps how long the worker sleeps on a Wait reply; 0 means the
	// coordinator's suggestion is honored as-is.
	MaxWait time.Duration
	// Tracer, when non-nil, records one fleet.collect span per leased lane,
	// parented under the coordinator's lane span via the lease's trace
	// fields, and piggybacks the drained journal on each evidence upload —
	// so the coordinator's journal renders the whole fleet as one trace.
	Tracer *obs.Journal
}

// WorkerStats summarizes one worker session.
type WorkerStats struct {
	// Lanes and Records count acked lane uploads.
	Lanes, Records uint64
	// Rejected counts uploads the coordinator refused (duplicates after a
	// lease expiry race — the work is covered, just not by this worker).
	Rejected uint64
	// StopReason is the coordinator's reason when it declared the run over.
	StopReason string
}

// Run drives the worker session until the coordinator declares the run
// over (returning the stop reason in the stats), the context is cancelled,
// or an error occurs.
func (w *Worker) Run(ctx context.Context) (WorkerStats, error) {
	var stats WorkerStats
	if w.Collect == nil {
		return stats, errors.New("fleet: worker needs a Collect loop")
	}
	if w.ID == "" {
		host, _ := os.Hostname()
		w.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if ctx == nil {
		ctx = context.Background()
	}
	dial := w.Dial
	if dial == nil {
		dial = func() (net.Conn, error) { return net.Dial("tcp", w.Addr) }
	}
	conn, err := dial()
	if err != nil {
		return stats, fmt.Errorf("fleet: worker %s: %w", w.ID, err)
	}
	defer conn.Close()

	if err := writeMsg(conn, kindHello, Hello{Worker: w.ID, Fingerprint: w.Fingerprint}); err != nil {
		return stats, err
	}
	var welcome Welcome
	if err := readExpect(conn, kindWelcome, &welcome); err != nil {
		var st *StoppedError
		if errors.As(err, &st) {
			stats.StopReason = st.Reason
			return stats, err // turned away at the door: surface the reason
		}
		return stats, err
	}
	job := welcome.Job
	if job.Attack != w.Attack {
		return stats, fmt.Errorf("fleet: job runs the %q attack, this worker collects %q", job.Attack, w.Attack)
	}
	w.logf("joined %s: %s/%s, %d lanes of %d observations", w.Addr, job.Attack, job.Mode, job.Lanes(), job.LaneRecords)

	for {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		if err := writeMsg(conn, kindLeaseRequest, LeaseRequest{Worker: w.ID}); err != nil {
			return stats, err
		}
		kind, payload, err := readMsg(conn)
		if err != nil {
			return stats, err
		}
		switch kind {
		case kindStop:
			var st Stop
			if err := snapshot.DecodeGob(payload, &st); err != nil {
				return stats, err
			}
			stats.StopReason = st.Reason
			w.logf("stopping: %s", st.Reason)
			return stats, nil
		case kindWait:
			var wt Wait
			if err := snapshot.DecodeGob(payload, &wt); err != nil {
				return stats, err
			}
			d := wt.After
			if w.MaxWait > 0 && d > w.MaxWait {
				d = w.MaxWait
			}
			if d <= 0 {
				d = 50 * time.Millisecond
			}
			select {
			case <-ctx.Done():
				return stats, ctx.Err()
			case <-time.After(d):
			}
		case kindLease:
			var lease Lease
			if err := snapshot.DecodeGob(payload, &lease); err != nil {
				return stats, err
			}
			w.logf("leased lane %d (%d observations at offset %d)", lease.Lane, lease.Records, lease.Start)
			collect := w.Tracer.Start(
				obs.SpanContext{Trace: obs.TraceID(lease.Trace), Span: obs.SpanID(lease.Span)},
				"fleet.collect", obs.U64("lane", lease.Lane), obs.U64("records", lease.Records))
			collect.SetTrack(int64(lease.Lane))
			snap, err := w.Collect(job, lease)
			collect.End()
			if err != nil {
				// Give the lane back immediately instead of holding it until
				// the TTL expires. Best-effort: a worker that dies outright
				// never gets here, and the TTL is the backstop.
				if werr := writeMsg(conn, kindRelease, Release{Worker: w.ID, Lane: lease.Lane}); werr == nil {
					_, _, _ = readMsg(conn)
				}
				return stats, fmt.Errorf("fleet: collecting lane %d: %w", lease.Lane, err)
			}
			if err := writeEvidence(conn, Evidence{
				Worker:  w.ID,
				Lane:    lease.Lane,
				Stream:  lease.Stream,
				Records: lease.Records,
				// Drain piggybacks every finished span (this lane's collect,
				// plus anything the attack layers recorded) on the upload the
				// worker already makes — no extra RPC.
				Spans: w.Tracer.Drain(),
			}, snap); err != nil {
				return stats, err
			}
			var ack Ack
			if err := readExpect(conn, kindAck, &ack); err != nil {
				return stats, err
			}
			if ack.OK {
				stats.Lanes++
				stats.Records += lease.Records
				w.logf("lane %d acked (pool at %d observations)", lease.Lane, ack.Merged)
			} else {
				stats.Rejected++
				w.logf("lane %d rejected: %s", lease.Lane, ack.Err)
			}
			if ack.Stop {
				stats.StopReason = "coordinator finished during upload"
				return stats, nil
			}
		default:
			return stats, fmt.Errorf("fleet: protocol error: unexpected %q reply to a lease request", kind)
		}
	}
}

func (w *Worker) logf(format string, args ...interface{}) {
	if w.Logf != nil {
		w.Logf("worker %s: "+format, append([]interface{}{w.ID}, args...)...)
	}
}
