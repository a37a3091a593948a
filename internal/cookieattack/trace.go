package cookieattack

import (
	"errors"
	"fmt"
	"io"

	"rc4break/internal/tlsrec"
	"rc4break/internal/trace"
)

// This file is the §6.3 collection tool: rebuild the TCP streams of a
// sniffed HTTPS capture (pcap or pcapng, Ethernet or raw IPv4), scan each
// flow for TLS records, and fold the fixed-size encrypted requests into an
// Attack's digraph/ABSAB statistics — "this requires reassembling the TCP
// and TLS streams, and then detecting the 512-byte (encrypted) HTTP
// requests". A live in-process victim's connection enters the same scanner
// and fold batch through Feed, so evidence ingested from a capture netsim
// wrote is bitwise identical to the live victim's.

// ErrTraceShort reports a strict observation-range ingest (a fleet lane)
// that ran out of capture before the range was filled.
var ErrTraceShort = errors.New("cookieattack: capture ended before the requested observation range was filled")

// foldBatch is how many matched record bodies the collector accumulates
// before one ObserveRecords call. The fold cycles all 17 half-megabyte
// ABSAB tables through L2 once per batch, so the batch must be large enough
// to amortize that refill across many records (2048 records × ~258 anchors
// ≈ 528K table hits per 512 KB refill, a ~1.5% miss rate on a 2 MB L2)
// while keeping the flat copy buffer and the fold scratch a few MB — far
// inside the streaming-memory bound the round-trip tests pin. Evidence is
// bitwise independent of this value.
const foldBatch = 2048

// TraceStats reports what one ingest pass saw.
type TraceStats struct {
	// Bytes counts capture payload bytes handed up by the container parser
	// — the numerator of an ingest throughput figure.
	Bytes uint64
	// Packets counts container records; Segments counts parsed TCP
	// segments; Records counts complete TLS application-data records
	// across all flows.
	Packets, Segments, Records uint64
	// Matched counts records accepted as observations (the aligned
	// request length) — including ones skipped by a range bound;
	// OtherRecords counts application-data records of other lengths
	// (responses, pipelined odds and ends).
	Matched, OtherRecords uint64
	// SkippedPackets counts non-TCP traffic; Malformed counts packets
	// with truncated or inconsistent headers; DeadFlows counts flows
	// abandoned after TLS framing desynchronized mid-stream.
	SkippedPackets, Malformed, DeadFlows uint64
}

// flowScan is one TCP flow's TLS scanning state.
type flowScan struct {
	col       *tlsrec.CollectRequests
	lastOther uint64 // col.Other already folded into the collector stats
	dead      bool
}

// TraceCollector streams captures into an Attack; see tkip.TraceCollector
// for the range semantics (Start skips, Max bounds, zero Max = unbounded).
// A nil Attack runs the full parse/reassembly/scan pipeline without folding
// anything — the parse-only mode experiments use to split an ingest
// throughput figure into its parse-bound and fold-bound parts.
type TraceCollector struct {
	Attack *Attack
	// WantLen is the aligned request's encrypted record body length
	// (plaintext plus MAC) — netsim.HTTPSVictim.RecordPlaintextLen.
	WantLen int
	Start   uint64
	Max     uint64
	Stats   TraceStats

	accepted   uint64
	asm        trace.Assembler
	flows      map[trace.FlowKey]*flowScan
	observeErr error

	// In-range matched record bodies are copied (first plen bytes only)
	// into batch in capture order and folded foldBatch at a time through
	// Attack.ObserveRecords — bitwise identical to per-record folding for
	// any packet/segment/batch split. The copy is what lets the TLS scanner
	// hand out zero-copy views: the view dies with the callback, the batch
	// row survives until the fold.
	batch  []byte
	batchN int
	plen   int
}

// Done reports whether a bounded collector has filled its range.
func (c *TraceCollector) Done() bool {
	return c.Max != 0 && c.accepted >= c.Start+c.Max
}

// Ingest drains one capture stream into the attack, stopping early once a
// bounded range is filled. A latched fold error fails fast: once any record
// is rejected the rest of the capture cannot repair the evidence, so paying
// full parse cost for it would only delay the report.
func (c *TraceCollector) Ingest(r *trace.Reader) error {
	for !c.Done() {
		if c.observeErr != nil {
			return c.observeErr
		}
		pkt, err := r.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		c.Stats.Packets++
		c.Stats.Bytes += uint64(len(pkt.Data))
		seg, err := trace.ParseTCPPacket(pkt.LinkType, pkt.Data)
		switch {
		case err == nil:
		case errors.Is(err, trace.ErrNotTCP):
			c.Stats.SkippedPackets++
			continue
		default:
			var lte *trace.LinkTypeError
			if errors.As(err, &lte) {
				return err // the whole capture is the wrong shape
			}
			c.Stats.Malformed++
			continue
		}
		c.Stats.Segments++
		if err := c.asm.Push(seg, c.deliver); err != nil {
			if errors.Is(err, trace.ErrReassemblyWindow) {
				// The assembler abandoned this flow (an unfillable capture
				// hole). Same containment policy as a TLS desync: count
				// the casualty, keep ingesting the other flows.
				c.markDead(seg.Key)
				continue
			}
			return err
		}
	}
	return nil
}

// Feed scans the stream bytes of one implicit live flow (an in-process
// victim's connection) through the same scanner and fold batch as a
// reassembled capture flow. Unlike a capture flow, the live flow cannot be
// abandoned: lost TLS framing is returned as an error.
func (c *TraceCollector) Feed(data []byte) error {
	if err := c.scan(c.flow(trace.FlowKey{}), data); err != nil {
		return err
	}
	return c.observeErr
}

// flow returns one flow's scanning state, creating it on first sight.
func (c *TraceCollector) flow(key trace.FlowKey) *flowScan {
	if c.flows == nil {
		c.flows = make(map[trace.FlowKey]*flowScan)
	}
	fs := c.flows[key]
	if fs == nil {
		fs = &flowScan{col: &tlsrec.CollectRequests{WantLen: c.WantLen}}
		c.flows[key] = fs
	}
	return fs
}

// markDead abandons one flow's TLS scanning and counts it.
func (c *TraceCollector) markDead(key trace.FlowKey) {
	if fs := c.flow(key); !fs.dead {
		fs.dead = true
		c.Stats.DeadFlows++
	}
}

// Flush drains flows whose origin was never pinned by a SYN (mid-stream
// captures) and folds the final partial batch. Call it after the last
// Ingest, or whenever a live Feed caller needs the evidence current.
func (c *TraceCollector) Flush() error {
	if err := c.asm.Flush(c.deliver); err != nil {
		return err
	}
	c.flushBatch()
	return c.observeErr
}

// deliver feeds one flow's contiguous stream bytes into its TLS scanner.
func (c *TraceCollector) deliver(key trace.FlowKey, data []byte) error {
	if fs := c.flow(key); !fs.dead && c.scan(fs, data) != nil {
		// TLS framing lost on this flow (mid-stream capture start, or a
		// desynchronized stream): abandon the flow rather than poisoning
		// the pool; other flows keep scanning.
		c.markDead(key)
	}
	return nil
}

// scan runs stream bytes through one flow's TLS scanner, folding its
// matched records and counting the others.
func (c *TraceCollector) scan(fs *flowScan, data []byte) error {
	err := fs.col.FeedBatch(data, c.observeBodies)
	otherDelta := fs.col.Other - fs.lastOther
	fs.lastOther = fs.col.Other
	c.Stats.Records += otherDelta
	c.Stats.OtherRecords += otherDelta
	return err
}

// observeBodies walks one chunk of matched record bodies in stream order:
// range accounting stays per record (so lane bounds land on exactly the
// same records as the per-record path), and in-range bodies are copied into
// the fold batch.
func (c *TraceCollector) observeBodies(bodies [][]byte) {
	for _, body := range bodies {
		c.Stats.Records++
		c.Stats.Matched++
		idx := c.accepted
		c.accepted++
		if idx < c.Start || (c.Max != 0 && idx >= c.Start+c.Max) {
			continue // outside this collector's observation range
		}
		if c.Attack == nil || c.observeErr != nil {
			continue
		}
		if len(body) < len(c.Attack.cfg.Plaintext) {
			// Same rejection ObserveRecord makes; latched here so the batch
			// never mixes well-formed and short rows.
			c.observeErr = errors.New("cookieattack: record shorter than modeled plaintext")
			continue
		}
		c.appendToBatch(body)
	}
}

// appendToBatch copies the modeled prefix of one record body into the fold
// batch, folding the batch once full.
func (c *TraceCollector) appendToBatch(body []byte) {
	if c.batch == nil {
		c.plen = len(c.Attack.cfg.Plaintext)
		c.batch = make([]byte, foldBatch*c.plen)
	}
	copy(c.batch[c.batchN*c.plen:(c.batchN+1)*c.plen], body)
	c.batchN++
	if c.batchN == foldBatch {
		c.flushBatch()
	}
}

// flushBatch folds the pending batch rows in capture order.
func (c *TraceCollector) flushBatch() {
	if c.batchN == 0 {
		return
	}
	n := c.batchN
	c.batchN = 0
	if err := c.Attack.ObserveRecords(c.batch, n, c.plen); err != nil && c.observeErr == nil {
		c.observeErr = err
	}
}

// CollectTraceReaders ingests a sequence of capture streams (one reader
// per file, in order) into the attack. start skips observations already
// held (a resume, or earlier lanes); max bounds the newly observed count
// (0 = everything); strict demands the full range be present — the fleet
// lane contract.
func CollectTraceReaders(a *Attack, wantLen int, readers []io.Reader, start, max uint64, strict bool) (TraceStats, error) {
	return collectTrace(a, wantLen, trace.ReaderSources(readers), start, max, strict)
}

// CollectTraceFiles is CollectTraceReaders over capture files on disk.
func CollectTraceFiles(a *Attack, wantLen int, paths []string, start, max uint64, strict bool) (TraceStats, error) {
	return collectTrace(a, wantLen, trace.FileSources(paths), start, max, strict)
}

// collectTrace is the one ingest loop behind both entry points.
func collectTrace(a *Attack, wantLen int, sources []trace.Source, start, max uint64, strict bool) (TraceStats, error) {
	c := &TraceCollector{Attack: a, WantLen: wantLen, Start: start, Max: max}
	err := trace.EachSource(sources, c.Done, c.Ingest)
	if err != nil {
		return c.Stats, err
	}
	if err := c.Flush(); err != nil {
		return c.Stats, err
	}
	if strict && !c.Done() {
		return c.Stats, fmt.Errorf("%w: have %d matching records, range needs %d",
			ErrTraceShort, c.accepted, start+max)
	}
	return c.Stats, nil
}
