package tkip

import (
	"context"
	"errors"
	"fmt"
	"io"

	"rc4break/internal/trace"
)

// This file is the §5.4 collection tool: fold the TKIP-encrypted MPDUs of
// a monitor-mode capture (pcap or pcapng, radiotap or bare 802.11), or a
// live in-process victim's transmissions, into an Attack's per-TSC
// statistics. The injected packet is identified by its unique on-air body
// length and retransmissions are de-duplicated by TSC ("thanks to the
// 7-byte payload, we uniquely detected the injected packet ... without any
// false positives"); both sources go through the same filter (Offer), so
// evidence ingested from a capture netsim wrote is bitwise identical to the
// live victim's.

// ErrTraceShort reports a strict observation-range ingest (a fleet lane)
// that ran out of capture before the range was filled.
var ErrTraceShort = errors.New("tkip: capture ended before the requested observation range was filled")

// dedupWindow bounds the TSC de-duplication state: 802.11 retransmissions
// arrive within a handful of frames of their original, so remembering the
// last 2^16 accepted TSCs catches every real retry while keeping ingest
// memory O(MB) on arbitrarily long captures (an unbounded seen-set — what
// the netsim.Sniffer reference keeps — grows by ~36 bytes per frame).
//
// Eviction is strictly FIFO over accepted TSCs: accepting TSC number
// window+1 evicts the oldest remembered TSC, after which a re-appearance of
// that evicted TSC is accepted again — counted in Stats.Matched (and folded
// as evidence), not Stats.Duplicates. That is the deliberate trade: a
// duplicate separated from its original by 2^16 accepted frames is not an
// 802.11 retransmission but a replay or a TSC wrap, and on a monotone-TSC
// capture (what the injection scenario produces) it never happens. A
// membership probe alone does not refresh or evict anything — only
// acceptance advances the ring. TestTraceDedupWindowEviction pins all of
// this at the boundary.
const dedupWindow = 1 << 16

// frameBatch is how many accepted frames the collector buffers before one
// ObserveFrames call. Frame bodies are views into the container reader's
// reused packet buffer, so batch rows copy the body; the flat copy buffer
// stays O(10 KB). Counts are integers — batching cannot change a bit.
const frameBatch = 256

// TraceStats reports what one ingest pass saw, mirroring the sniffer's
// captured/dropped split with per-reason detail.
type TraceStats struct {
	// Bytes counts capture payload bytes handed up by the container parser
	// — the numerator of an ingest throughput figure.
	Bytes uint64
	// Packets counts container records; Frames counts parsed TKIP MPDUs.
	Packets, Frames uint64
	// Matched counts frames accepted as observations (unique length,
	// fresh TSC, unfragmented) — including ones skipped by a range bound.
	Matched uint64
	// Duplicates counts retransmissions dropped by TSC; Fragmented counts
	// fragment MPDUs (FragNum > 0 or MoreFrag) the attack cannot consume
	// whole; OtherLength counts data frames of non-matching length;
	// Skipped counts non-TKIP-data frames (management, control,
	// cleartext, CCMP); Malformed counts frames that end inside their own
	// headers.
	Duplicates, Fragmented, OtherLength, Skipped, Malformed uint64
}

// TraceCollector streams captures or a live victim's frames into an
// Attack. The zero range
// (Start=0, Max=0 meaning unbounded) folds every matching frame in;
// a fleet lane sets Start/Max to serve one lane's observation extent
// from a larger trace. A nil Attack runs the full parse/filter pipeline
// without folding — the parse-only mode experiments use to split ingest
// throughput into parse-bound and fold-bound parts. Call Flush after the
// last Ingest or Offer to fold the final partial batch.
type TraceCollector struct {
	Attack *Attack
	// WantLen is the injected packet's unique encrypted body length
	// (MSDU plus trailer) — netsim.WiFiVictim.FrameLen.
	WantLen int
	// Start and Max bound the accepted-observation range: the first Start
	// matching frames are skipped (already held by a resumed snapshot, or
	// owned by earlier lanes) and at most Max are observed (0 = no bound).
	Start, Max uint64
	Stats      TraceStats
	// Ctx, when set, stops collection early: once it is done, the fold
	// batch that follows is the last and Done reports true.
	Ctx context.Context

	stopped  bool
	accepted uint64
	// The dedup window: seen holds the remembered TSCs in acceptance
	// order (a FIFO ring once dedupWindow long, next its oldest entry),
	// and slots indexes them (see dup).
	seen     []TSC
	next     int
	slots    []TSC
	seenZero bool

	// In-range frames are copied (the reader reuses its packet buffer
	// across records, so the body view dies with the loop iteration) into
	// a flat row buffer and folded frameBatch at a time.
	batch  []Frame
	bodies []byte
}

// Done reports whether a bounded collector has filled its range, or Ctx
// has stopped it.
func (c *TraceCollector) Done() bool {
	return c.stopped || c.Max != 0 && c.accepted >= c.Start+c.Max
}

// Ingest drains one capture stream into the attack, stopping early once a
// bounded range is filled. Multi-file captures call it once per file with
// the same collector.
func (c *TraceCollector) Ingest(r *trace.Reader) error {
	for !c.Done() {
		pkt, err := r.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		c.Stats.Packets++
		c.Stats.Bytes += uint64(len(pkt.Data))
		frame := pkt.Data
		fcs := false
		switch pkt.LinkType {
		case trace.LinkTypeRadiotap:
			frame, fcs, err = trace.SplitRadiotap(frame)
			if err != nil {
				c.Stats.Malformed++
				continue
			}
		case trace.LinkTypeIEEE80211:
		default:
			return &trace.LinkTypeError{LinkType: pkt.LinkType, Want: "802.11 or radiotap"}
		}
		m, err := trace.ParseMPDU(frame, fcs)
		switch {
		case err == nil:
		case errors.Is(err, trace.ErrShortFrame):
			c.Stats.Malformed++
			continue
		default: // management/control/cleartext/CCMP
			c.Stats.Skipped++
			continue
		}
		if m.FragNum != 0 || m.MoreFrag {
			// A fragment's body is not the MSDU ‖ MIC ‖ ICV layout the
			// attack models; counting it as evidence would poison the
			// statistics, so fragments are skipped loudly, never folded.
			c.Stats.Frames++
			c.Stats.Fragmented++
			continue
		}
		c.Offer(Frame{TSC: TSC(m.TSC), Body: m.Body})
	}
	return nil
}

// Offer filters one whole TKIP MPDU — a parsed capture frame or a live
// victim's transmission — by length, TSC freshness and observation range,
// and queues an accepted one for the fold. The body is copied, so it may
// be reused once Offer returns.
func (c *TraceCollector) Offer(f Frame) {
	c.Stats.Frames++
	if len(f.Body) != c.WantLen {
		c.Stats.OtherLength++
		return
	}
	if c.dup(f.TSC) {
		c.Stats.Duplicates++
		return
	}
	c.Stats.Matched++
	idx := c.accepted
	c.accepted++
	if idx < c.Start || c.Attack == nil {
		return // owned by an earlier lane or resumed evidence, or a parse-only pass
	}
	c.appendToBatch(f.TSC, f.Body)
}

// appendToBatch copies one accepted frame into the fold batch, folding the
// batch once full.
func (c *TraceCollector) appendToBatch(tsc TSC, body []byte) {
	if c.bodies == nil {
		c.batch = make([]Frame, 0, frameBatch)
		c.bodies = make([]byte, frameBatch*c.WantLen)
	}
	row := c.bodies[len(c.batch)*c.WantLen : (len(c.batch)+1)*c.WantLen]
	copy(row, body)
	c.batch = append(c.batch, Frame{TSC: tsc, Body: row})
	if len(c.batch) == frameBatch {
		c.Flush()
	}
}

// Flush folds the pending batch. Safe to call repeatedly; collectTrace
// calls it after the last source, a live capture after each advance.
func (c *TraceCollector) Flush() {
	if len(c.batch) == 0 {
		return
	}
	c.Attack.ObserveFrames(c.batch)
	c.batch = c.batch[:0]
	c.stopped = c.Ctx != nil && c.Ctx.Err() != nil
}

// dedupSlotBits sizes the dedup index at 2^17 slots, twice the window, so
// linear probes stay short at load factor 1/2.
const (
	dedupSlotBits = 17
	dedupSlotMask = 1<<dedupSlotBits - 1
)

// dup reports whether the TSC was accepted recently, remembering it
// otherwise. The window is the ring seen over an open-addressed,
// linearly probed set in slots: 0 marks an empty slot (TSC 0 itself is
// the flag seenZero), and a delete shifts the rest of its probe run back,
// so the table never fills with tombstones however long the capture.
func (c *TraceCollector) dup(t TSC) bool {
	if c.slots == nil {
		c.seen = make([]TSC, 0, dedupWindow)
		c.slots = make([]TSC, 1<<dedupSlotBits)
	}
	if c.has(t) {
		return true
	}
	if len(c.seen) < dedupWindow {
		c.seen = append(c.seen, t)
	} else {
		c.forget(c.seen[c.next])
		c.seen[c.next] = t
		c.next = (c.next + 1) % dedupWindow
	}
	if t == 0 {
		c.seenZero = true
		return false
	}
	i := dedupSlot(t)
	for c.slots[i] != 0 {
		i = (i + 1) & dedupSlotMask
	}
	c.slots[i] = t
	return false
}

// dedupSlot is t's home slot: the top bits of a Fibonacci hash, which
// spreads the victim's sparse i<<16 | i&0xff TSCs evenly.
func dedupSlot(t TSC) int {
	return int(uint64(t) * 0x9E3779B97F4A7C15 >> (64 - dedupSlotBits))
}

// has reports whether t is in the window.
func (c *TraceCollector) has(t TSC) bool {
	if t == 0 {
		return c.seenZero
	}
	for i := dedupSlot(t); c.slots[i] != 0; i = (i + 1) & dedupSlotMask {
		if c.slots[i] == t {
			return true
		}
	}
	return false
}

// forget removes t, which must be in the window, and shifts back every
// later entry of its probe run that may fill the hole: one whose probe
// distance from its home slot reaches back to the hole.
func (c *TraceCollector) forget(t TSC) {
	if t == 0 {
		c.seenZero = false
		return
	}
	hole := dedupSlot(t)
	for c.slots[hole] != t {
		hole = (hole + 1) & dedupSlotMask
	}
	for j := (hole + 1) & dedupSlotMask; c.slots[j] != 0; j = (j + 1) & dedupSlotMask {
		if (j-dedupSlot(c.slots[j]))&dedupSlotMask >= (j-hole)&dedupSlotMask {
			c.slots[hole] = c.slots[j]
			hole = j
		}
	}
	c.slots[hole] = 0
}

// CollectTraceReaders ingests a sequence of capture streams (one reader
// per file, in order) into the attack. start skips observations already
// held (a resume, or earlier lanes); max bounds the newly observed count
// (0 = everything). strict demands the full range be present — the fleet
// lane contract — while a non-strict pass accepts whatever the capture
// holds.
func CollectTraceReaders(a *Attack, wantLen int, readers []io.Reader, start, max uint64, strict bool) (TraceStats, error) {
	return collectTrace(a, wantLen, trace.ReaderSources(readers), start, max, strict)
}

// CollectTraceFiles is CollectTraceReaders over capture files on disk.
func CollectTraceFiles(a *Attack, wantLen int, paths []string, start, max uint64, strict bool) (TraceStats, error) {
	return collectTrace(a, wantLen, trace.FileSources(paths), start, max, strict)
}

// collectTrace runs Collect on a fresh collector for both entry points.
func collectTrace(a *Attack, wantLen int, sources []trace.Source, start, max uint64, strict bool) (TraceStats, error) {
	c := &TraceCollector{Attack: a, WantLen: wantLen, Start: start, Max: max}
	err := c.Collect(sources, strict)
	return c.Stats, err
}

// Collect is the one ingest loop: it drains sources in order until the
// range is filled, then folds the last batch. strict demands the full
// range be present.
func (c *TraceCollector) Collect(sources []trace.Source, strict bool) error {
	if err := trace.EachSource(sources, c.Done, c.Ingest); err != nil {
		return err
	}
	c.Flush()
	if strict && !c.Done() {
		return fmt.Errorf("%w: have %d matching frames, range needs %d",
			ErrTraceShort, c.accepted, c.Start+c.Max)
	}
	return nil
}
