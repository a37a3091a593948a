package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sort"

	"rc4break/internal/packet"
)

// This file rebuilds TCP byte streams from captured packets — the first
// half of the §6.3 collection pipeline ("reassembling the TCP and TLS
// streams"). The assembler delivers each flow's payload bytes in sequence
// order, tolerating the quirks a real sniffer sees: out-of-order arrival,
// retransmitted duplicates, and partially overlapping segments. The TLS
// framing on top is the caller's concern (tlsrec.Scanner).

// Per-packet classification errors for the IP/TCP path, mirroring the
// 802.11 soft errors: captures carry ARP, UDP, ICMP and friends, which
// collectors count and skip.
var (
	ErrNotTCP = errors.New("trace: packet is not IPv4 TCP")
	// ErrReassemblyWindow reports a flow whose out-of-order backlog
	// exceeded the assembler's buffer cap — an unfillable sequence hole
	// (lost capture bytes), surfaced as an error instead of unbounded
	// buffering or silent stream corruption.
	ErrReassemblyWindow = errors.New("trace: TCP reassembly window exceeded (capture is missing stream bytes)")
)

// FlowKey identifies one direction of a TCP connection.
type FlowKey struct {
	SrcIP, DstIP     [4]byte
	SrcPort, DstPort uint16
}

// Segment is one parsed TCP segment.
type Segment struct {
	Key      FlowKey
	Seq      uint32
	SYN, FIN bool
	Payload  []byte
}

// ParseTCPPacket extracts the TCP segment from one captured packet of the
// given link type (Ethernet, optionally 802.1Q-tagged, or raw IPv4).
// Non-TCP traffic yields ErrNotTCP; truncated or inconsistent headers
// yield the packet package's typed errors.
func ParseTCPPacket(linkType uint32, data []byte) (Segment, error) {
	switch linkType {
	case LinkTypeEthernet:
		if len(data) < 14 {
			return Segment{}, packet.ErrTruncated
		}
		etherType := binary.BigEndian.Uint16(data[12:14])
		data = data[14:]
		if etherType == 0x8100 { // one VLAN tag
			if len(data) < 4 {
				return Segment{}, packet.ErrTruncated
			}
			etherType = binary.BigEndian.Uint16(data[2:4])
			data = data[4:]
		}
		if etherType != 0x0800 {
			return Segment{}, ErrNotTCP
		}
	case LinkTypeRawIP:
	default:
		return Segment{}, &LinkTypeError{LinkType: linkType, Want: "Ethernet or raw IPv4"}
	}

	ip, err := packet.ParseIPv4(data)
	if err != nil {
		return Segment{}, err
	}
	if ip.Protocol != 6 {
		return Segment{}, ErrNotTCP
	}
	ihl, err := packet.IPv4HeaderLen(data)
	if err != nil {
		return Segment{}, err
	}
	// The IP total length bounds the segment — Ethernet pads short frames,
	// and trusting the captured length would feed padding into the stream.
	if int(ip.Length) < ihl || int(ip.Length) > len(data) {
		return Segment{}, packet.ErrHeaderLength
	}
	seg := data[ihl:ip.Length]
	tcp, err := packet.ParseTCP(seg)
	if err != nil {
		return Segment{}, err
	}
	dataOff, err := packet.TCPHeaderLen(seg)
	if err != nil {
		return Segment{}, err
	}
	var key FlowKey
	key.SrcIP, key.DstIP = ip.SrcIP, ip.DstIP
	key.SrcPort, key.DstPort = tcp.SrcPort, tcp.DstPort
	return Segment{
		Key:     key,
		Seq:     tcp.Seq,
		SYN:     tcp.Flags&0x02 != 0,
		FIN:     tcp.Flags&0x01 != 0,
		Payload: seg[dataOff:],
	}, nil
}

// flowState tracks one flow's reassembly cursor and out-of-order backlog.
type flowState struct {
	// synced reports whether the stream origin is known (a SYN fixed the
	// ISN, or the flow committed to its lowest buffered sequence). Until
	// then every segment is buffered: delivering eagerly from the first
	// segment seen would mis-start the stream whenever the capture
	// reordered the opening packets.
	synced bool
	// dead marks a flow abandoned after its reassembly window overflowed
	// (an unfillable hole); its segments are dropped from then on so one
	// broken flow cannot abort a whole multi-flow ingest.
	dead    bool
	nextSeq uint32
	// firstSeen anchors sequence-space comparisons among buffered
	// segments of an unsynced flow.
	firstSeen uint32
	// pending holds undelivered segments keyed by absolute sequence
	// number; segments are copied in (the caller's buffer is reused).
	pending      map[uint32][]byte
	pendingBytes int
}

// Assembler reorders TCP segments into contiguous per-flow byte streams.
// A flow's origin comes from its SYN when the capture holds one;
// SYN-less (mid-stream) flows buffer briefly and then commit to the
// lowest sequence number seen. Duplicates and already-delivered overlaps
// are trimmed away — first-received bytes win, the classic reassembly
// policy — and out-of-order segments are buffered until the hole before
// them fills. Callers must Flush after the last segment to drain flows
// that never synced.
type Assembler struct {
	// MaxBuffered caps each flow's out-of-order backlog in bytes
	// (default 4 MiB) — the streaming-memory guarantee for multi-gigabyte
	// traces. Exceeding it abandons the flow (its backlog is freed and
	// later segments are dropped) and returns ErrReassemblyWindow once,
	// so the caller can count the casualty and keep ingesting the
	// capture's other flows.
	MaxBuffered int
	// Duplicates and OutOfOrder count retransmitted/overlapping segments
	// dropped or trimmed, and segments that arrived ahead of a hole.
	Duplicates uint64
	OutOfOrder uint64
	flows      map[FlowKey]*flowState
}

const (
	defaultMaxBuffered = 4 << 20
	// syncBuffer caps how much an unsynced flow buffers while waiting for
	// its SYN; past it the flow commits to the lowest buffered sequence as
	// the stream origin.
	syncBuffer = 64 << 10
)

// Push feeds one segment, invoking deliver for every contiguous run of
// stream bytes this segment completes (possibly several, as buffered
// successors drain). Delivered bytes are only valid during the callback.
func (as *Assembler) Push(seg Segment, deliver func(key FlowKey, data []byte) error) error {
	if as.flows == nil {
		as.flows = make(map[FlowKey]*flowState)
	}
	f, ok := as.flows[seg.Key]
	if !ok {
		f = &flowState{firstSeen: seg.Seq}
		as.flows[seg.Key] = f
	}
	if f.dead {
		return nil // abandoned after a window overflow: drop silently
	}
	if seg.SYN && !f.synced {
		f.synced = true
		f.nextSeq = seg.Seq + 1 // SYN consumes one sequence number
	}
	seq := seg.Seq
	if seg.SYN {
		seq++ // any SYN payload (TCP Fast Open) starts after the SYN's own number
	}
	if len(seg.Payload) > 0 {
		// Fast path: a synced flow with no backlog receiving the next
		// in-order segment delivers without copying — the shape of nearly
		// every packet in a healthy capture.
		if f.synced && len(f.pending) == 0 && seq == f.nextSeq {
			if err := deliver(seg.Key, seg.Payload); err != nil {
				return err
			}
			f.nextSeq += uint32(len(seg.Payload))
			return nil
		}
		if err := as.buffer(f, seq, seg.Payload); err != nil {
			return err
		}
		if !f.synced {
			if f.pendingBytes > syncBuffer {
				f.commit() // no SYN coming: lowest sequence is the origin
			}
		}
	}
	if !f.synced {
		return nil
	}
	return as.drain(f, seg.Key, deliver)
}

// Flush drains flows that never learned their origin from a SYN —
// mid-stream captures — by committing each to its lowest buffered
// sequence. Call it once after the capture's last segment. Flows drain in
// a deterministic (sorted-key) order: two ingests of the same capture
// must deliver identical byte sequences, whatever Go's map iteration
// order does — the byte-identical re-capture contract depends on it.
func (as *Assembler) Flush(deliver func(key FlowKey, data []byte) error) error {
	var keys []FlowKey
	for key, f := range as.flows {
		if f.synced || f.dead || len(f.pending) == 0 {
			continue
		}
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
	for _, key := range keys {
		f := as.flows[key]
		f.commit()
		if err := as.drain(f, key, deliver); err != nil {
			return err
		}
	}
	return nil
}

// less orders flow keys lexicographically (addresses, then ports).
func (k FlowKey) less(o FlowKey) bool {
	if c := bytes.Compare(k.SrcIP[:], o.SrcIP[:]); c != 0 {
		return c < 0
	}
	if c := bytes.Compare(k.DstIP[:], o.DstIP[:]); c != 0 {
		return c < 0
	}
	if k.SrcPort != o.SrcPort {
		return k.SrcPort < o.SrcPort
	}
	return k.DstPort < o.DstPort
}

// buffer stores one segment's bytes for later in-order delivery. First
// arrival wins: a duplicate no longer than the buffered copy drops.
func (as *Assembler) buffer(f *flowState, seq uint32, data []byte) error {
	if f.synced {
		// Sequence-space comparison via signed 32-bit distance handles
		// wraparound the way TCP itself does.
		rel := int32(seq - f.nextSeq)
		if rel < 0 {
			if int(-rel) >= len(data) {
				as.Duplicates++ // pure retransmission of delivered bytes
				return nil
			}
			data = data[-rel:] // partial overlap: keep the delivered prefix
			seq = f.nextSeq
			as.Duplicates++
		} else if rel > 0 {
			as.OutOfOrder++
		}
	}
	if prev, dup := f.pending[seq]; dup {
		if len(data) <= len(prev) {
			as.Duplicates++
			return nil
		}
		f.pendingBytes -= len(prev)
	}
	max := as.MaxBuffered
	if max <= 0 {
		max = defaultMaxBuffered
	}
	if f.pendingBytes+len(data) > max {
		f.dead = true // free the backlog; later segments drop silently
		f.pending = nil
		f.pendingBytes = 0
		return ErrReassemblyWindow
	}
	if f.pending == nil {
		f.pending = make(map[uint32][]byte)
	}
	f.pending[seq] = append([]byte(nil), data...)
	f.pendingBytes += len(data)
	return nil
}

// commit fixes a SYN-less flow's origin at the lowest buffered sequence.
func (f *flowState) commit() {
	f.synced = true
	f.nextSeq = f.firstSeen
	for s := range f.pending {
		if int32(s-f.nextSeq) < 0 {
			f.nextSeq = s
		}
	}
}

// drain delivers every buffered run the cursor has reached, trimming
// overlaps against already-delivered bytes.
func (as *Assembler) drain(f *flowState, key FlowKey, deliver func(key FlowKey, data []byte) error) error {
	for len(f.pending) > 0 {
		advanced := false
		for s, d := range f.pending {
			rel := int32(s - f.nextSeq)
			if rel > 0 {
				continue
			}
			delete(f.pending, s)
			f.pendingBytes -= len(d)
			if int(-rel) >= len(d) {
				as.Duplicates++ // fully covered while it waited
				advanced = true
				break
			}
			d = d[-rel:]
			if err := deliver(key, d); err != nil {
				return err
			}
			f.nextSeq += uint32(len(d))
			advanced = true
			break
		}
		if !advanced {
			return nil
		}
	}
	return nil
}

// TCPStreamWriter emits one direction of a TCP connection as captured
// packets: the stream bytes are cut into MSS-sized segments wrapped in
// correct IPv4/TCP headers (checksums included) and, for Ethernet link
// types, an Ethernet II header. Sequence numbers advance with the stream,
// so the packets reassemble back into exactly the bytes written.
type TCPStreamWriter struct {
	w        PacketWriter
	linkType uint32
	// Flow is the emitted direction's addressing.
	Flow FlowKey
	// SrcMAC and DstMAC fill the Ethernet header when the link type is
	// Ethernet.
	SrcMAC, DstMAC [6]byte
	// MSS caps each segment's payload (default 1460).
	MSS     int
	seq     uint32
	id      uint16
	started bool
}

// NewTCPStreamWriter creates a stream writer over a packet writer opened
// with linkType LinkTypeEthernet or LinkTypeRawIP.
func NewTCPStreamWriter(w PacketWriter, linkType uint32, flow FlowKey) (*TCPStreamWriter, error) {
	switch linkType {
	case LinkTypeEthernet, LinkTypeRawIP:
	default:
		return nil, &LinkTypeError{LinkType: linkType, Want: "Ethernet or raw IPv4"}
	}
	return &TCPStreamWriter{
		w:        w,
		linkType: linkType,
		Flow:     flow,
		SrcMAC:   [6]byte{0x02, 0, 0, 0, 0, 1},
		DstMAC:   [6]byte{0x02, 0, 0, 0, 0, 2},
		MSS:      1460,
		seq:      1, // deterministic ISN; the assembler syncs mid-stream anyway
	}, nil
}

// SkipSequence advances the writer's TCP sequence number by n stream
// bytes without emitting packets — how a shard file that continues an
// earlier shard's stream keeps its segments reassemblable as one flow.
// A continuation writer never emits a SYN: the stream it joins already
// started in an earlier shard.
func (sw *TCPStreamWriter) SkipSequence(n uint64) {
	sw.seq += uint32(n) // TCP sequence space wraps by definition
	sw.started = true
}

// WriteStream appends stream bytes, emitting as many segments as needed.
// The first call emits the connection's SYN first, so reassembly learns
// the stream origin even when the capture reorders the opening packets.
func (sw *TCPStreamWriter) WriteStream(b []byte) error {
	if !sw.started {
		sw.started = true
		syn := packet.TCP{
			SrcPort: sw.Flow.SrcPort,
			DstPort: sw.Flow.DstPort,
			Seq:     sw.seq - 1, // SYN consumes the sequence number before the data
			Flags:   0x02,
			Window:  29200,
		}
		if err := sw.writePacket(syn, nil); err != nil {
			return err
		}
	}
	mss := sw.MSS
	if mss <= 0 {
		mss = 1460
	}
	for len(b) > 0 {
		n := len(b)
		if n > mss {
			n = mss
		}
		if err := sw.writeSegment(b[:n]); err != nil {
			return err
		}
		b = b[n:]
	}
	return nil
}

func (sw *TCPStreamWriter) writeSegment(payload []byte) error {
	tcp := packet.TCP{
		SrcPort: sw.Flow.SrcPort,
		DstPort: sw.Flow.DstPort,
		Seq:     sw.seq,
		Flags:   0x18, // PSH|ACK
		Window:  29200,
	}
	sw.seq += uint32(len(payload))
	return sw.writePacket(tcp, payload)
}

func (sw *TCPStreamWriter) writePacket(tcp packet.TCP, payload []byte) error {
	ip := packet.IPv4{
		TTL:      64,
		Protocol: 6,
		SrcIP:    sw.Flow.SrcIP,
		DstIP:    sw.Flow.DstIP,
		ID:       sw.id,
		Length:   uint16(packet.IPv4Size + packet.TCPSize + len(payload)),
	}
	sw.id++
	ipHdr := ip.Marshal()
	tcpHdr := tcp.Marshal(ip.SrcIP, ip.DstIP, payload)

	pkt := make([]byte, 0, 14+len(ipHdr)+len(tcpHdr)+len(payload))
	if sw.linkType == LinkTypeEthernet {
		pkt = append(pkt, sw.DstMAC[:]...)
		pkt = append(pkt, sw.SrcMAC[:]...)
		pkt = append(pkt, 0x08, 0x00)
	}
	pkt = append(pkt, ipHdr[:]...)
	pkt = append(pkt, tcpHdr[:]...)
	pkt = append(pkt, payload...)
	return sw.w.WritePacket(pkt)
}
