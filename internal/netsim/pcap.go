package netsim

import (
	"rc4break/internal/tkip"
	"rc4break/internal/trace"
)

// This file is the simulator's capture-writer side: the same victims that
// hand the attacks in-process evidence can emit their streams as pcap or
// pcapng files, through the same frame/segment encodings the trace
// ingestion layer parses. That closes the round trip the trace subsystem
// is pinned by — sim → pcap → ingest must reproduce direct capture bit
// for bit — and gives every CLI a way to produce realistic captures for
// offline and fleet workflows.

// NewFrameWriter builds a trace.FrameWriter carrying the session's 802.11
// addressing (FromDS: the AP retransmits the injected packet toward the
// victim), QoS-Data subtype — the §5.4 monitor-mode capture shape.
func NewFrameWriter(w trace.PacketWriter, linkType uint32, s *tkip.Session) (*trace.FrameWriter, error) {
	return trace.NewFrameWriter(w, linkType, s.TA, s.DA, s.SA)
}

// WriteTrace transmits the victim's next n frames into a capture instead
// of the in-process sniffer, BatchFrames at a time through TransmitBatch.
// The victim's TSC sequence advances exactly as n Transmit calls would, so
// a capture written here and a direct capture of the same stream hold
// identical frames.
func (v *WiFiVictim) WriteTrace(fw *trace.FrameWriter, n uint64) error {
	size := min(n, BatchFrames)
	frames := make([]tkip.Frame, size)
	bodies := make([]byte, int(size)*v.FrameLen())
	for n > 0 {
		k := min(n, size)
		v.TransmitBatch(frames[:k], bodies[:int(k)*v.FrameLen()])
		for _, f := range frames[:k] {
			if err := fw.WriteFrame(uint64(f.TSC), f.Body); err != nil {
				return err
			}
		}
		n -= k
	}
	return nil
}

// HTTPSFlow is the canonical TCP flow the simulated browser's HTTPS
// connection rides (victim → server, port 443); written captures and the
// §6.3 reassembly pipeline agree on it.
func HTTPSFlow() trace.FlowKey {
	return trace.FlowKey{
		SrcIP:   [4]byte{192, 168, 1, 100},
		DstIP:   [4]byte{203, 0, 113, 80},
		SrcPort: 52113,
		DstPort: 443,
	}
}

// NewStreamWriter builds a trace.TCPStreamWriter for the victim's HTTPS
// connection on the canonical flow.
func NewStreamWriter(w trace.PacketWriter, linkType uint32) (*trace.TCPStreamWriter, error) {
	return trace.NewTCPStreamWriter(w, linkType, HTTPSFlow())
}

// WriteTrace seals the victim's next n requests into a capture as TCP
// segments instead of handing the records to an in-process collector. The
// connection's RC4 stream and sequence number advance exactly as n
// SendRequest calls would.
func (v *HTTPSVictim) WriteTrace(sw *trace.TCPStreamWriter, n uint64) error {
	for i := uint64(0); i < n; i++ {
		if err := sw.WriteStream(v.SendRequest()); err != nil {
			return err
		}
	}
	return nil
}
