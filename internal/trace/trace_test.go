package trace

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// collect drains a reader, copying packet payloads (Data aliases the
// reader's buffer).
func collect(t *testing.T, r *Reader) []Packet {
	t.Helper()
	var out []Packet
	for {
		p, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		p.Data = append([]byte(nil), p.Data...)
		out = append(out, p)
	}
}

func testPackets() [][]byte {
	return [][]byte{
		[]byte("alpha"),
		[]byte("beta-beta"),
		{},
		bytes.Repeat([]byte{0xAB}, 1500),
	}
}

func TestPcapRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewPcapWriter(&buf, LinkTypeRadiotap)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range testPackets() {
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, r)
	want := testPackets()
	if len(got) != len(want) {
		t.Fatalf("got %d packets, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].LinkType != LinkTypeRadiotap {
			t.Errorf("packet %d: link type %d", i, got[i].LinkType)
		}
		if !bytes.Equal(got[i].Data, want[i]) {
			t.Errorf("packet %d: data mismatch", i)
		}
	}
}

func TestPcapNGRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewPcapNGWriter(&buf, LinkTypeEthernet)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range testPackets() {
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, r)
	want := testPackets()
	if len(got) != len(want) {
		t.Fatalf("got %d packets, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].LinkType != LinkTypeEthernet {
			t.Errorf("packet %d: link type %d", i, got[i].LinkType)
		}
		if !bytes.Equal(got[i].Data, want[i]) {
			t.Errorf("packet %d: data mismatch", i)
		}
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("not a capture file"))); !errors.Is(err, ErrFormat) {
		t.Fatalf("got %v, want ErrFormat", err)
	}
	if _, err := NewReader(bytes.NewReader(nil)); !errors.Is(err, ErrTruncatedCapture) {
		t.Fatalf("empty input: got %v, want ErrTruncatedCapture", err)
	}
}

// TestTruncatedFinalPacket pins the "interrupted capture" behavior for
// both containers: every whole packet is delivered, then the cut-off
// record surfaces as ErrTruncatedCapture rather than a silent EOF.
func TestTruncatedFinalPacket(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(w io.Writer) PacketWriter
	}{
		{"pcap", func(w io.Writer) PacketWriter {
			pw, err := NewPcapWriter(w, LinkTypeRawIP)
			if err != nil {
				t.Fatal(err)
			}
			return pw
		}},
		{"pcapng", func(w io.Writer) PacketWriter {
			pw, err := NewPcapNGWriter(w, LinkTypeRawIP)
			if err != nil {
				t.Fatal(err)
			}
			return pw
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			w := tc.write(&buf)
			if err := w.WritePacket([]byte("first packet")); err != nil {
				t.Fatal(err)
			}
			if err := w.WritePacket([]byte("second packet, soon cut off")); err != nil {
				t.Fatal(err)
			}
			cut := buf.Bytes()[:buf.Len()-5]
			r, err := NewReader(bytes.NewReader(cut))
			if err != nil {
				t.Fatal(err)
			}
			p, err := r.Next()
			if err != nil {
				t.Fatalf("first packet: %v", err)
			}
			if !bytes.Equal(p.Data, []byte("first packet")) {
				t.Fatalf("first packet corrupted: %q", p.Data)
			}
			if _, err := r.Next(); !errors.Is(err, ErrTruncatedCapture) {
				t.Fatalf("truncated packet: got %v, want ErrTruncatedCapture", err)
			}
		})
	}
}

func TestPcapCorruptLengthRejected(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewPcapWriter(&buf, LinkTypeRawIP)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WritePacket([]byte("x")); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// incl_len lives at offset 24+8; blow it past the sanity cap.
	b[24+8], b[24+9], b[24+10], b[24+11] = 0xFF, 0xFF, 0xFF, 0x7F
	r, err := NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

func TestFrameWriterParseRoundTrip(t *testing.T) {
	ta := [6]byte{2, 0, 0, 0, 0, 0xAA}
	da := [6]byte{2, 0, 0, 0, 0, 0xBB}
	sa := [6]byte{2, 0, 0, 0, 0, 0xCC}
	body := []byte("encrypted-msdu-mic-icv")
	for _, link := range []uint32{LinkTypeRadiotap, LinkTypeIEEE80211} {
		var buf bytes.Buffer
		pw, err := NewPcapWriter(&buf, link)
		if err != nil {
			t.Fatal(err)
		}
		fw, err := NewFrameWriter(pw, link, ta, da, sa)
		if err != nil {
			t.Fatal(err)
		}
		const tsc = 0x0000BEEF00AB
		if err := fw.WriteFrame(tsc, body); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		pkt, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		frame := pkt.Data
		if link == LinkTypeRadiotap {
			var fcs bool
			frame, fcs, err = SplitRadiotap(frame)
			if err != nil {
				t.Fatal(err)
			}
			if fcs {
				t.Fatal("minimal radiotap header claims an FCS")
			}
		}
		m, err := ParseMPDU(frame, false)
		if err != nil {
			t.Fatal(err)
		}
		if m.TSC != tsc {
			t.Errorf("TSC %#x, want %#x", m.TSC, tsc)
		}
		if m.Addr1 != da || m.Addr2 != ta || m.Addr3 != sa {
			t.Error("FromDS addressing did not round-trip")
		}
		if m.Retry || m.MoreFrag || m.FragNum != 0 {
			t.Error("clean frame parsed with retry/fragment state")
		}
		if !bytes.Equal(m.Body, body) {
			t.Errorf("body mismatch: %q", m.Body)
		}
	}
}

func TestFrameWriterRetryBit(t *testing.T) {
	var buf bytes.Buffer
	pw, err := NewPcapWriter(&buf, LinkTypeRadiotap)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := NewFrameWriter(pw, LinkTypeRadiotap, [6]byte{1}, [6]byte{2}, [6]byte{3})
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.WriteFrame(7, []byte("body")); err != nil {
		t.Fatal(err)
	}
	if err := fw.WriteRetry(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i, wantRetry := range []bool{false, true} {
		pkt, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		frame, _, err := SplitRadiotap(pkt.Data)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ParseMPDU(frame, false)
		if err != nil {
			t.Fatal(err)
		}
		if m.Retry != wantRetry {
			t.Errorf("frame %d: retry=%v, want %v", i, m.Retry, wantRetry)
		}
		if m.TSC != 7 {
			t.Errorf("frame %d: TSC %d", i, m.TSC)
		}
	}
}

func TestParseMPDUClassification(t *testing.T) {
	// A beacon (management frame).
	mgmt := make([]byte, 24)
	mgmt[0] = 0x80
	if _, err := ParseMPDU(mgmt, false); !errors.Is(err, ErrNotDataFrame) {
		t.Errorf("beacon: got %v, want ErrNotDataFrame", err)
	}
	// Cleartext data.
	clear := make([]byte, 40)
	clear[0] = 0x08
	if _, err := ParseMPDU(clear, false); !errors.Is(err, ErrNotProtected) {
		t.Errorf("cleartext: got %v, want ErrNotProtected", err)
	}
	// CCMP: ExtIV set but no TKIP WEP-seed structure.
	ccmp := make([]byte, 40)
	ccmp[0], ccmp[1] = 0x08, 0x40
	ccmp[24+3] = 0x20
	ccmp[24+0], ccmp[24+1] = 0x55, 0x00 // seed byte inconsistent with TKIP
	if _, err := ParseMPDU(ccmp, false); !errors.Is(err, ErrNotTKIP) {
		t.Errorf("ccmp: got %v, want ErrNotTKIP", err)
	}
	// Truncated mid-header.
	if _, err := ParseMPDU(make([]byte, 10), false); !errors.Is(err, ErrShortFrame) {
		t.Errorf("short: got %v, want ErrShortFrame", err)
	}
}

func TestSplitRadiotapFCSFlag(t *testing.T) {
	// Radiotap header with TSFT (bit 0) and flags (bit 1) present:
	// len = 4 + 4 (present) + 8 (TSFT, aligned) + 1 (flags) + 3 pad = 20.
	hdr := make([]byte, 20)
	hdr[2] = 20
	hdr[4] = 0x03 // TSFT | flags
	hdr[16] = 0x10
	frame := append(hdr, []byte("80211-frame-bytes-plusFCS!")...)
	got, fcs, err := SplitRadiotap(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !fcs {
		t.Fatal("FCS flag not decoded")
	}
	if !bytes.Equal(got, []byte("80211-frame-bytes-plusFCS!")) {
		t.Fatalf("frame split wrong: %q", got)
	}
	// FCS stripping happens in ParseMPDU.
	m := make([]byte, 44)
	m[0], m[1] = 0x08, 0x40
	m[24+0] = 0x00
	m[24+1] = 0x20
	m[24+3] = 0x20
	mp, err := ParseMPDU(append(m, 1, 2, 3, 4), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(mp.Body) != 44-24-8 {
		t.Fatalf("FCS not stripped: body %d bytes", len(mp.Body))
	}
}

// TestWriteFileIsAllOrNothing pins the capture writer's durability in
// both containers: a write that fails partway leaves nothing in the
// directory, not even its temporary file; a finished write leaves every
// packet; and a failed rewrite keeps the finished file intact.
func TestWriteFileIsAllOrNothing(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("boom")
	writeAll := func(pw PacketWriter) error {
		for _, p := range testPackets() {
			if err := pw.WritePacket(p); err != nil {
				return err
			}
		}
		return nil
	}
	for _, name := range []string{"c.pcap", "c.pcapng"} {
		path := filepath.Join(dir, name)
		failed := func(pw PacketWriter) error {
			if err := writeAll(pw); err != nil {
				return err
			}
			return boom
		}
		if err := WriteFile(path, LinkTypeEthernet, failed); !errors.Is(err, boom) {
			t.Fatalf("%s: failed write returned %v", name, err)
		}
		if left, _ := filepath.Glob(filepath.Join(dir, "*")); len(left) != 0 {
			t.Fatalf("%s: failed write left %v", name, left)
		}

		if err := WriteFile(path, LinkTypeEthernet, writeAll); err != nil {
			t.Fatal(err)
		}
		whole, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(bytes.NewReader(whole))
		if err != nil {
			t.Fatal(err)
		}
		got, want := collect(t, r), testPackets()
		if len(got) != len(want) {
			t.Fatalf("%s: %d packets, want %d", name, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i].Data, want[i]) {
				t.Fatalf("%s: packet %d differs", name, i)
			}
		}

		if err := WriteFile(path, LinkTypeEthernet, failed); !errors.Is(err, boom) {
			t.Fatalf("%s: failed rewrite returned %v", name, err)
		}
		if again, err := os.ReadFile(path); err != nil || !bytes.Equal(again, whole) {
			t.Fatalf("%s: failed rewrite changed the finished file (err %v)", name, err)
		}
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}
}
