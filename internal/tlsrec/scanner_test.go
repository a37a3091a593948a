package tlsrec

import (
	"bytes"
	"testing"
)

func sealedStream(t *testing.T, payloads ...[]byte) ([]byte, [][]byte) {
	t.Helper()
	var kb KeyBlock
	kb.Key[0] = 9
	conn := NewConn(kb)
	var stream []byte
	var bodies [][]byte
	for _, p := range payloads {
		rec := conn.Seal(p)
		stream = append(stream, rec...)
		bodies = append(bodies, append([]byte{}, rec[HeaderSize:]...))
	}
	return stream, bodies
}

func TestScannerWholeStream(t *testing.T) {
	stream, want := sealedStream(t, []byte("first"), []byte("second record"), []byte("third"))
	var s Scanner
	var got [][]byte
	if err := s.Feed(stream, func(b []byte) {
		got = append(got, append([]byte{}, b...))
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || s.Records != 3 {
		t.Fatalf("delivered %d records", len(got))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestScannerByteAtATime(t *testing.T) {
	// Records must survive arbitrary fragmentation (TCP segment boundaries
	// are not record boundaries).
	stream, want := sealedStream(t, []byte("fragmented delivery"), []byte("x"))
	var s Scanner
	var got [][]byte
	for i := range stream {
		if err := s.Feed(stream[i:i+1], func(b []byte) {
			got = append(got, append([]byte{}, b...))
		}); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != 2 {
		t.Fatalf("delivered %d records", len(got))
	}
	if !bytes.Equal(got[0], want[0]) || !bytes.Equal(got[1], want[1]) {
		t.Fatal("fragmented records corrupted")
	}
}

func TestScannerSkipsNonApplicationData(t *testing.T) {
	// A handshake record interleaved in the stream is skipped, not
	// delivered.
	hs := []byte{22, 0x03, 0x03, 0x00, 0x04, 1, 2, 3, 4}
	stream, _ := sealedStream(t, []byte("app data"))
	full := append(append([]byte{}, hs...), stream...)
	var s Scanner
	var delivered int
	if err := s.Feed(full, func([]byte) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 || s.Skipped != 1 {
		t.Fatalf("delivered=%d skipped=%d", delivered, s.Skipped)
	}
}

func TestScannerDesyncDetection(t *testing.T) {
	var s Scanner
	bogus := []byte{23, 0x03, 0x03, 0xff, 0xff} // length 65535 > max
	if err := s.Feed(bogus, func([]byte) {}); err != ErrRecordTooLarge {
		t.Fatalf("err = %v, want ErrRecordTooLarge", err)
	}
}

func TestCollectRequestsFiltersBySize(t *testing.T) {
	req := bytes.Repeat([]byte{'r'}, 100)
	resp := bytes.Repeat([]byte{'s'}, 40)
	stream, bodies := sealedStream(t, req, resp, req, req)
	want := len(bodies[0])
	c := &CollectRequests{WantLen: want}
	var got int
	if err := c.Feed(stream, func(b []byte) {
		if len(b) != want {
			t.Fatal("wrong-size body delivered")
		}
		got++
	}); err != nil {
		t.Fatal(err)
	}
	if got != 3 || c.Matched != 3 || c.Other != 1 {
		t.Fatalf("matched=%d other=%d", c.Matched, c.Other)
	}
}

func TestScannerFeedsCookieAttack(t *testing.T) {
	// Integration with the §6 pipeline: scanner-extracted record bodies
	// line up with what ObserveRecord expects (the encrypted request at
	// fixed offsets).
	var kb KeyBlock
	kb.Key[3] = 7
	send := NewConn(kb)
	ref := NewConn(kb)
	payload := bytes.Repeat([]byte{'p'}, 200)
	stream := append([]byte{}, send.Seal(payload)...)
	stream = append(stream, send.Seal(payload)...)

	c := &CollectRequests{WantLen: len(payload) + MACSize}
	var observed [][]byte
	if err := c.Feed(stream, func(b []byte) {
		observed = append(observed, append([]byte{}, b...))
	}); err != nil {
		t.Fatal(err)
	}
	if len(observed) != 2 {
		t.Fatalf("got %d records", len(observed))
	}
	// The reference connection reproduces the same ciphertext stream, so
	// the scanner's bodies must decrypt to the original payload.
	for i, body := range observed {
		rec := make([]byte, HeaderSize+len(body))
		rec[0] = TypeApplicationData
		rec[1], rec[2] = 0x03, 0x03
		rec[3] = byte(len(body) >> 8)
		rec[4] = byte(len(body))
		copy(rec[HeaderSize:], body)
		got, err := ref.Open(rec)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("record %d: decrypted payload differs", i)
		}
	}
}

func TestScannerLargeChunkMatchesFragmentedDelivery(t *testing.T) {
	// Regression for the per-record compaction bug: one Feed carrying many
	// records must deliver exactly what fragmented feeding delivers, in the
	// same order, with identical counters.
	payloads := make([][]byte, 200)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte(i)}, 100+i%7)
	}
	stream, want := sealedStream(t, payloads...)
	// Interleave a couple of non-application records mid-stream.
	hs := []byte{22, 0x03, 0x03, 0x00, 0x02, 9, 9}
	full := append(append(append([]byte{}, hs...), stream...), hs...)

	var batch Scanner
	var batchGot [][]byte
	if err := batch.Feed(full, func(b []byte) {
		batchGot = append(batchGot, append([]byte{}, b...))
	}); err != nil {
		t.Fatal(err)
	}

	var frag Scanner
	var fragGot [][]byte
	for off := 0; off < len(full); off += 13 {
		end := off + 13
		if end > len(full) {
			end = len(full)
		}
		if err := frag.Feed(full[off:end], func(b []byte) {
			fragGot = append(fragGot, append([]byte{}, b...))
		}); err != nil {
			t.Fatal(err)
		}
	}

	if len(batchGot) != len(want) || len(fragGot) != len(want) {
		t.Fatalf("delivered batch=%d frag=%d want=%d", len(batchGot), len(fragGot), len(want))
	}
	for i := range want {
		if !bytes.Equal(batchGot[i], want[i]) || !bytes.Equal(fragGot[i], want[i]) {
			t.Fatalf("record %d differs between delivery modes", i)
		}
	}
	if batch.Records != frag.Records || batch.Skipped != frag.Skipped || batch.Skipped != 2 {
		t.Fatalf("counters differ: batch=(%d,%d) frag=(%d,%d)",
			batch.Records, batch.Skipped, frag.Records, frag.Skipped)
	}
	if len(batch.buf) != 0 || len(frag.buf) != 0 {
		t.Fatal("buffer not drained after complete records")
	}
}

func TestScannerDesyncRecovery(t *testing.T) {
	// After ErrRecordTooLarge the poisoned buffer is dropped: earlier
	// records stay delivered and counted, subsequent Feeds do not re-fail
	// on stale bytes, and a fresh record parses cleanly.
	good, want := sealedStream(t, []byte("before desync"))
	bogus := []byte{23, 0x03, 0x03, 0xff, 0xff, 1, 2, 3} // length 65535 > max

	var s Scanner
	var got [][]byte
	deliver := func(b []byte) { got = append(got, append([]byte{}, b...)) }
	if err := s.Feed(append(append([]byte{}, good...), bogus...), deliver); err != ErrRecordTooLarge {
		t.Fatalf("err = %v, want ErrRecordTooLarge", err)
	}
	if len(got) != 1 || !bytes.Equal(got[0], want[0]) || s.Records != 1 {
		t.Fatalf("pre-desync record lost: delivered=%d records=%d", len(got), s.Records)
	}

	// The next Feed starts from a clean buffer: a fresh, valid record is
	// delivered without error instead of re-failing on the stale header.
	good2, want2 := sealedStream(t, []byte("after desync"))
	if err := s.Feed(good2, deliver); err != nil {
		t.Fatalf("feed after desync: %v", err)
	}
	if len(got) != 2 || !bytes.Equal(got[1], want2[0]) || s.Records != 2 {
		t.Fatalf("post-desync record not delivered: delivered=%d records=%d", len(got), s.Records)
	}
}

func TestScannerZeroCopyAliasing(t *testing.T) {
	// The scanner's performance contract: a record wholly contained in one
	// Feed chunk is delivered as a view into that chunk — no copy. The
	// aliasing is observable, so it is pinned, not just hoped for.
	stream, want := sealedStream(t, []byte("aliased body"), []byte("second"))
	var s Scanner
	var views [][]byte
	if err := s.Feed(stream, func(b []byte) { views = append(views, b) }); err != nil {
		t.Fatal(err)
	}
	if len(views) != 2 {
		t.Fatalf("delivered %d records", len(views))
	}
	if &views[0][0] != &stream[HeaderSize] {
		t.Fatal("first record body was copied instead of aliased into the fed chunk")
	}
	second := HeaderSize + len(want[0]) + HeaderSize
	if &views[1][0] != &stream[second] {
		t.Fatal("second record body was copied instead of aliased into the fed chunk")
	}
}

func TestScannerViewValidUntilNextFeed(t *testing.T) {
	// The validity contract: a delivered view — including one assembled in
	// the scanner's own buffer from a split record — holds its bytes until
	// the next Feed/FeedBatch call, even though that next call may stash a
	// new partial record. The double-buffer swap inside scan is what makes
	// this true; this test is the regression pin for it.
	stream, want := sealedStream(t, []byte("split across feeds"), []byte("next partial"))
	split := HeaderSize + 5 // mid-body of record 0
	firstEnd := HeaderSize + len(want[0])

	var s Scanner
	var view []byte
	deliver := func(b []byte) { view = b }
	if err := s.Feed(stream[:split], deliver); err != nil {
		t.Fatal(err)
	}
	if view != nil {
		t.Fatal("partial record delivered early")
	}
	// This call completes record 0 in the scanner's buffer, delivers it,
	// and stashes the partial record 1 — which must not land on top of the
	// just-delivered view.
	if err := s.Feed(stream[split:firstEnd+HeaderSize+3], deliver); err != nil {
		t.Fatal(err)
	}
	if view == nil {
		t.Fatal("completed record not delivered")
	}
	if !bytes.Equal(view, want[0]) {
		t.Fatal("delivered view corrupted by the same call's tail stash")
	}
	// The next Feed completes the stashed record in the swapped-in buffer;
	// it too must deliver intact, proving the swap cycle is stable.
	if err := s.Feed(stream[firstEnd+HeaderSize+3:], deliver); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(view, want[1]) {
		t.Fatal("second record not delivered intact after the buffer swap")
	}
}

func TestCollectRequestsFeedBatchMatchesFeed(t *testing.T) {
	// FeedBatch is the batched face of CollectRequests: same records, same
	// counters, delivered as one slice of views per fed chunk.
	req := bytes.Repeat([]byte{'r'}, 100)
	resp := bytes.Repeat([]byte{'s'}, 40)
	stream, bodies := sealedStream(t, req, resp, req, resp, req)
	want := len(bodies[0])

	scalar := &CollectRequests{WantLen: want}
	var fromFeed [][]byte
	if err := scalar.Feed(stream, func(b []byte) {
		fromFeed = append(fromFeed, append([]byte{}, b...))
	}); err != nil {
		t.Fatal(err)
	}

	batched := &CollectRequests{WantLen: want}
	var fromBatch [][]byte
	var calls int
	if err := batched.FeedBatch(stream, func(views [][]byte) {
		calls++
		for _, b := range views {
			fromBatch = append(fromBatch, append([]byte{}, b...))
		}
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("one chunk of whole records delivered in %d calls, want 1", calls)
	}
	if len(fromBatch) != len(fromFeed) {
		t.Fatalf("FeedBatch delivered %d records, Feed delivered %d", len(fromBatch), len(fromFeed))
	}
	for i := range fromFeed {
		if !bytes.Equal(fromBatch[i], fromFeed[i]) {
			t.Fatalf("record %d differs between Feed and FeedBatch", i)
		}
	}
	if batched.Matched != scalar.Matched || batched.Other != scalar.Other {
		t.Fatalf("counters differ: batch=(%d,%d) scalar=(%d,%d)",
			batched.Matched, batched.Other, scalar.Matched, scalar.Other)
	}
}

func BenchmarkScannerFeedLargeChunk(b *testing.B) {
	// One Feed call carrying many complete records — the §6.3 collection
	// shape when a capture tool hands the scanner whole TCP segments.
	var kb KeyBlock
	kb.Key[0] = 9
	conn := NewConn(kb)
	var stream []byte
	const records = 1024
	body := bytes.Repeat([]byte{'r'}, 512)
	for i := 0; i < records; i++ {
		stream = append(stream, conn.Seal(body)...)
	}
	b.SetBytes(int64(len(stream)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var s Scanner
		if err := s.Feed(stream, func([]byte) {}); err != nil {
			b.Fatal(err)
		}
	}
}
