package tlsrec

import (
	"encoding/binary"
	"errors"
)

// Scanner splits a raw TLS byte stream into records — the §6.3 collection
// tool's first stage ("this requires reassembling the TCP and TLS streams,
// and then detecting the 512-byte (encrypted) HTTP requests"). It tolerates
// records arriving fragmented across arbitrary read boundaries, skips
// non-application-data records (handshake, alerts, change-cipher-spec), and
// hands complete application-data record bodies to the caller.
type Scanner struct {
	// buf holds only the trailing partial record between Feed calls; spare
	// is the previous buf, kept so a record body delivered out of buf stays
	// valid while the next partial tail is stashed (the two arrays swap
	// roles, so a delivered view is never overwritten before the following
	// Feed call).
	buf   []byte
	spare []byte
	// batch is FeedBatch's view collector; it is scratch reused across
	// calls.
	batch [][]byte
	// Records and Skipped count application-data records delivered and
	// other record types passed over.
	Records uint64
	Skipped uint64
}

// ErrRecordTooLarge guards against desynchronized streams: TLS caps record
// payloads at 2^14 + 2048; anything larger means we lost framing. When Feed
// returns it, the scanner has discarded its entire buffer — the bytes after
// a bogus header are unframeable, and keeping them would make every
// subsequent Feed re-fail on the same stale data. Records delivered before
// the bad header stay delivered, and Records/Skipped keep counting them;
// the caller resynchronizes by feeding bytes from a fresh record boundary
// (typically after reopening the stream).
var ErrRecordTooLarge = errors.New("tlsrec: record length exceeds TLS maximum (stream desynchronized?)")

const maxRecordLen = 16384 + 2048

// Feed scans stream bytes and invokes deliver for every complete
// application-data record body (the encrypted payload ‖ MAC, without the
// 5-byte header) now available. Bodies are views, not copies: a record
// completed entirely within data is delivered as a slice of data itself,
// so bodies are only valid during the callback (the underlying packet or
// reassembly buffer is typically reused by the caller's next read).
//
// Zero-copy is what makes the scan free at line rate: only the trailing
// partial record is buffered between calls — at most one header plus
// maxRecordLen bytes — instead of every stream byte passing through an
// internal append+compact cycle.
func (s *Scanner) Feed(data []byte, deliver func(body []byte)) error {
	return s.scan(data, deliver)
}

// FeedBatch is Feed with batched delivery: all record bodies completed by
// this call are handed to deliver as one slice, in stream order. The views
// stay valid until the next Feed/FeedBatch call on this scanner — strictly
// longer than Feed's per-callback validity — because the scanner
// double-buffers its partial-record stash instead of overwriting the array
// a delivered body may alias. On ErrRecordTooLarge the records scanned
// before the bad header are still delivered (one deliver call, then the
// error).
func (s *Scanner) FeedBatch(data []byte, deliver func(bodies [][]byte)) error {
	s.batch = s.batch[:0]
	err := s.scan(data, func(body []byte) { s.batch = append(s.batch, body) })
	if len(s.batch) > 0 {
		deliver(s.batch)
	}
	return err
}

// scan is the shared zero-copy core: complete the buffered partial record
// first (byte-minimally), then walk whole records directly in data, then
// stash the new partial tail. The tail stash swaps buf and spare when a
// record was emitted out of buf this call, so that emitted view survives
// until the next scan.
func (s *Scanner) scan(data []byte, emit func(body []byte)) error {
	emittedFromBuf := false
	if len(s.buf) > 0 {
		if len(s.buf) < HeaderSize {
			take := min(HeaderSize-len(s.buf), len(data))
			s.buf = append(s.buf, data[:take]...)
			data = data[take:]
			if len(s.buf) < HeaderSize {
				return nil
			}
		}
		length := int(binary.BigEndian.Uint16(s.buf[3:5]))
		if length > maxRecordLen {
			// Drop the poisoned buffer: see ErrRecordTooLarge. The rest of
			// data is unframeable for the same reason and is dropped with it.
			s.buf = s.buf[:0]
			return ErrRecordTooLarge
		}
		total := HeaderSize + length
		take := min(total-len(s.buf), len(data))
		s.buf = append(s.buf, data[:take]...)
		data = data[take:]
		if len(s.buf) < total {
			return nil
		}
		if s.buf[0] == TypeApplicationData {
			s.Records++
			emit(s.buf[HeaderSize:total])
			emittedFromBuf = true
		} else {
			s.Skipped++
		}
	}
	off := 0
	for len(data)-off >= HeaderSize {
		length := int(binary.BigEndian.Uint16(data[off+3 : off+5]))
		if length > maxRecordLen {
			s.buf = s.buf[:0]
			return ErrRecordTooLarge
		}
		total := HeaderSize + length
		if len(data)-off < total {
			break
		}
		if data[off] == TypeApplicationData {
			s.Records++
			emit(data[off+HeaderSize : off+total])
		} else {
			s.Skipped++
		}
		off += total
	}
	if emittedFromBuf {
		// buf still backs the record emitted above; stash the tail in the
		// other array so the view stays valid until the next scan.
		s.buf, s.spare = s.spare, s.buf
	}
	s.buf = append(s.buf[:0], data[off:]...)
	return nil
}

// CollectRequests is the full §6.3 filter: it scans the stream and delivers
// only application-data records whose body length equals wantLen — the
// fixed-size encrypted HTTP requests the attack aligns. Other sizes
// (responses, pipelined odds and ends) are counted but dropped.
type CollectRequests struct {
	Scanner Scanner
	WantLen int
	// Matched and Other count fixed-size requests delivered and other
	// application-data records dropped.
	Matched uint64
	Other   uint64
}

// Feed forwards stream bytes, delivering only matching record bodies.
func (c *CollectRequests) Feed(data []byte, deliver func(body []byte)) error {
	return c.Scanner.Feed(data, func(body []byte) {
		if len(body) == c.WantLen {
			c.Matched++
			deliver(body)
			return
		}
		c.Other++
	})
}

// FeedBatch is Feed with batched delivery: the matching record bodies
// completed by this call arrive as one slice, in stream order, with the
// scanner's until-next-call view validity. The batch fold path uses this to
// hand the attack whole chunks of matched records at once.
func (c *CollectRequests) FeedBatch(data []byte, deliver func(bodies [][]byte)) error {
	return c.Scanner.FeedBatch(data, func(bodies [][]byte) {
		// Filter in place: bodies is the scanner's scratch, untouched until
		// its next call, so compacting it costs no allocation.
		n := 0
		for _, body := range bodies {
			if len(body) == c.WantLen {
				c.Matched++
				bodies[n] = body
				n++
			} else {
				c.Other++
			}
		}
		if n > 0 {
			deliver(bodies[:n])
		}
	})
}
