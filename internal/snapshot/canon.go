package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/bits"
)

// encoding/gob numbers user types from a process-global counter in the
// order the process first meets them, and writes those numbers into every
// stream. It also names an unnamed type (a slice, array, map or struct
// literal type) by its Go spelling when first met as a struct field, and
// leaves the name empty when first met anywhere else. Two encodes of one
// value therefore differ byte for byte when the processes encoded other
// types first — one process writes a TKIP checkpoint before its first
// cookie checkpoint, another the reverse. The canonicalizer below
// renumbers a stream's user types by first appearance and drops the names
// of unnamed types, so an envelope payload is a pure function of its
// value. gob decoders accept any numbering that is consistent within the
// stream and use type names only in error messages, so canonical payloads
// decode exactly like the original ones.

// gobFirstUserID is encoding/gob's lowest user type ID; lower IDs are its
// builtin types, which are the same in every process.
const gobFirstUserID = 64

// wireField describes one field of gob's wire-type descriptor structs
// (wireType, CommonType, arrayType, sliceType, structType, fieldType,
// mapType, gobEncoderType), in field-number order.
type wireField struct {
	kind byte // 's' string, 'n' type name, 'u' plain integer, 'd' type ID, 'r' struct, 'l' slice of structs
	sub  []wireField
}

var (
	wireCommonType = []wireField{{kind: 'n'}, {kind: 'd'}}              // Name, Id
	wireFieldType  = []wireField{{kind: 's'}, {kind: 'd'}}              // Name, Id
	wireCommon     = wireField{kind: 'r', sub: wireCommonType}          // embedded CommonType
	wireEncoderT   = wireField{kind: 'r', sub: []wireField{wireCommon}} // gobEncoderType
	wireTypeFields = []wireField{
		{kind: 'r', sub: []wireField{wireCommon, {kind: 'd'}, {kind: 'u'}}},        // ArrayT: Elem, Len
		{kind: 'r', sub: []wireField{wireCommon, {kind: 'd'}}},                     // SliceT: Elem
		{kind: 'r', sub: []wireField{wireCommon, {kind: 'l', sub: wireFieldType}}}, // StructT: Field
		{kind: 'r', sub: []wireField{wireCommon, {kind: 'd'}, {kind: 'd'}}},        // MapT: Key, Elem
		wireEncoderT, wireEncoderT, wireEncoderT, // GobEncoderT, BinaryMarshalerT, TextMarshalerT
	}
)

var errGobStream = errors.New("snapshot: malformed gob stream")

// canonicalGob rewrites the gob stream of one Encoder.Encode call with its
// user type IDs renumbered 64, 65, … in order of first appearance and the
// names of unnamed types dropped. Type descriptors are re-encoded; the
// value message keeps its body and gets the new ID in its header. The
// canonical head is written over the old one, just before the body, so the
// body is not copied. Values must not hold interface fields, whose
// encoding embeds type IDs inside the value (no snapshot schema has one).
func canonicalGob(stream []byte) ([]byte, error) {
	c := gobCanon{ids: make(map[int64]int64)}
	var head []byte
	for rest := stream; ; {
		c.in = rest
		n := c.uint()
		if c.err != nil || n > uint64(len(c.in)) {
			return nil, errGobStream
		}
		c.in, rest = c.in[:n], c.in[n:]
		id := decodeInt(c.uint())
		if c.err != nil {
			return nil, errGobStream
		}
		if id < 0 { // type descriptor: (-id, wireType)
			desc := c.copyStruct(appendInt(nil, -c.id(-id)), wireTypeFields)
			if c.err != nil || len(c.in) != 0 {
				return nil, errGobStream
			}
			head = append(appendUint(head, uint64(len(desc))), desc...)
			continue
		}
		if len(rest) != 0 { // the value message ends the stream
			return nil, errGobStream
		}
		hdr := appendInt(nil, c.id(id))
		head = append(appendUint(head, uint64(len(hdr)+len(c.in))), hdr...)
		break
	}
	// Canonical IDs and names are never longer than the originals unless
	// a stream holds thousands of types, so the head fits in place.
	if start := len(stream) - len(c.in) - len(head); start >= 0 {
		copy(stream[start:], head)
		return stream[start:], nil
	}
	return append(head, c.in...), nil
}

// gobCanon reads one gob message and maps the type IDs it meets.
type gobCanon struct {
	in  []byte
	ids map[int64]int64
	err error
}

// id maps a stream type ID to its canonical number.
func (c *gobCanon) id(id int64) int64 {
	if id < gobFirstUserID {
		return id
	}
	if m, ok := c.ids[id]; ok {
		return m
	}
	m := gobFirstUserID + int64(len(c.ids))
	c.ids[id] = m
	return m
}

// uint reads one gob unsigned integer: a byte below 0x80 is the value;
// otherwise it is the negated count of big-endian bytes that follow.
func (c *gobCanon) uint() uint64 {
	if c.err != nil || len(c.in) == 0 {
		c.err = errGobStream
		return 0
	}
	b := c.in[0]
	if b < 0x80 {
		c.in = c.in[1:]
		return uint64(b)
	}
	n := -int(int8(b))
	if n > 8 || len(c.in) < 1+n {
		c.err = errGobStream
		return 0
	}
	var x uint64
	for _, v := range c.in[1 : 1+n] {
		x = x<<8 | uint64(v)
	}
	c.in = c.in[1+n:]
	return x
}

// copyStruct copies one gob struct (field-number deltas, each followed by
// the field's value, ended by a zero delta) from the input to dst. A
// dropped type name leaves its field out, as gob does for an empty string.
func (c *gobCanon) copyStruct(dst []byte, fields []wireField) []byte {
	field, last := -1, -1
	for c.err == nil {
		delta := c.uint()
		if delta == 0 {
			break
		}
		if delta > uint64(len(fields)) || field+int(delta) >= len(fields) {
			c.err = errGobStream
			break
		}
		field += int(delta)
		f := fields[field]
		if f.kind == 'n' || f.kind == 's' {
			str := c.str()
			if f.kind == 'n' && unnamedType(str) {
				continue
			}
			dst = appendUint(dst, uint64(field-last))
			dst = append(appendUint(dst, uint64(len(str))), str...)
		} else {
			dst = appendUint(dst, uint64(field-last))
			dst = c.copyValue(dst, f)
		}
		last = field
	}
	return appendUint(dst, 0)
}

func (c *gobCanon) copyValue(dst []byte, f wireField) []byte {
	switch f.kind {
	case 'u':
		dst = appendUint(dst, c.uint())
	case 'd':
		dst = appendInt(dst, c.id(decodeInt(c.uint())))
	case 'r':
		dst = c.copyStruct(dst, f.sub)
	case 'l':
		n := c.uint()
		dst = appendUint(dst, n)
		for i := uint64(0); i < n && c.err == nil; i++ {
			dst = c.copyStruct(dst, f.sub)
		}
	}
	return dst
}

// str reads one gob string: a length, then the bytes.
func (c *gobCanon) str() []byte {
	n := c.uint()
	if c.err != nil || n > uint64(len(c.in)) {
		c.err = errGobStream
		return nil
	}
	s := c.in[:n]
	c.in = c.in[n:]
	return s
}

// unnamedType reports whether a gob type name is the Go spelling of an
// unnamed type; a named type's name is an identifier.
func unnamedType(name []byte) bool {
	return bytes.HasPrefix(name, []byte("[")) || bytes.HasPrefix(name, []byte("map[")) ||
		bytes.HasPrefix(name, []byte("struct {"))
}

// appendUint appends x in gob's unsigned integer encoding.
func appendUint(b []byte, x uint64) []byte {
	if x < 0x80 {
		return append(b, byte(x))
	}
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], x)
	skip := bits.LeadingZeros64(x) / 8
	return append(append(b, byte(skip-8)), buf[skip:]...)
}

// appendInt appends i in gob's signed encoding: the sign moves to bit 0,
// and negative values are complemented.
func appendInt(b []byte, i int64) []byte {
	if i < 0 {
		return appendUint(b, uint64(^i)<<1|1)
	}
	return appendUint(b, uint64(i)<<1)
}

func decodeInt(u uint64) int64 {
	if u&1 != 0 {
		return ^int64(u >> 1)
	}
	return int64(u >> 1)
}
