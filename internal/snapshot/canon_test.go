package snapshot

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
	"time"
)

type canonInner struct {
	Name  string
	Marks [3]int16
}

type canonOuter struct {
	Inner   canonInner
	Items   []canonInner
	Grid    [][]float64
	Index   map[string]uint32
	Ptr     *canonInner
	When    time.Time // a GobEncoder: described by GobEncoderT
	Payload []byte
	Anon    struct{ X, Y int8 }
}

// TestCanonicalGobRoundTrip checks that a canonical payload decodes to the
// value encoded, numbers its user types from 64, and is a fixed point of
// canonicalization.
func TestCanonicalGobRoundTrip(t *testing.T) {
	want := canonOuter{
		Inner: canonInner{Name: "a", Marks: [3]int16{1, -2, 3}},
		Items: []canonInner{{Name: "b"}, {Marks: [3]int16{0, 0, 9}}},
		Grid:  [][]float64{{1.5}, {2, 3}},
		Index: map[string]uint32{"only": 7},
		Ptr:   &canonInner{Name: "p"},
		When:  time.Unix(1234567890, 5).UTC(),
		// Long enough that the value message needs a multi-byte length.
		Payload: bytes.Repeat([]byte{0xab}, 300),
		Anon:    struct{ X, Y int8 }{X: -1},
	}
	payload, err := EncodeGob(want)
	if err != nil {
		t.Fatal(err)
	}
	var got canonOuter
	if err := DecodeGob(payload, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
	again, err := canonicalGob(append([]byte(nil), payload...))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, payload) {
		t.Fatal("canonicalizing a canonical payload changed it")
	}
	// The first message describes the top-level type: length, then -64.
	c := gobCanon{in: payload}
	c.uint()
	if id := decodeInt(c.uint()); id != -gobFirstUserID {
		t.Fatalf("first type descriptor has id %d, want %d", id, -gobFirstUserID)
	}
}

// TestCanonicalGobRejectsTruncation checks that every cut of a stream is
// reported as malformed, not passed through.
func TestCanonicalGobRejectsTruncation(t *testing.T) {
	var raw bytes.Buffer
	if err := gob.NewEncoder(&raw).Encode(canonOuter{Items: []canonInner{{Name: "x"}}}); err != nil {
		t.Fatal(err)
	}
	b := raw.Bytes()
	for cut := 0; cut < len(b); cut++ {
		if _, err := canonicalGob(append([]byte(nil), b[:cut]...)); err == nil {
			t.Fatalf("stream cut at byte %d of %d accepted", cut, len(b))
		}
	}
	if _, err := canonicalGob(b); err != nil {
		t.Fatal(err)
	}
}
