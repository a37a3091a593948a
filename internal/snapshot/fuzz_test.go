package snapshot

import (
	"bytes"
	"testing"
)

// FuzzRead hammers the envelope parser: arbitrary bytes must never panic
// or allocate past the input's actual size (the incremental payload copy),
// and any envelope it accepts, of either version, must re-encode to a
// parseable envelope.
func FuzzRead(f *testing.F) {
	var valid bytes.Buffer
	if err := Write(&valid, "rc4break.fuzz.v1", []byte("payload-bytes")); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(v1Envelope("rc4break.fuzz.v1", []byte("payload-bytes")))
	f.Add([]byte(Magic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, payload, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := Write(&out, kind, payload); err != nil {
			t.Fatalf("accepted envelope does not re-encode: %v", err)
		}
		kind2, payload2, err := Read(bytes.NewReader(out.Bytes()))
		if err != nil || kind2 != kind || !bytes.Equal(payload2, payload) {
			t.Fatalf("re-encoded envelope does not round-trip: %v", err)
		}
	})
}
