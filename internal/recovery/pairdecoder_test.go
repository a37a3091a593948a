package recovery

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"rc4break/internal/httpmodel"
)

// sameCandidates reports the first difference between two candidate lists
// — plaintext, score bits or order — or "" when they are bitwise equal.
func sameCandidates(got, want []Candidate) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d candidates vs %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].Plaintext, want[i].Plaintext) || got[i].Score != want[i].Score {
			return fmt.Sprintf("candidate %d: %q %v vs %q %v", i,
				got[i].Plaintext, got[i].Score, want[i].Plaintext, want[i].Score)
		}
	}
	return ""
}

// intChain builds a chain whose cells take a handful of integer values, so
// equal scores — and the heap's tie order — are everywhere.
func intChain(rng *rand.Rand, links int) []*PairLikelihoods {
	lks := make([]*PairLikelihoods, links)
	for i := range lks {
		lks[i] = new(PairLikelihoods)
		for j := range lks[i] {
			lks[i][j] = float64(rng.Intn(4))
		}
	}
	return lks
}

// checkAgainstEager decodes with a fresh lazy decoder, the reused lazy
// decoder d, and the eager reference, and fails unless all three agree
// bitwise.
func checkAgainstEager(t *testing.T, label string, d *PairDecoder, lks []*PairLikelihoods, m1, mL byte, n int, charset []byte) {
	t.Helper()
	want, err := (&eagerDecoder{Workers: 2}).Decode(lks, m1, mL, n, charset)
	if err != nil {
		t.Fatalf("%s: eager: %v", label, err)
	}
	fresh, err := DoubleByteCandidates(lks, m1, mL, n, charset)
	if err != nil {
		t.Fatalf("%s: lazy: %v", label, err)
	}
	if diff := sameCandidates(fresh, want); diff != "" {
		t.Fatalf("%s: fresh lazy decoder vs eager: %s", label, diff)
	}
	reused, err := d.Decode(lks, m1, mL, n, charset)
	if err != nil {
		t.Fatalf("%s: reused lazy: %v", label, err)
	}
	if diff := sameCandidates(reused, want); diff != "" {
		t.Fatalf("%s: reused lazy decoder vs eager: %s", label, diff)
	}
}

// TestPairDecoderMatchesEager pins the lazy list-Viterbi bitwise against
// the eager reference it replaced — plaintexts, float scores and order,
// ties included — over random chains of 2–17 links with Gaussian and
// integer-valued tables, random charsets (with duplicates, nil, and mL or
// m1 outside the set) and depths from 1 past the candidate space. One
// decoder is reused across every shape.
func TestPairDecoderMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(2016))
	var d PairDecoder
	cookie := httpmodel.CookieCharset()
	for trial := 0; trial < 60; trial++ {
		links := 2 + rng.Intn(16)
		var lks []*PairLikelihoods
		if trial%2 == 0 {
			lks = randomChain(rng, links)
		} else {
			lks = intChain(rng, links)
		}
		var charset []byte
		switch trial % 5 {
		case 0:
			charset = cookie
		case 1:
			charset = nil
		case 2: // small set with duplicates
			for i := 0; i < 2+rng.Intn(8); i++ {
				charset = append(charset, byte('a'+rng.Intn(6)))
			}
		default:
			for i := 0; i < 1+rng.Intn(40); i++ {
				charset = append(charset, byte(rng.Intn(256)))
			}
		}
		m1, mL := byte(rng.Intn(256)), byte(rng.Intn(256))
		n := []int{1, 2, 7, 64, 300}[rng.Intn(5)]
		checkAgainstEager(t, "random", &d, lks, m1, mL, n, charset)
	}
}

// TestPairDecoderEdgeShapes covers the shapes the random sweep may miss:
// n = 1, n past the candidate space (3 values over 2 unknown bytes is 9
// candidates), mL outside the charset, a duplicated charset, the full
// 256-value alphabet, and one decoder reused across all of them.
func TestPairDecoderEdgeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var d PairDecoder
	long := intChain(rng, 17)
	short := randomChain(rng, 3)
	cases := []struct {
		label   string
		lks     []*PairLikelihoods
		m1, mL  byte
		n       int
		charset []byte
	}{
		{"n=1", long, 'a', 'b', 1, []byte("abcdef")},
		{"n past space", short, 'x', 'y', 20, []byte("xyz")},
		{"mL outside charset", long, '=', ';', 100, []byte("abc0123")},
		{"duplicates", short, 'q', 'r', 50, []byte("qqrrsqtr")},
		{"nil charset", long, 0, 255, 40, nil},
		{"one link past minimum", long[:2], 'a', 'a', 1000, []byte("abc")},
		{"cookie charset", long, '=', ';', 1 << 10, httpmodel.CookieCharset()},
		{"n=1 again", long, 'a', 'b', 1, []byte("abcdef")},
	}
	for _, c := range cases {
		checkAgainstEager(t, c.label, &d, c.lks, c.m1, c.mL, c.n, c.charset)
	}
}

// FuzzPairDecoder drives the lazy decoder and the eager reference with
// small tables built from the input bytes: byte 0 picks the chain length,
// byte 1 the charset size, byte 2 the depth, bytes 3–4 the known ends, the
// next bytes the charset, and the rest fill the cells the decode reads
// with small integers (so ties are common).
func FuzzPairDecoder(f *testing.F) {
	f.Add([]byte("\x03\x04\x10ab" + "abcd" + "\x01\x02\x03\x00\x01"))
	f.Add([]byte("\x07\x02\xffzz" + "zy" + "\x00"))
	f.Add([]byte("\x00\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		links := 2 + int(data[0])%8
		csLen := 1 + int(data[1])%6
		n := 1 + int(data[2])%64
		m1, mL := data[3], data[4]
		rest := data[5:]
		if len(rest) < csLen {
			return
		}
		charset, cells := rest[:csLen], rest[csLen:]
		used := append([]byte{m1, mL}, charset...)
		lks := make([]*PairLikelihoods, links)
		k := 0
		for i := range lks {
			lks[i] = new(PairLikelihoods)
			for _, a := range used {
				for _, b := range used {
					if len(cells) > 0 {
						lks[i][int(a)*256+int(b)] = float64(cells[k%len(cells)] % 5)
						k++
					}
				}
			}
		}
		var d PairDecoder
		checkAgainstEager(t, "fuzz", &d, lks, m1, mL, n, charset)
		if links > 2 {
			lks = lks[:links-1]
		}
		checkAgainstEager(t, "fuzz reshaped", &d, lks, mL, m1, n+1, charset)
	})
}

// retained counts the entries a decoder holds: every node's list length
// plus its frontier heap's capacity.
func (d *PairDecoder) retained() int {
	total := 0
	for _, lv := range d.levels {
		for v := range lv {
			total += len(lv[v].list) + cap(lv[v].fh)
		}
	}
	return total
}

// TestPairDecoderRetainedMemory pins the lazy decode's memory model: a
// 17-link, n = 2^16 decode over the 90-value cookie charset retains at most
// L·(n + |cs|²) entries, where the eager tables held L·|cs|·n.
func TestPairDecoderRetainedMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	lks := randomChain(rng, 17)
	cs := httpmodel.CookieCharset()
	const n = 1 << 16
	var d PairDecoder
	cands, err := d.Decode(lks, '=', ';', n, cs)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != n {
		t.Fatalf("got %d candidates, want %d", len(cands), n)
	}
	L := len(lks) + 1
	bound := L * (n + len(cs)*len(cs))
	if got := d.retained(); got > bound {
		t.Fatalf("decoder retains %d entries, bound L·(n+|cs|²) = %d", got, bound)
	}
}
