package snapshot_test

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"rc4break/internal/cookieattack"
	"rc4break/internal/httpmodel"
	"rc4break/internal/tkip"
)

// orderEnv selects the child role of TestSnapshotBytesIndependentOfEncodeOrder:
// "tkip-first" or "cookie-first".
const orderEnv = "RC4BREAK_SNAPSHOT_ORDER"

// encodeInOrder writes a TKIP model, a TKIP capture snapshot and a cookie
// evidence snapshot in the given order, returning the hex of the TKIP and
// cookie envelopes. It must be the first gob use of its process.
func encodeInOrder(order string) (tkipHex, cookieHex string, err error) {
	var tk, ck bytes.Buffer
	writeTKIP := func() error {
		model := tkip.SyntheticModel(2, 0.01, 5)
		if err := model.Save(&tk); err != nil {
			return err
		}
		a, err := tkip.NewAttack(model, []int{1, 2})
		if err != nil {
			return err
		}
		return a.WriteSnapshot(&tk)
	}
	writeCookie := func() error {
		pt := []byte("GET / HTTP/1.1\r\nCookie: auth=0123456789abcdef\r\n\r\n")
		a, err := cookieattack.New(cookieattack.Config{
			CookieLen: 16, Offset: 29, Plaintext: pt, MaxGap: 8,
			Charset: httpmodel.CookieCharset(),
		})
		if err != nil {
			return err
		}
		if err := a.ObserveRecord(bytes.Repeat([]byte{0x5a}, len(pt))); err != nil {
			return err
		}
		return a.WriteSnapshot(&ck)
	}
	steps := []func() error{writeTKIP, writeCookie}
	if order == "cookie-first" {
		steps[0], steps[1] = steps[1], steps[0]
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return "", "", err
		}
	}
	return hex.EncodeToString(tk.Bytes()), hex.EncodeToString(ck.Bytes()), nil
}

// TestSnapshotBytesIndependentOfEncodeOrder re-executes the test binary
// twice — one child encodes a TKIP snapshot before a cookie snapshot, the
// other the reverse — and requires byte-identical envelopes from both. gob
// numbers types per process in first-use order, so without canonical type
// IDs the two children disagree.
func TestSnapshotBytesIndependentOfEncodeOrder(t *testing.T) {
	if order := os.Getenv(orderEnv); order != "" {
		tk, ck, err := encodeInOrder(order)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Printf("tkip=%s\ncookie=%s\n", tk, ck)
		return
	}
	run := func(order string) (tk, ck string) {
		t.Helper()
		cmd := exec.Command(os.Args[0], "-test.run=^TestSnapshotBytesIndependentOfEncodeOrder$")
		cmd.Env = append(os.Environ(), orderEnv+"="+order)
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s child: %v\n%s", order, err, out)
		}
		for _, line := range strings.Split(string(out), "\n") {
			if v, ok := strings.CutPrefix(line, "tkip="); ok {
				tk = v
			}
			if v, ok := strings.CutPrefix(line, "cookie="); ok {
				ck = v
			}
		}
		if tk == "" || ck == "" {
			t.Fatalf("%s child printed no snapshots:\n%s", order, out)
		}
		return tk, ck
	}
	tk1, ck1 := run("tkip-first")
	tk2, ck2 := run("cookie-first")
	if ck1 != ck2 {
		t.Error("cookie evidence bytes depend on whether a TKIP snapshot was encoded first")
	}
	if tk1 != tk2 {
		t.Error("TKIP snapshot bytes depend on whether a cookie snapshot was encoded first")
	}
}
