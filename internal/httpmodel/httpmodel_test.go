package httpmodel

import (
	"bytes"
	"strings"
	"testing"
)

func testRequest() Request {
	return Request{
		Host:         "site.com",
		Path:         "/",
		CookieName:   "auth",
		Cookie:       "ABCDEFGHIJKLMNOP",
		FixedHeaders: DefaultFixedHeaders(),
		Padding:      "injected1=known1; injected2=knownplaintext2",
	}
}

func TestCookieCharset(t *testing.T) {
	cs := CookieCharset()
	// RFC 6265 allows at most 90 unique characters per the paper's §6.2.
	if len(cs) != 90 {
		t.Fatalf("charset size %d, want 90", len(cs))
	}
	seen := map[byte]bool{}
	for _, c := range cs {
		if seen[c] {
			t.Fatalf("duplicate %q", c)
		}
		seen[c] = true
		if c <= 0x20 || c >= 0x7f {
			t.Fatalf("out-of-range %#x", c)
		}
	}
	for _, forbidden := range []byte{'"', ',', ';', '\\', ' '} {
		if seen[forbidden] {
			t.Fatalf("forbidden char %q present", forbidden)
		}
	}
	// Typical base64url cookie characters must be present.
	for _, ok := range []byte("AZaz09-_=+/.~") {
		if !seen[ok] {
			t.Fatalf("expected char %q missing", ok)
		}
	}
}

func TestMarshalLayout(t *testing.T) {
	r := testRequest()
	m := r.Marshal()
	s := string(m)
	if !strings.HasPrefix(s, "GET / HTTP/1.1\r\nHost: site.com\r\n") {
		t.Fatal("bad request line or host")
	}
	if !strings.HasSuffix(s, "\r\n\r\n") {
		t.Fatal("missing terminator")
	}
	if !strings.Contains(s, "Cookie: auth=ABCDEFGHIJKLMNOP; injected1=known1") {
		t.Fatal("cookie header layout wrong")
	}
	// The cookie must be the FIRST value in the Cookie header.
	ci := strings.Index(s, "Cookie: ")
	if strings.Index(s[ci:], "auth=") != len("Cookie: ") {
		t.Fatal("auth cookie is not first")
	}
}

func TestCookieOffset(t *testing.T) {
	r := testRequest()
	m := r.Marshal()
	off := r.CookieOffset()
	if off <= 0 || off+len(r.Cookie) > len(m) {
		t.Fatalf("offset %d out of range", off)
	}
	if got := string(m[off : off+len(r.Cookie)]); got != r.Cookie {
		t.Fatalf("offset points at %q", got)
	}
}

func TestCookieOffsetStableUnderValueChange(t *testing.T) {
	// The attack depends on the offset not moving when the (unknown)
	// cookie value changes — only its length matters, and lengths match.
	a := testRequest()
	b := testRequest()
	b.Cookie = "0123456789abcdef"
	if a.CookieOffset() != b.CookieOffset() {
		t.Fatal("offset depends on cookie value")
	}
}

func TestAlignCookie(t *testing.T) {
	for want := 0; want < 256; want += 37 {
		r, err := AlignCookie(testRequest(), want)
		if err != nil {
			t.Fatalf("align to %d: %v", want, err)
		}
		if r.CookieOffset()%256 != want {
			t.Fatalf("align to %d: got %d", want, r.CookieOffset()%256)
		}
		// The marshaled request must still place the cookie there.
		m := r.Marshal()
		if got := string(m[r.CookieOffset() : r.CookieOffset()+len(r.Cookie)]); got != r.Cookie {
			t.Fatalf("align to %d: cookie displaced", want)
		}
	}
	if _, err := AlignCookie(testRequest(), 300); err == nil {
		t.Fatal("alignment > 255 accepted")
	}
}

func TestKnownPlaintext(t *testing.T) {
	// The §6 attack's ABSAB anchors are the known bytes on either side of
	// the cookie in the marshaled request.
	r := testRequest()
	m, off := r.Marshal(), r.CookieOffset()
	before, after := m[:off], m[off+len(r.Cookie):]
	if string(m[off:off+len(r.Cookie)]) != r.Cookie {
		t.Fatal("cookie not at CookieOffset")
	}
	if !bytes.HasSuffix(before, []byte("auth=")) {
		t.Fatal("before should end with cookie name")
	}
	if !bytes.HasPrefix(after, []byte("; injected1=")) {
		t.Fatal("after should start with injected padding")
	}
}
