package serve

import (
	"net/url"
	"strings"
)

// params holds the query-string parameters the handlers read, each as
// url.ParseQuery's first value for its key gives it ("" when absent). It
// is read in one pass over the raw query, without building url.Values: a
// value without escapes is a slice of the raw query, and only a key or
// value holding '%' or '+' is unescaped. As in ParseQuery, a pair that
// holds ';' or whose key or value is badly escaped is dropped, so a later
// pair with the same key may give the first value.
type params struct {
	q, lit, component, version, asOf, timeout, max string
}

// readParams reads the parameters of a raw query string.
func readParams(raw string) params {
	var p params
	var seen uint8
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.IndexByte(pair, ';') >= 0 {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		k, ok := unescape(k)
		if !ok {
			continue
		}
		dst, bit := p.slot(k)
		if dst == nil || seen&bit != 0 {
			continue
		}
		if v, ok = unescape(v); ok {
			*dst, seen = v, seen|bit
		}
	}
	return p
}

// slot returns where the value of key goes and the key's bit in readParams'
// seen mask, or nil for a key no handler reads.
func (p *params) slot(key string) (*string, uint8) {
	switch key {
	case "q":
		return &p.q, 1 << 0
	case "lit":
		return &p.lit, 1 << 1
	case "component":
		return &p.component, 1 << 2
	case "version":
		return &p.version, 1 << 3
	case "as_of":
		return &p.asOf, 1 << 4
	case "timeout":
		return &p.timeout, 1 << 5
	case "max":
		return &p.max, 1 << 6
	}
	return nil, 0
}

// unescape is url.QueryUnescape, returning s itself when it holds nothing
// to unescape.
func unescape(s string) (string, bool) {
	if strings.IndexByte(s, '%') < 0 && strings.IndexByte(s, '+') < 0 {
		return s, true
	}
	u, err := url.QueryUnescape(s)
	return u, err == nil
}
