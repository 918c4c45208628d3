package serve

import (
	"net/url"
	"testing"
)

// FuzzQueryParams: for every key a handler reads, readParams gives what
// url.ParseQuery's first value for the key gives — through '+' and
// %-escapes (in keys too), repeated keys, empty values, bad escapes and
// pairs holding ';', which ParseQuery drops.
func FuzzQueryParams(f *testing.F) {
	for _, s := range []string{
		"",
		"q=path(c0,X)&component=exc",
		"q=path%28c0%2C+X%29&component=exc&version=3&timeout=50ms",
		"q=a+b&q=c",
		"q=&q=second",
		"q=%zz&q=after-bad-escape",
		"%71=escaped-key&q=plain",
		"q%zz=bad-key&q=ok",
		"q=p(X);x&q=after-semicolon",
		"q=a;b",
		"&&q&component&as_of=7&max=2&lit=p(a)",
		"as%5Fof=9&version=1&version=2",
		"q=%E2%9C%93&lit=%",
		"timeout=1s&timeout=2s&max=+3&max=4",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		got := readParams(raw)
		want, _ := url.ParseQuery(raw)
		for key, v := range map[string]string{
			"q": got.q, "lit": got.lit, "component": got.component, "version": got.version,
			"as_of": got.asOf, "timeout": got.timeout, "max": got.max,
		} {
			if w := want.Get(key); v != w {
				t.Errorf("%q: %s = %q, url.ParseQuery gives %q", raw, key, v, w)
			}
		}
	})
}
