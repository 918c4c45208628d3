package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// recorder is a reusable http.ResponseWriter: one closed-loop client needs
// one, and reusing it keeps the harness's own garbage out of heap_mb and
// cpu_ms_per_op.
type recorder struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.hdr }
func (r *recorder) WriteHeader(code int)        { r.code = code }
func (r *recorder) Write(b []byte) (int, error) { return r.body.Write(b) }
func (r *recorder) reset() {
	clear(r.hdr)
	r.code = http.StatusOK
	r.body.Reset()
}

// shadow is the harness's own model of a policy tenant: which toggled facts
// are live and which version the next write must publish. fp is an
// order-independent fingerprint of the live set (the sum of one hash per
// live constant), so a range answer can be checked on every op without
// decoding it.
type shadow struct {
	live    []bool
	hash    []uint64 // per key: hash of the constant the fact is about
	fp      uint64
	count   int
	version uint64
}

// constHash is FNV-1a, inlined because a range answer is hashed row by row
// inside a round's wall clock.
func constHash(name []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range name {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

func newShadow(keys []string) *shadow {
	sh := &shadow{live: make([]bool, len(keys)), hash: make([]uint64, len(keys))}
	for i, k := range keys { // "bad(c12)" -> "c12"
		sh.hash[i] = constHash([]byte(k[strings.IndexByte(k, '(')+1 : len(k)-1]))
	}
	return sh
}

func (sh *shadow) apply(o op) {
	k := o.arg
	sh.live[k] = o.kind == opAssert
	if sh.live[k] {
		sh.fp += sh.hash[k]
		sh.count++
	} else {
		sh.fp -= sh.hash[k]
		sh.count--
	}
	sh.version++
}

// rows is the number of answers the policy tenant owes a read: one per live
// fact for the range goal (goal 0), one or none for the point goal -ok(cI)
// (goal 1+I), whose key I toggles bad(cI).
func (sh *shadow) rows(goal int32) int {
	switch {
	case goal == 0:
		return sh.count
	case sh.live[goal-1]:
		return 1
	}
	return 0
}

// client is the one closed-loop client: it turns ops into requests against
// the daemon's handler in-process, times each ServeHTTP call, and checks
// every response against the oracle state it carries.
type client struct {
	h   http.Handler
	s   *stream
	rec recorder

	queryURL []string // per goal
	writeURL [2]string
	canon    [][]byte // reads tenant: first response body per goal
	sh       *shadow  // policy tenant

	respBytes int64
	failed    int
	firstFail string
}

func newClient(h http.Handler, s *stream, sh *shadow) *client {
	c := &client{h: h, s: s, sh: sh, rec: recorder{hdr: make(http.Header)}}
	base := "/v1/tenants/" + s.tenant
	for _, g := range s.goals {
		c.queryURL = append(c.queryURL, base+"/query?component="+s.comp+"&q="+url.QueryEscape(g))
	}
	c.writeURL = [2]string{base + "/update", base + "/retract"}
	if sh == nil {
		c.canon = make([][]byte, len(s.goals))
	}
	return c
}

func (c *client) fail(format string, args ...any) {
	c.failed++
	if c.firstFail == "" {
		c.firstFail = fmt.Sprintf(format, args...)
	}
}

// do runs one op and returns the time spent inside ServeHTTP. Building the
// request and checking the response sit outside that interval; both are
// O(response bytes) at worst and identical on every commit.
func (c *client) do(o op) time.Duration {
	var req *http.Request
	if o.kind == opQuery {
		req = httptest.NewRequest(http.MethodGet, c.queryURL[o.arg], nil)
	} else {
		body := `{"component":"` + c.s.comp + `","facts":"` + c.s.keys[o.arg] + `."}`
		req = httptest.NewRequest(http.MethodPost, c.writeURL[o.kind-opAssert], strings.NewReader(body))
	}
	c.rec.reset()
	start := time.Now()
	c.h.ServeHTTP(&c.rec, req)
	d := time.Since(start)
	c.respBytes += int64(c.rec.body.Len())
	if c.rec.code != http.StatusOK {
		c.fail("%s: HTTP %d: %s", c.describe(o), c.rec.code, bytes.TrimSpace(c.rec.body.Bytes()))
		return d
	}
	c.check(o)
	return d
}

func (c *client) describe(o op) string {
	if o.kind == opQuery {
		return "query " + c.s.goals[o.arg]
	}
	return [...]string{"assert ", "retract "}[o.kind-opAssert] + c.s.keys[o.arg]
}

// check is the per-op oracle. On the reads tenant nothing ever changes, so
// every response to a goal must equal the first, and the first is compared
// with the reference engine after the timed phase (checkReads). On the
// policy tenant a write must publish exactly the next version, a point read
// must agree with the live set, and a range read must bind exactly the live
// constants.
func (c *client) check(o op) {
	body := c.rec.body.Bytes()
	switch {
	case c.sh == nil:
		if c.canon[o.arg] == nil {
			c.canon[o.arg] = bytes.Clone(body)
		} else if !bytes.Equal(c.canon[o.arg], body) {
			c.fail("%s: response differs from the first response to the same goal", c.describe(o))
		}
	case o.kind != opQuery:
		c.sh.apply(o)
		if got := c.rec.hdr.Get("Ordlog-Version"); got != strconv.FormatUint(c.sh.version, 10) {
			c.fail("%s: published version %q, want %d", c.describe(o), got, c.sh.version)
		}
	case o.arg == 0: // range read -ok(X)
		rows, fp := 0, uint64(0)
		eachBinding(body, "X", func(v []byte) { rows++; fp += constHash(v) })
		if rows != c.sh.count || fp != c.sh.fp {
			c.fail("%s: %d rows (fingerprint %x), live set has %d (%x)", c.describe(o), rows, fp, c.sh.count, c.sh.fp)
		}
	default: // point read: a few dozen bytes, decoded
		if got, err := countAnswers(body); err != nil || got != c.sh.rows(o.arg) {
			c.fail("%s: %d answers (err %v), want %d", c.describe(o), got, err, c.sh.rows(o.arg))
		}
	}
}

// eachBinding calls fn with every value bound to the variable in a query
// response, scanning for `"<name>": "<value>"` pairs instead of decoding
// the JSON: a range answer has one row per live fact and is checked on
// every op, inside the timed wall.
func eachBinding(body []byte, name string, fn func(value []byte)) {
	key := []byte(`"` + name + `"`)
	for {
		i := bytes.Index(body, key)
		if i < 0 {
			return
		}
		body = bytes.TrimLeft(body[i+len(key):], " \t")
		if len(body) == 0 || body[0] != ':' {
			continue
		}
		body = bytes.TrimLeft(body[1:], " \t")
		if len(body) == 0 || body[0] != '"' {
			continue
		}
		end := bytes.IndexByte(body[1:], '"')
		if end < 0 {
			return
		}
		fn(body[1 : 1+end])
		body = body[end+2:]
	}
}

// countAnswers decodes a query response and counts its rows.
func countAnswers(body []byte) (int, error) {
	var resp struct{ Answers []json.RawMessage }
	err := json.Unmarshal(body, &resp)
	return len(resp.Answers), err
}

// queryRaw issues one untimed, unchecked query and returns status and body.
func (c *client) queryRaw(goal string) (int, []byte) {
	u := "/v1/tenants/" + c.s.tenant + "/query?component=" + c.s.comp + "&q=" + url.QueryEscape(goal)
	c.rec.reset()
	c.h.ServeHTTP(&c.rec, httptest.NewRequest(http.MethodGet, u, nil))
	return c.rec.code, bytes.Clone(c.rec.body.Bytes())
}
