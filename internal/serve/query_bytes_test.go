package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
)

// TestQueryResponseBytes pins the query response to the bytes
// encoding/json produced before the handler laid the rows out itself:
// decode the response into the wire struct, re-encode it through
// writeJSON, and require the same bytes — for empty, ground, multi-variable
// (keys sorted), compound, builtin (the head's `<` is HTML-escaped) and
// truncated answers.
func TestQueryResponseBytes(t *testing.T) {
	d := New(Config{})
	h := d.Handler()
	src := `module main {
  e(a, b). e(b, c). e(c, a). -e(a, a).
  tag(a, 7). tag(b, -3). tag(c, f(1, g(z))).
  flag.
}
`
	if w := doReq(h, "PUT", "/v1/tenants/t", "text/plain", src); w.Code != http.StatusCreated {
		t.Fatalf("load: code = %d (body %s)", w.Code, w.Body)
	}
	goals := []string{
		"e(X, Y)", "e(Y, X)", "e(a, X)", "e(a, b)", "e(b, a)", "-e(X, X)", "flag", "nope(X)",
		"e(X, Y), e(Y, Zed), tag(Zed, Alpha)", "tag(X, T)", "tag(X, f(N, Y))", "e(X, Y), X != Y", "tag(X, N), N < 5",
	}
	for _, g := range goals {
		w := doReq(h, "GET", "/v1/tenants/t/query?component=main&q="+url.QueryEscape(g), "", "")
		if w.Code != http.StatusOK {
			t.Fatalf("query %s: code = %d (body %s)", g, w.Code, w.Body)
		}
		var resp queryRespJSON
		decodeJSON(t, w, &resp)
		ref := httptest.NewRecorder()
		writeJSON(ref, http.StatusOK, resp)
		if !bytes.Equal(w.Body.Bytes(), ref.Body.Bytes()) {
			t.Errorf("query %s: response bytes differ from encoding/json's\n got: %s\nwant: %s", g, w.Body, ref.Body)
		}
		if got, want := w.Header().Get("Content-Type"), ref.Header().Get("Content-Type"); got != want {
			t.Errorf("query %s: Content-Type %q, want %q", g, got, want)
		}
	}

	// The truncated shape: a head with an empty answers array.
	w := httptest.NewRecorder()
	writeQueryResp(w, http.StatusPartialContent, queryHeadJSON{Tenant: "t", Query: "?- e(X, Y).", Truncated: true}, nil)
	ref := httptest.NewRecorder()
	writeJSON(ref, http.StatusPartialContent, queryRespJSON{Tenant: "t", Query: "?- e(X, Y).", Truncated: true, Answers: []map[string]string{}})
	if !bytes.Equal(w.Body.Bytes(), ref.Body.Bytes()) || w.Code != ref.Code {
		t.Errorf("truncated response differs\n got: %d %s\nwant: %d %s", w.Code, w.Body, ref.Code, ref.Body)
	}
}
