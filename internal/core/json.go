package core

import (
	"encoding/json"
	"slices"
	"sort"
	"strings"

	"repro/internal/ast"
)

// ModelJSON is the serialisable form of a model: the true and false ground
// atoms (rendered in the surface syntax) plus component metadata. Undefined
// atoms are the remainder of the relevant Herbrand base.
type ModelJSON struct {
	Component string   `json:"component"`
	True      []string `json:"true"`
	False     []string `json:"false"`
	Undefined []string `json:"undefined,omitempty"`
	Total     bool     `json:"total"`
}

// JSON renders the model for machine consumption. includeUndefined adds
// the undefined portion of the relevant base (can be large).
func (m *Model) JSON(includeUndefined bool) ([]byte, error) {
	out := ModelJSON{Component: m.ComponentName(), Total: m.Total()}
	for _, l := range m.Literals() {
		if l.Neg {
			out.False = append(out.False, l.Atom.String())
		} else {
			out.True = append(out.True, l.Atom.String())
		}
	}
	if includeUndefined {
		tab := m.gp.Tab
		for _, id := range m.in.Undefined() {
			out.Undefined = append(out.Undefined, tab.Atom(id).String())
		}
	}
	return json.MarshalIndent(out, "", "  ")
}

// BindingsJSON renders query bindings as an indented object holding the
// query and an array of name->term objects — byte for byte what
// encoding/json.MarshalIndent gives for that shape.
func BindingsJSON(q ast.Query, bs []Binding) ([]byte, error) {
	buf := append([]byte(nil), "{\n  \"query\": "...)
	buf = AppendJSONString(buf, q.String())
	buf = append(buf, ",\n  \"answers\": "...)
	var names, keys []string
	var vals []ast.Term
	buf = appendAnswersJSON(buf, len(bs), func(buf []byte, i int) []byte {
		names, keys, vals = names[:0], keys[:0], vals[:0]
		for k := range bs[i] {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			keys = append(keys, memberKey(k))
			vals = append(vals, bs[i][k])
		}
		return appendRowJSON(buf, keys, vals)
	})
	return append(buf, "\n}"...), nil
}

// JSON returns the answers as the indented JSON array of name->term
// objects BindingsJSON renders — the value of an "answers" key one level
// inside the enclosing object. A nil receiver is the empty answer set. The
// answers are encoded once, by the first caller, and every call returns
// those same bytes, clipped so that an append to them copies.
func (a *Answers) JSON() []byte {
	if a == nil {
		return emptyJSON
	}
	a.once.Do(func() { a.enc = slices.Clip(a.appendJSON(nil)) })
	return a.enc
}

// emptyJSON is the encoding of the empty answer set.
var emptyJSON = []byte("[]")

// jsonChunkRows is how many rows appendJSON decodes under one read lock of
// the term table.
const jsonChunkRows = 256

// appendJSON encodes the rows. Each variable's member key is rendered once
// per answer set, and the rows' terms are decoded a chunk of rows at a
// time, under one read lock of the term table and into one reused buffer,
// so no row allocates and no lock is held across a whole large answer set.
func (a *Answers) appendJSON(buf []byte) []byte {
	if a.n == 0 {
		return append(buf, "[]"...)
	}
	// Objects list their keys sorted, as encoding/json sorts map keys.
	k := len(a.vars)
	order := make([]int, k)
	for j := range order {
		order[j] = j
	}
	slices.SortFunc(order, func(x, y int) int { return strings.Compare(a.vars[x].Name, a.vars[y].Name) })
	keys := make([]string, k)
	rowSize := len("\n    {\n    },")
	for x, j := range order {
		keys[x] = memberKey(a.vars[j].Name)
		rowSize += len(keys[x])
	}
	vals := make([]ast.Term, 0, min(a.n, jsonChunkRows)*k)
	row := make([]ast.Term, k)
	return appendAnswersJSON(buf, a.n, func(buf []byte, i int) []byte {
		if i%jsonChunkRows == 0 {
			end := min(i+jsonChunkRows, a.n)
			vals = a.terms.AppendTerms(vals[:0], a.rows[i*k:end*k])
			size := (end - i) * rowSize
			for _, v := range vals {
				if s, ok := v.(ast.Sym); ok {
					size += len(s) + len(`""`)
				} else {
					size += 8 // a typical integer or compound
				}
			}
			buf = slices.Grow(buf, size)
		}
		r := vals[i%jsonChunkRows*k:][:k]
		for x, j := range order {
			row[x] = r[j]
		}
		return appendRowJSON(buf, keys, row)
	})
}

// memberKey renders the start of one member of an answer object: its
// indented, quoted name and the colon.
func memberKey(name string) string {
	b := make([]byte, 0, len(name)+len("\n      \"\": "))
	b = AppendJSONString(append(b, "\n      "...), name)
	return string(append(b, ": "...))
}

// appendAnswersJSON is the one encoder of answer rows: it lays out n row
// objects, each written by row, as an indented array at depth one.
func appendAnswersJSON(buf []byte, n int, row func(buf []byte, i int) []byte) []byte {
	if n == 0 {
		return append(buf, "[]"...)
	}
	buf = append(buf, '[')
	for i := 0; i < n; i++ {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, "\n    "...)
		buf = row(buf, i)
	}
	return append(buf, "\n  ]"...)
}

// appendRowJSON appends one answer object: keys[i] is the member key
// (memberKey) of the i-th name in sorted order, and vals[i] the term bound
// to it.
func appendRowJSON(buf []byte, keys []string, vals []ast.Term) []byte {
	if len(keys) == 0 {
		return append(buf, "{}"...)
	}
	buf = append(buf, '{')
	for i, key := range keys {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, key...)
		buf = AppendJSONString(buf, vals[i].String())
	}
	return append(buf, "\n    }"...)
}

// AppendJSONString appends s as a JSON string exactly as encoding/json
// renders it; serve lays out a query response's head with it. Plain ASCII
// is copied; anything that needs an escape (quotes, control bytes, the
// HTML-sensitive <, >, &, non-ASCII) is the rare case and goes through
// encoding/json itself.
func AppendJSONString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(buf, b...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}
