package core

import (
	"encoding/json"
	"slices"
	"sort"

	"repro/internal/ast"
	"repro/internal/term"
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
	buf = appendJSONString(buf, q.String())
	buf = append(buf, ",\n  \"answers\": "...)
	var names []string
	var vals []ast.Term
	buf = appendAnswersJSON(buf, len(bs), func(buf []byte, i int) []byte {
		names, vals = names[:0], vals[:0]
		for k := range bs[i] {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			vals = append(vals, bs[i][k])
		}
		return appendRowJSON(buf, names, vals)
	})
	return append(buf, "\n}"...), nil
}

// AppendJSON appends the answers as the indented JSON array of name->term
// objects BindingsJSON renders — the value of an "answers" key one level
// inside the enclosing object. A nil receiver is the empty answer set.
func (a *Answers) AppendJSON(buf []byte) []byte {
	if a == nil {
		return append(buf, "[]"...)
	}
	// Objects list their keys sorted, as encoding/json sorts map keys.
	order := make([]int, len(a.vars))
	for j := range order {
		order[j] = j
	}
	sort.Slice(order, func(x, y int) bool { return a.vars[order[x]].Name < a.vars[order[y]].Name })
	names := make([]string, len(order))
	rowBytes := len("\n    {\n    },")
	for x, j := range order {
		names[x] = a.vars[j].Name
		rowBytes += len("\n      \"\": \"\",") + len(names[x]) + 8 // a typical constant
	}
	buf = slices.Grow(buf, a.n*rowBytes)
	ids, vals := make([]term.ID, len(order)), make([]ast.Term, 0, len(order))
	return appendAnswersJSON(buf, a.n, func(buf []byte, i int) []byte {
		row := a.row(i)
		for x, j := range order {
			ids[x] = row[j]
		}
		vals = a.terms.AppendTerms(vals[:0], ids)
		return appendRowJSON(buf, names, vals)
	})
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

// appendRowJSON appends one answer object; names must be sorted and
// vals[i] is the term bound to names[i].
func appendRowJSON(buf []byte, names []string, vals []ast.Term) []byte {
	if len(names) == 0 {
		return append(buf, "{}"...)
	}
	buf = append(buf, '{')
	for i, name := range names {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, "\n      "...)
		buf = appendJSONString(buf, name)
		buf = append(buf, ": "...)
		buf = appendJSONString(buf, vals[i].String())
	}
	return append(buf, "\n    }"...)
}

// appendJSONString appends s as a JSON string exactly as encoding/json
// renders it. Plain ASCII is copied; anything that needs an escape
// (quotes, control bytes, the HTML-sensitive <, >, &, non-ASCII) is the
// rare case and goes through encoding/json itself.
func appendJSONString(buf []byte, s string) []byte {
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
