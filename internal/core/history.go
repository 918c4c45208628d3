package core

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/ast"
	"repro/internal/lexer"
)

// history is an update history: the append-only log of fact events over
// a source program, and the index of the ground facts in effect at the
// log's end per component (built when an event first touches it), keyed
// by exactKey. Every fold of the history goes through it: the write path's
// no-op filter (apply), the WAL's divergence check (replayWAL), compaction
// (collapsed) and the program behind every reground, AsOf and checkpoint
// (program). The engine's history is its tip's, touched only under the
// write lock; a past version's is a fresh fold of its prefix (replay).
type history struct {
	src   *ast.OrderedProgram
	log   []factEvent
	facts []map[string]fact
}

// factEvent is one entry of the update history. ver is the version the
// event's batch published, so AsOf can cut the history at any past version
// by prefix.
type factEvent struct {
	comp    int
	lit     ast.Literal
	retract bool
	ver     uint64
}

// fact is a ground fact's entry in the index. at is where it renders:
// inSource for the source's own fact rules in place, the log position of
// the assert that made it live, or gone. last is the log position of the
// last event on it (-1: none), the event a collapse keeps.
type fact struct{ at, last int32 }

const (
	inSource int32 = -1
	gone     int32 = -2
)

// replay folds log over src. An event that changes nothing at its
// position (a collapsed log keeps some) is still its fact's last event.
func replay(src *ast.OrderedProgram, log []factEvent) *history {
	h := &history{src: src, log: log, facts: make([]map[string]fact, len(src.Components))}
	for i, ev := range log {
		h.fold(ev, exactKey(ev.lit), int32(i))
	}
	return h
}

// index returns component ci's index, building it on first use.
func (h *history) index(ci int) map[string]fact {
	idx := h.facts[ci]
	if idx == nil {
		idx = make(map[string]fact)
		for _, r := range h.src.Components[ci].Rules {
			if isGroundFact(r) {
				idx[exactKey(r.Head)] = fact{at: inSource, last: -1}
			}
		}
		h.facts[ci] = idx
	}
	return idx
}

func isGroundFact(r *ast.Rule) bool { return r.IsFact() && r.Head.Atom.Ground() }

// live reports whether the fact with the key is in effect in component ci.
func (h *history) live(ci int, key string) bool {
	f, ok := h.index(ci)[key]
	return ok && f.at != gone
}

// fold records event i on its fact: an assert of a fact not in effect
// makes it live at i, a retract of one in effect removes it, source copies
// and all. It reports whether the event changed the state.
func (h *history) fold(ev factEvent, key string, i int32) bool {
	idx := h.index(ev.comp)
	f, ok := idx[key]
	if !ok {
		f = fact{at: gone, last: -1}
	}
	changed := (f.at != gone) == ev.retract
	if changed && ev.retract {
		f.at = gone
	} else if changed {
		f.at = i
	}
	f.last = i
	idx[key] = f
	return changed
}

// apply logs the event if it changes the state — asserts a fact not in
// effect, or retracts one that is — and reports whether it did.
func (h *history) apply(ev factEvent, key string) bool {
	if h.live(ev.comp, key) == ev.retract {
		h.fold(ev, key, int32(len(h.log)))
		h.log = append(h.log, ev)
		return true
	}
	return false
}

// truncate drops the events past n, the rollback of a write that failed
// before its version was published, and refolds the index.
func (h *history) truncate(n int) {
	if len(h.log) > n {
		*h = *replay(h.src, h.log[:n])
	}
}

// collapsed returns the history with its log reduced to the last event per
// fact, in order, in a fresh slice: per fact only the last event decides
// presence, and rule order does not affect the semantics.
func (h *history) collapsed() *history {
	keep := make([]bool, len(h.log))
	n := 0
	for _, idx := range h.facts {
		for _, f := range idx {
			if f.last >= 0 {
				keep[f.last] = true
				n++
			}
		}
	}
	log := make([]factEvent, 0, n)
	for i, ev := range h.log {
		if keep[i] {
			log = append(log, ev)
		}
	}
	return replay(h.src, log)
}

// program renders the effective program — the one a caller maintaining
// the source by hand would have built, so grounding it yields exactly the
// version's semantics: each touched component's retracted fact rules
// dropped and its asserted facts appended in the order of the asserts that
// made them live. An empty history's program is the source itself.
func (h *history) program() (*ast.OrderedProgram, error) {
	if len(h.log) == 0 {
		return h.src, nil
	}
	p := ast.NewOrderedProgram()
	for ci, c := range h.src.Components {
		if err := p.AddComponent(&ast.Component{Name: c.Name, Rules: h.rules(ci)}); err != nil {
			return nil, err
		}
	}
	for _, ed := range h.src.Edges {
		if err := p.AddEdge(ed.Child, ed.Parent); err != nil {
			return nil, err
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// rules returns component ci's rules in the effective program.
func (h *history) rules(ci int) []*ast.Rule {
	src, idx := h.src.Components[ci].Rules, h.facts[ci]
	if idx == nil {
		return slices.Clone(src)
	}
	out := make([]*ast.Rule, 0, len(src))
	for _, r := range src {
		if !isGroundFact(r) || idx[exactKey(r.Head)].at == inSource {
			out = append(out, r)
		}
	}
	var asserted []int32
	for _, f := range idx {
		if f.at >= 0 {
			asserted = append(asserted, f.at)
		}
	}
	slices.Sort(asserted)
	for _, i := range asserted {
		out = append(out, ast.Fact(h.log[i].lit))
	}
	return out
}

// exactKey identifies a ground literal exactly: two literals share a key
// if and only if they are Equal. It is the literal's text, which the
// parser reads back as the literal, unless the literal holds a name or
// term the parser would not read back; then it is the literal's Go syntax,
// which shows each term's kind and never reads as text: Sym "1", Sym
// "g(x)" and Sym "a b" key apart from Int 1, the compound g(x) and
// anything else.
func exactKey(l ast.Literal) string {
	if _, bad := unreadable([]ast.Literal{l}, nil); bad {
		return fmt.Sprintf("%#v", l)
	}
	return l.String()
}

// kindTag is "" for a goal the parser could have read, and otherwise the
// goal's Go syntax: a cache keyed by the goal's text appends it, so that
// Sym "1" and Int 1 key apart there too. It formats copies, so a caller's
// goal does not escape.
func kindTag(body []ast.Literal, builtins []ast.Builtin) string {
	if _, bad := unreadable(body, builtins); bad {
		return fmt.Sprintf("\x00%#v %#v", slices.Clone(body), slices.Clone(builtins))
	}
	return ""
}

// unreadable returns, described, the first name or term of the literals
// and builtins that the parser would not read back as itself from its
// rendering, and whether there is one: a predicate, functor, symbol or
// variable that is not one identifier of its kind, or the integer whose
// magnitude overflows. The parser's own output has none.
func unreadable(lits []ast.Literal, builtins []ast.Builtin) (string, bool) {
	for _, l := range lits {
		if !readsBack(l.Atom.Pred, identLower) {
			return "predicate " + strconv.Quote(l.Atom.Pred), true
		}
		for _, t := range l.Atom.Args {
			if what, bad := unreadableTerm(t); bad {
				return what, true
			}
		}
	}
	for _, b := range builtins {
		for _, e := range [...]ast.Expr{b.L, b.R} {
			if what, bad := unreadableExpr(e); bad {
				return what, true
			}
		}
	}
	return "", false
}

func unreadableTerm(t ast.Term) (string, bool) {
	switch t := t.(type) {
	case ast.Sym:
		if !readsBack(string(t), identLower) {
			return "symbol " + strconv.Quote(string(t)), true
		}
	case ast.Var:
		if !readsBack(t.Name, identUpper) {
			return "variable " + strconv.Quote(t.Name), true
		}
	case ast.Int:
		if t == math.MinInt64 {
			return "integer " + t.String(), true
		}
	case ast.Compound:
		if !readsBack(t.Functor, identLower) {
			return "functor " + strconv.Quote(t.Functor), true
		}
		for _, a := range t.Args {
			if what, bad := unreadableTerm(a); bad {
				return what, true
			}
		}
	}
	return "", false
}

func unreadableExpr(e ast.Expr) (string, bool) {
	if b, ok := e.(ast.BinExpr); ok {
		if what, bad := unreadableExpr(b.L); bad {
			return what, true
		}
		return unreadableExpr(b.R)
	}
	return unreadableTerm(e.(ast.TermExpr).Term)
}

// readsBack reports whether the lexer reads name back as one identifier
// whose first byte is of class first: identLower for a name, a letter that
// is not upper case; identUpper for a variable, an upper-case letter or
// '_'. Letters, digits and underscores follow. A name the ASCII table does
// not accept is left to the lexer itself.
func readsBack(name string, first uint8) bool {
	want := first
	for i := 0; i < len(name); i++ {
		if identByte[name[i]]&want == 0 {
			return readsBackRunes(name, first)
		}
		want = identRest
	}
	return name != ""
}

const (
	identLower uint8 = 1 << iota // may start a name
	identUpper                   // may start a variable
	identRest                    // may follow either
)

// identByte classes the bytes for readsBack; 0 for all but ASCII letters,
// digits and '_'.
var identByte = func() (t [256]uint8) {
	for c := range t {
		switch {
		case 'a' <= c && c <= 'z':
			t[c] = identLower | identRest
		case 'A' <= c && c <= 'Z' || c == '_':
			t[c] = identUpper | identRest
		case '0' <= c && c <= '9':
			t[c] = identRest
		}
	}
	return t
}()

func readsBackRunes(name string, first uint8) bool {
	kind := lexer.Ident
	if first == identUpper {
		kind = lexer.Variable
	}
	toks, err := lexer.Tokens(name)
	return err == nil && len(toks) == 1 && toks[0].Kind == kind && toks[0].Text == name
}
