// Package relevance computes the query-reachable slice of an ordered
// logic program: an adorned predicate-dependency analysis plus a
// magic-set style demand transform. Given a conjunctive goal it decides
//
//   - which predicates are demanded — connected to the goal through
//     rules, closed in both directions (a demanded head demands its body
//     predicates, and a rule whose body mentions a demanded predicate
//     demands its head predicate) and over both head signs, so the
//     Definition 2 overruler/defeater sources of every demanded
//     predicate are pulled in too (a competitor rule's head is the
//     complementary literal of a demanded one, i.e. the same predicate
//     key), and so no rule outside the slice ever reads an atom inside
//     it — which is what lets assumption-free/stable model sets project
//     onto the slice instead of just the least model;
//   - an adornment (bound/free mask) per demanded predicate: the meet of
//     every occurrence's bound positions, where a position is bound when
//     its argument is ground or all its variables occur at a bound head
//     position of the enclosing rule (head-only sideways information
//     passing — deliberately weaker than full left-to-right SIPs, see
//     DESIGN §12);
//   - the magic ("demand") relations, seed tuples and propagation rules
//     that restrict the grounder's possible-atom fixpoint to bindings
//     actually reachable from the goal.
//
// Predicates whose positive definitions are all ground facts are exempt
// from binding restriction: the smart grounder's competitor pass joins
// their possible-atom relations directly (ground.emitCompetitors), so
// restricting them would make competitor emission — and with it the
// Definition 2 rule statuses inside the slice — diverge from the full
// grounding.
package relevance

import (
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ast"
	"repro/internal/datalog"
)

// Seed is one initial demand tuple: the goal literal's ground arguments
// at the predicate's bound positions, inserted into the magic relation
// before the possible-atom fixpoint runs.
type Seed struct {
	Key  ast.PredKey
	Args []ast.Term
}

// Analysis is the result of analysing one program against one goal. All
// maps are keyed by source predicate; Adorn masks have len == arity with
// true marking bound positions.
type Analysis struct {
	Goal     []ast.Literal
	Demanded map[ast.PredKey]bool
	Adorn    map[ast.PredKey][]bool
	// EDB marks demanded predicates exempt from binding restriction:
	// every positive-head rule is a ground fact (or there is none).
	EDB   map[ast.PredKey]bool
	Magic []*datalog.Rule
	Seeds []Seed

	// Degraded lists (sorted) the predicates whose head-only SIP collapsed
	// to all-free even though a full left-to-right SIP would keep at least
	// one position bound — the known head-only limit (DESIGN §12): the
	// binding only flows through body-local variables, e.g. the
	// right-recursive path(X,Z) :- edge(X,Y), path(Y,Z) under goal
	// path(c,W). A degraded predicate loses its magic restriction, so the
	// slice for it is the unrestricted (full) grounding of its region.
	Degraded []ast.PredKey
}

// Analyze runs the demand/adornment analysis of p for the conjunctive
// goal. A nil or empty goal demands nothing (the empty slice).
func Analyze(p *ast.OrderedProgram, goal []ast.Literal) *Analysis {
	a := &Analysis{
		Goal:     goal,
		Demanded: make(map[ast.PredKey]bool),
		Adorn:    make(map[ast.PredKey][]bool),
		EDB:      make(map[ast.PredKey]bool),
	}

	byHead := make(map[ast.PredKey][]*ast.Rule)
	byBody := make(map[ast.PredKey][]*ast.Rule)
	for _, c := range p.Components {
		for _, r := range c.Rules {
			byHead[r.Head.Atom.Key()] = append(byHead[r.Head.Atom.Key()], r)
			for _, l := range r.Body {
				byBody[l.Atom.Key()] = append(byBody[l.Atom.Key()], r)
			}
		}
	}

	// Demand closure, sign-agnostic and bidirectional: the goal's
	// predicates seed it; a demanded predicate demands the body
	// predicates of every rule defining it — in any component, with
	// either head sign — and the head predicate of every rule consuming
	// it. Downward closure keeps the slice derivation-complete (closing
	// over negative-head rules covers the competitors the grounder emits:
	// their head is the complementary literal of a demanded one, so their
	// body predicates are demanded and their possible-atom relations
	// populated). Upward closure guarantees no out-of-slice rule reads an
	// in-slice atom, so the rest of the program cannot skew model
	// maximality relative to the full grounding.
	var work []ast.PredKey
	demand := func(k ast.PredKey) {
		if !a.Demanded[k] {
			a.Demanded[k] = true
			work = append(work, k)
		}
	}
	for _, l := range goal {
		demand(l.Atom.Key())
	}
	for len(work) > 0 {
		k := work[len(work)-1]
		work = work[:len(work)-1]
		for _, r := range byHead[k] {
			for _, l := range r.Body {
				demand(l.Atom.Key())
			}
		}
		for _, r := range byBody[k] {
			demand(r.Head.Atom.Key())
		}
	}

	// EDB exemption (superset of the grounder's onlyFactPos shape).
	for k := range a.Demanded {
		a.EDB[k] = true
	}
	for _, c := range p.Components {
		for _, r := range c.Rules {
			k := r.Head.Atom.Key()
			if !a.Demanded[k] || r.Head.Neg {
				continue
			}
			if !r.IsGroundFact() {
				a.EDB[k] = false
			}
		}
	}

	// Body occurrences of each demanded predicate inside demanded-head
	// rules (every rule of byHead[k] for demanded k qualifies — its head
	// predicate is k).
	type occurrence struct {
		r   *ast.Rule
		idx int // body position, so sibling literals can be identified
	}
	occs := make(map[ast.PredKey][]occurrence)
	for k := range a.Demanded {
		for _, r := range byHead[k] {
			for i, l := range r.Body {
				occs[l.Atom.Key()] = append(occs[l.Atom.Key()], occurrence{r, i})
			}
		}
	}

	// Meet-adornment fixpoint. Masks start all-bound and only ever
	// shrink: each pass recomputes every predicate's mask as the meet
	// over its occurrences given the current head masks, so the sequence
	// is decreasing and terminates. Arity-0 and EDB-exempt predicates are
	// pinned all-free, as are predicates with no call site at all (in the
	// goal or any rule body) — those are demanded through upward closure
	// only, and an all-bound mask with no seeds would silence their rules
	// instead of grounding them like the full path does.
	inGoal := make(map[ast.PredKey]bool)
	for _, l := range goal {
		inGoal[l.Atom.Key()] = true
	}
	pinnedFree := func(k ast.PredKey) bool {
		return k.Arity == 0 || a.EDB[k] || (len(occs[k]) == 0 && !inGoal[k])
	}
	// solve runs the fixpoint over a private mask map. With sideways off
	// this is the engine's real head-only SIP. With sideways on, a call
	// site's bound-variable set optimistically includes every variable of
	// its sibling body literals — the upper bound a full left-to-right SIP
	// (free to order the body) could deliver; it exists only to detect
	// degradation, never to drive grounding.
	solve := func(sideways bool) map[ast.PredKey][]bool {
		adorn := make(map[ast.PredKey][]bool, len(a.Demanded))
		for k := range a.Demanded {
			if pinnedFree(k) {
				adorn[k] = make([]bool, k.Arity)
				continue
			}
			m := make([]bool, k.Arity)
			for i := range m {
				m[i] = true
			}
			adorn[k] = m
		}
		headBoundVars := func(r *ast.Rule) map[string]bool {
			mask := adorn[r.Head.Atom.Key()]
			var hb map[string]bool
			for i, t := range r.Head.Atom.Args {
				if !mask[i] {
					continue
				}
				for _, v := range ast.TermVars(t, nil) {
					if hb == nil {
						hb = make(map[string]bool)
					}
					hb[v.Name] = true
				}
			}
			return hb
		}
		for changed := true; changed; {
			changed = false
			for k, mask := range adorn {
				if pinnedFree(k) {
					continue
				}
				nm := make([]bool, k.Arity)
				for i := range nm {
					nm[i] = true
				}
				for _, gl := range goal {
					if gl.Atom.Key() != k {
						continue
					}
					for i, t := range gl.Atom.Args {
						if !t.Ground() {
							nm[i] = false
						}
					}
				}
				for _, o := range occs[k] {
					hb := headBoundVars(o.r)
					if sideways {
						for j, bl := range o.r.Body {
							if j == o.idx {
								continue
							}
							for _, t := range bl.Atom.Args {
								for _, v := range ast.TermVars(t, nil) {
									if hb == nil {
										hb = make(map[string]bool)
									}
									hb[v.Name] = true
								}
							}
						}
					}
					for i, t := range o.r.Body[o.idx].Atom.Args {
						if nm[i] && !argBound(t, hb) {
							nm[i] = false
						}
					}
				}
				if !maskEq(nm, mask) {
					adorn[k] = nm
					changed = true
				}
			}
		}
		return adorn
	}
	a.Adorn = solve(false)

	// Degradation diagnostic: predicates the real head-only SIP left fully
	// free but the optimistic sideways bound would restrict. Everything the
	// slice loses to the head-only limit is here; callers surface it (the
	// relevance.sip.degraded counter, ordlog -v).
	opt := solve(true)
	for k, mask := range a.Adorn {
		if pinnedFree(k) || anyBound(mask) || !anyBound(opt[k]) {
			continue
		}
		a.Degraded = append(a.Degraded, k)
	}
	sort.Slice(a.Degraded, func(i, j int) bool {
		if a.Degraded[i].Name != a.Degraded[j].Name {
			return a.Degraded[i].Name < a.Degraded[j].Name
		}
		return a.Degraded[i].Arity < a.Degraded[j].Arity
	})
	countDegraded(len(a.Degraded))

	// Seeds: one per goal literal over a restricted predicate. Bound
	// positions are ground in every goal occurrence (the meet includes
	// them), so the extracted arguments are ground terms.
	for _, gl := range goal {
		k := gl.Atom.Key()
		if !a.Restricted(k) {
			continue
		}
		a.Seeds = append(a.Seeds, Seed{Key: a.MagicKey(k), Args: boundArgs(a.Adorn[k], gl.Atom.Args)})
	}

	// Propagation rules: m:p(bound args of l) :- m:h(bound args of head)
	// for every body occurrence l of a restricted p inside a rule with
	// demanded head h; the guard is dropped when h itself is
	// unrestricted, in which case the bound arguments of l are ground by
	// construction (no head position contributes variables) and the rule
	// degenerates to a fact. Safety holds structurally: every variable
	// at a bound position of l occurs at a bound head position, i.e. in
	// the guard literal.
	dedup := make(map[string]bool)
	for hk := range a.Demanded {
		for _, r := range byHead[hk] {
			guard, guarded := a.GuardLit(r.Head)
			for _, l := range r.Body {
				bk := l.Atom.Key()
				if !a.Restricted(bk) {
					continue
				}
				mr := &datalog.Rule{
					Head: datalog.Lit{Key: a.MagicKey(bk), Args: boundArgs(a.Adorn[bk], l.Atom.Args)},
				}
				if guarded {
					mr.Body = []datalog.Lit{guard}
				}
				key := magicRuleKey(mr)
				if dedup[key] {
					continue
				}
				dedup[key] = true
				a.Magic = append(a.Magic, mr)
			}
		}
	}
	return a
}

// Restricted reports whether the predicate's possible-atom relations are
// magic-guarded in the sliced grounding: demanded, at least one bound
// position, and not EDB-exempt.
func (a *Analysis) Restricted(k ast.PredKey) bool {
	if !a.Demanded[k] || a.EDB[k] {
		return false
	}
	for _, b := range a.Adorn[k] {
		if b {
			return true
		}
	}
	return false
}

// RuleDemanded reports whether the rule survives slicing: its head
// predicate is demanded (either sign — demand is sign-agnostic).
func (a *Analysis) RuleDemanded(r *ast.Rule) bool {
	return a.Demanded[r.Head.Atom.Key()]
}

// MagicKey returns the magic relation for a source predicate. The
// original arity is encoded into the name ("m:p/2") because the magic
// relation's own arity is the bound-position count, and p/2 and p/3 must
// not collide.
func (a *Analysis) MagicKey(k ast.PredKey) ast.PredKey {
	n := 0
	for _, b := range a.Adorn[k] {
		if b {
			n++
		}
	}
	return ast.PredKey{Name: "m:" + k.Name + "/" + strconv.Itoa(k.Arity), Arity: n}
}

// GuardLit returns the magic guard literal for a rule head — the body
// literal restricting the rule's possible-atom derivation (and its join
// instantiation) to demanded bindings — and whether the head predicate
// is restricted at all.
func (a *Analysis) GuardLit(head ast.Literal) (datalog.Lit, bool) {
	k := head.Atom.Key()
	if !a.Restricted(k) {
		return datalog.Lit{}, false
	}
	return datalog.Lit{Key: a.MagicKey(k), Args: boundArgs(a.Adorn[k], head.Atom.Args)}, true
}

// NumDemanded returns the number of demanded predicates.
func (a *Analysis) NumDemanded() int { return len(a.Demanded) }

// NumRestricted returns the number of magic-restricted predicates.
func (a *Analysis) NumRestricted() int {
	n := 0
	for k := range a.Demanded {
		if a.Restricted(k) {
			n++
		}
	}
	return n
}

// AdornString renders a predicate's adornment in the classic b/f
// notation ("path/2^bf"); predicates without positions render bare.
func (a *Analysis) AdornString(k ast.PredKey) string {
	var b strings.Builder
	b.WriteString(k.Name)
	b.WriteByte('/')
	b.WriteString(strconv.Itoa(k.Arity))
	mask := a.Adorn[k]
	if len(mask) == 0 {
		return b.String()
	}
	b.WriteByte('^')
	for _, bound := range mask {
		if bound {
			b.WriteByte('b')
		} else {
			b.WriteByte('f')
		}
	}
	return b.String()
}

// GoalKey canonicalises a goal for slice caching: one entry per literal,
// sign plus predicate plus each argument rendered as its ground term or
// "_" — exactly the information the slice depends on (non-ground
// arguments force their position free regardless of structure), with
// names written as package ast writes them, so that two goals share a
// key only if they have one binding pattern — sorted
// so literal order does not split the cache, joined by "&". The entries
// are written in goal order into one builder sized for them; only a goal
// whose entries come out of order is joined again, sorted.
func GoalKey(goal []ast.Literal) string {
	if len(goal) == 0 {
		return ""
	}
	n := len(goal) - 1 // the "&"s
	for _, l := range goal {
		n += keyLen(l)
	}
	var b strings.Builder
	b.Grow(n)
	var endsBuf [8]int
	ends := endsBuf[:0]
	for i, l := range goal {
		if i > 0 {
			b.WriteByte('&')
		}
		writeKey(&b, l)
		ends = append(ends, b.Len())
	}
	key := b.String()
	var partsBuf [8]string
	parts := partsBuf[:0]
	for i, end := range ends {
		start := 0
		if i > 0 {
			start = ends[i-1] + 1
		}
		parts = append(parts, key[start:end])
	}
	if slices.IsSorted(parts) {
		return key
	}
	slices.Sort(parts)
	var sorted strings.Builder
	sorted.Grow(n)
	for i, p := range parts {
		if i > 0 {
			sorted.WriteByte('&')
		}
		sorted.WriteString(p)
	}
	return sorted.String()
}

// keyLen returns the length in bytes of the literal's GoalKey entry.
func keyLen(l ast.Literal) int {
	n := ast.NameLen(l.Atom.Pred) + len("/()") + len(strconv.Itoa(len(l.Atom.Args)))
	if l.Neg {
		n++
	}
	for j, t := range l.Atom.Args {
		if j > 0 {
			n++ // the ","
		}
		if t.Ground() {
			n += ast.TermLen(t)
		} else {
			n++ // the "_"
		}
	}
	return n
}

// writeKey writes the literal's GoalKey entry to b.
func writeKey(b *strings.Builder, l ast.Literal) {
	if l.Neg {
		b.WriteByte('-')
	}
	ast.WriteName(b, l.Atom.Pred)
	b.WriteByte('/')
	b.WriteString(strconv.Itoa(len(l.Atom.Args)))
	b.WriteByte('(')
	for j, t := range l.Atom.Args {
		if j > 0 {
			b.WriteByte(',')
		}
		if t.Ground() {
			ast.WriteTerm(b, t)
		} else {
			b.WriteByte('_')
		}
	}
	b.WriteByte(')')
}

// argBound reports whether a call-site argument is bound under the given
// head-bound variable set: ground, or every variable head-bound.
func argBound(t ast.Term, hb map[string]bool) bool {
	if t.Ground() {
		return true
	}
	for _, v := range ast.TermVars(t, nil) {
		if !hb[v.Name] {
			return false
		}
	}
	return true
}

func boundArgs(mask []bool, args []ast.Term) []ast.Term {
	var out []ast.Term
	for i, b := range mask {
		if b {
			out = append(out, args[i])
		}
	}
	return out
}

func anyBound(mask []bool) bool {
	for _, b := range mask {
		if b {
			return true
		}
	}
	return false
}

func maskEq(a, b []bool) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func magicRuleKey(r *datalog.Rule) string {
	var b strings.Builder
	writeLit := func(l datalog.Lit) {
		b.WriteString(l.Key.Name)
		b.WriteByte('(')
		for i, t := range l.Args {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(t.String())
		}
		b.WriteByte(')')
	}
	writeLit(r.Head)
	for _, l := range r.Body {
		b.WriteString(" :- ")
		writeLit(l)
	}
	return b.String()
}
