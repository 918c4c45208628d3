// Package parser builds ordered-program ASTs from the .olp surface syntax.
//
// Grammar (informally):
//
//	program    = { module | order | clause | query } .
//	module     = "module" IDENT [ "extends" IDENT { "," IDENT } ] "{" { clause } "}" .
//	order      = "order" IDENT "<" IDENT { "<" IDENT } "." .
//	clause     = literal [ ":-" bodyitem { "," bodyitem } ] "." .
//	query      = "?-" bodyitem { "," bodyitem } "." .
//	literal    = [ "-" | "not" ] atom .
//	bodyitem   = literal | expr cmp expr .
//	atom       = IDENT [ "(" term { "," term } ")" ] .
//
// IDENT is a name: an identifier or a quoted name such as 'a b' (package
// lexer), which is never a keyword. Every name, variable and integer the
// printer (package ast) writes reads back as itself.
//
// Clauses outside a module block belong to the implicit component "main".
// "extends" and "order" both declare child < parent edges of the component
// order (the child is the more specific component).
package parser

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/ast"
	"repro/internal/lexer"
)

// MainComponent is the name of the implicit component that receives
// clauses written outside any module block.
const MainComponent = "main"

// Result is the outcome of parsing a source file: the ordered program
// (validated) and any queries it contained.
type Result struct {
	Program *ast.OrderedProgram
	Queries []ast.Query
}

// Parse parses src and validates the component order.
func Parse(src string) (*Result, error) {
	toks, err := lexer.Tokens(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	res, err := p.parseProgram()
	if err != nil {
		return nil, err
	}
	if err := res.Program.Validate(); err != nil {
		return nil, err
	}
	return res, nil
}

// ParseProgram is a convenience wrapper returning only the program;
// queries in the source are an error.
func ParseProgram(src string) (*ast.OrderedProgram, error) {
	res, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(res.Queries) > 0 {
		return nil, fmt.Errorf("unexpected query in program source")
	}
	return res.Program, nil
}

// ParseRule parses a single clause such as "fly(X) :- bird(X)." and
// returns it.
func ParseRule(src string) (*ast.Rule, error) {
	toks, err := lexer.Tokens(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	r, err := p.parseClause()
	if err != nil {
		return nil, err
	}
	if p.peek().Kind != lexer.EOF {
		return nil, p.errf("trailing input after clause")
	}
	return r, nil
}

// ParseLiteral parses a single literal such as "-fly(penguin)".
func ParseLiteral(src string) (ast.Literal, error) {
	toks, err := lexer.Tokens(src)
	if err != nil {
		return ast.Literal{}, err
	}
	p := &parser{toks: toks}
	l, err := p.parseLiteral()
	if err != nil {
		return ast.Literal{}, err
	}
	if p.peek().Kind != lexer.EOF {
		return ast.Literal{}, p.errf("trailing input after literal")
	}
	return l, nil
}

// ParseFacts parses module-free source text (typically a bulk fact base)
// into ground-fact literals, the form Engine.Update takes. The source must
// not declare modules, and every clause must be a ground fact. Empty
// source yields no facts.
func ParseFacts(src string) ([]ast.Literal, error) {
	p, err := ParseProgram(src)
	if err != nil {
		return nil, err
	}
	if len(p.Components) == 0 {
		return nil, nil
	}
	if len(p.Components) != 1 || p.Components[0].Name != MainComponent {
		return nil, fmt.Errorf("fact source must be module-free")
	}
	rules := p.Components[0].Rules
	facts := make([]ast.Literal, 0, len(rules))
	for _, r := range rules {
		if !r.IsGroundFact() {
			return nil, fmt.Errorf("not a ground fact: %s", r)
		}
		facts = append(facts, r.Head)
	}
	return facts, nil
}

type parser struct {
	toks []lexer.Token
	pos  int
}

func (p *parser) peek() lexer.Token {
	if p.pos >= len(p.toks) {
		return lexer.Token{Kind: lexer.EOF}
	}
	return p.toks[p.pos]
}

func (p *parser) peek2() lexer.Token {
	if p.pos+1 >= len(p.toks) {
		return lexer.Token{Kind: lexer.EOF}
	}
	return p.toks[p.pos+1]
}

func (p *parser) next() lexer.Token {
	t := p.peek()
	if p.pos < len(p.toks) {
		p.pos++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	t := p.peek()
	return fmt.Errorf("%d:%d: %s", t.Line, t.Col, fmt.Sprintf(format, args...))
}

func (p *parser) expect(k lexer.Kind) (lexer.Token, error) {
	t := p.peek()
	if t.Kind != k {
		return t, p.errf("expected %s, found %s", k, t)
	}
	return p.next(), nil
}

// atKeyword reports whether the next token is the keyword kw: an
// unquoted identifier spelling it.
func (p *parser) atKeyword(kw string) bool {
	t := p.peek()
	return t.Kind == lexer.Ident && !t.Quoted && t.Text == kw
}

func (p *parser) parseProgram() (*Result, error) {
	prog := ast.NewOrderedProgram()
	res := &Result{Program: prog}
	comps := make(map[string]*ast.Component)
	getComp := func(name string) *ast.Component {
		if c, ok := comps[name]; ok {
			return c
		}
		c := &ast.Component{Name: name}
		comps[name] = c
		// AddComponent cannot fail: names are deduplicated by the map.
		if err := prog.AddComponent(c); err != nil {
			panic(err)
		}
		return c
	}
	type edge struct {
		child, parent string
		line, col     int
	}
	var edges []edge

	for p.peek().Kind != lexer.EOF {
		switch {
		case p.atKeyword("module") && p.peek2().Kind == lexer.Ident:
			p.next() // module
			nameTok, err := p.expect(lexer.Ident)
			if err != nil {
				return nil, err
			}
			comp := getComp(nameTok.Text)
			if p.atKeyword("extends") {
				p.next()
				for {
					parTok, err := p.expect(lexer.Ident)
					if err != nil {
						return nil, err
					}
					edges = append(edges, edge{comp.Name, parTok.Text, parTok.Line, parTok.Col})
					if p.peek().Kind != lexer.Comma {
						break
					}
					p.next()
				}
			}
			if _, err := p.expect(lexer.LBrace); err != nil {
				return nil, err
			}
			for p.peek().Kind != lexer.RBrace {
				if p.peek().Kind == lexer.EOF {
					return nil, p.errf("unterminated module %q", comp.Name)
				}
				r, err := p.parseClause()
				if err != nil {
					return nil, err
				}
				comp.AddRule(r)
			}
			p.next() // }
		case p.atKeyword("order") && p.peek2().Kind == lexer.Ident:
			p.next() // order
			prevTok, err := p.expect(lexer.Ident)
			if err != nil {
				return nil, err
			}
			prev := prevTok.Text
			n := 0
			for p.peek().Kind == lexer.Lt {
				p.next()
				curTok, err := p.expect(lexer.Ident)
				if err != nil {
					return nil, err
				}
				edges = append(edges, edge{prev, curTok.Text, curTok.Line, curTok.Col})
				prev = curTok.Text
				n++
			}
			if n == 0 {
				return nil, p.errf("order declaration needs at least one '<'")
			}
			if _, err := p.expect(lexer.Dot); err != nil {
				return nil, err
			}
		case p.peek().Kind == lexer.Query:
			p.next()
			body, builtins, err := p.parseBody()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(lexer.Dot); err != nil {
				return nil, err
			}
			res.Queries = append(res.Queries, ast.Query{Body: body, Builtins: builtins})
		default:
			r, err := p.parseClause()
			if err != nil {
				return nil, err
			}
			getComp(MainComponent).AddRule(r)
		}
	}
	for _, e := range edges {
		if _, ok := prog.ComponentIndex(e.child); !ok {
			return nil, fmt.Errorf("%d:%d: unknown component %q", e.line, e.col, e.child)
		}
		if _, ok := prog.ComponentIndex(e.parent); !ok {
			return nil, fmt.Errorf("%d:%d: unknown component %q", e.line, e.col, e.parent)
		}
		if err := prog.AddEdge(e.child, e.parent); err != nil {
			return nil, fmt.Errorf("%d:%d: %v", e.line, e.col, err)
		}
	}
	return res, nil
}

func (p *parser) parseClause() (*ast.Rule, error) {
	head, err := p.parseLiteral()
	if err != nil {
		return nil, err
	}
	r := &ast.Rule{Head: head}
	if p.peek().Kind == lexer.Implies {
		p.next()
		r.Body, r.Builtins, err = p.parseBody()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(lexer.Dot); err != nil {
		return nil, err
	}
	return r, nil
}

func (p *parser) parseBody() (body []ast.Literal, builtins []ast.Builtin, err error) {
	for {
		lit, blt, isLit, err := p.parseBodyItem()
		if err != nil {
			return nil, nil, err
		}
		if isLit {
			body = append(body, lit)
		} else {
			builtins = append(builtins, blt)
		}
		if p.peek().Kind != lexer.Comma {
			return body, builtins, nil
		}
		p.next()
	}
}

func isCmp(k lexer.Kind) bool {
	switch k {
	case lexer.Lt, lexer.Le, lexer.Gt, lexer.Ge, lexer.Eq, lexer.Ne:
		return true
	}
	return false
}

func cmpOp(k lexer.Kind) ast.CmpOp {
	switch k {
	case lexer.Lt:
		return ast.LT
	case lexer.Le:
		return ast.LE
	case lexer.Gt:
		return ast.GT
	case lexer.Ge:
		return ast.GE
	case lexer.Eq:
		return ast.EQ
	}
	return ast.NE
}

// parseBodyItem parses either a literal or a comparison. It first parses an
// arithmetic expression; if a comparison operator follows, the item is a
// builtin, otherwise the expression must denote an atom.
func (p *parser) parseBodyItem() (ast.Literal, ast.Builtin, bool, error) {
	neg := false
	negByNot := false
	if p.peek().Kind == lexer.Minus && p.peek2().Kind == lexer.Ident {
		// A leading '-' before an identifier is classical negation of a
		// literal unless the whole item turns out to be a comparison.
		p.next()
		neg = true
	} else if p.atKeyword("not") {
		p.next()
		neg, negByNot = true, true
	}
	e, err := p.parseExpr()
	if err != nil {
		return ast.Literal{}, ast.Builtin{}, false, err
	}
	if isCmp(p.peek().Kind) {
		if negByNot {
			return ast.Literal{}, ast.Builtin{}, false, p.errf("'not' cannot negate a comparison")
		}
		opTok := p.next()
		r, err := p.parseExpr()
		if err != nil {
			return ast.Literal{}, ast.Builtin{}, false, err
		}
		op := cmpOp(opTok.Kind)
		if neg {
			// The consumed '-' was a unary minus on the left expression.
			e = ast.BinExpr{Op: ast.Sub, L: ast.TermExpr{Term: ast.Int(0)}, R: e}
		}
		return ast.Literal{}, ast.Builtin{Op: op, L: e, R: r}, false, nil
	}
	te, ok := e.(ast.TermExpr)
	if !ok {
		return ast.Literal{}, ast.Builtin{}, false, p.errf("arithmetic expression is not a valid literal")
	}
	atom, err := termToAtom(te.Term)
	if err != nil {
		return ast.Literal{}, ast.Builtin{}, false, p.errf("%v", err)
	}
	return ast.Literal{Neg: neg, Atom: atom}, ast.Builtin{}, true, nil
}

func termToAtom(t ast.Term) (ast.Atom, error) {
	switch t := t.(type) {
	case ast.Sym:
		return ast.Atom{Pred: string(t)}, nil
	case ast.Compound:
		return ast.Atom{Pred: t.Functor, Args: t.Args}, nil
	}
	return ast.Atom{}, fmt.Errorf("%s is not an atom", t)
}

func (p *parser) parseLiteral() (ast.Literal, error) {
	neg := false
	if p.peek().Kind == lexer.Minus {
		p.next()
		neg = true
	} else if p.atKeyword("not") && p.peek2().Kind == lexer.Ident {
		p.next()
		neg = true
	}
	a, err := p.parseAtom()
	if err != nil {
		return ast.Literal{}, err
	}
	return ast.Literal{Neg: neg, Atom: a}, nil
}

func (p *parser) parseAtom() (ast.Atom, error) {
	nameTok, err := p.expect(lexer.Ident)
	if err != nil {
		return ast.Atom{}, err
	}
	a := ast.Atom{Pred: nameTok.Text}
	if p.peek().Kind == lexer.LParen {
		p.next()
		for {
			t, err := p.parseTerm()
			if err != nil {
				return ast.Atom{}, err
			}
			a.Args = append(a.Args, t)
			if p.peek().Kind != lexer.Comma {
				break
			}
			p.next()
		}
		if _, err := p.expect(lexer.RParen); err != nil {
			return ast.Atom{}, err
		}
	}
	return a, nil
}

func (p *parser) parseTerm() (ast.Term, error) {
	t := p.peek()
	switch t.Kind {
	case lexer.Variable:
		p.next()
		return ast.Var{Name: t.Text}, nil
	case lexer.Integer:
		p.next()
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errf("invalid integer %q", t.Text)
		}
		return ast.Int(n), nil
	case lexer.Minus:
		p.next()
		it, err := p.expect(lexer.Integer)
		if err != nil {
			return nil, err
		}
		// Parsed with its sign, so that the least integer reads.
		n, err := strconv.ParseInt("-"+it.Text, 10, 64)
		if err != nil {
			return nil, p.errf("invalid integer %q", "-"+it.Text)
		}
		return ast.Int(n), nil
	case lexer.Ident:
		p.next()
		if p.peek().Kind != lexer.LParen {
			return ast.Sym(t.Text), nil
		}
		p.next()
		c := ast.Compound{Functor: t.Text}
		for {
			arg, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			c.Args = append(c.Args, arg)
			if p.peek().Kind != lexer.Comma {
				break
			}
			p.next()
		}
		if _, err := p.expect(lexer.RParen); err != nil {
			return nil, err
		}
		return c, nil
	}
	return nil, p.errf("expected term, found %s", t)
}

// parseExpr parses additive expressions.
func (p *parser) parseExpr() (ast.Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		switch p.peek().Kind {
		case lexer.Plus:
			p.next()
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = ast.BinExpr{Op: ast.Add, L: l, R: r}
		case lexer.Minus:
			p.next()
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = ast.BinExpr{Op: ast.Sub, L: l, R: r}
		default:
			return l, nil
		}
	}
}

// parseMul parses multiplicative expressions ('*', '/', and the contextual
// keyword "mod").
func (p *parser) parseMul() (ast.Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.peek().Kind == lexer.Star:
			p.next()
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = ast.BinExpr{Op: ast.Mul, L: l, R: r}
		case p.peek().Kind == lexer.Slash:
			p.next()
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = ast.BinExpr{Op: ast.Div, L: l, R: r}
		case p.atKeyword("mod"):
			p.next()
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = ast.BinExpr{Op: ast.Mod, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseUnary() (ast.Expr, error) {
	if p.peek().Kind == lexer.Minus && p.peek2().Kind != lexer.Integer {
		p.next()
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if te, ok := e.(ast.TermExpr); ok {
			if n, ok := te.Term.(ast.Int); ok && n != math.MinInt64 { // whose negation overflows
				return ast.TermExpr{Term: ast.Int(-n)}, nil
			}
		}
		return ast.BinExpr{Op: ast.Sub, L: ast.TermExpr{Term: ast.Int(0)}, R: e}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (ast.Expr, error) {
	if p.peek().Kind == lexer.LParen {
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(lexer.RParen); err != nil {
			return nil, err
		}
		return e, nil
	}
	t, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	return ast.TermExpr{Term: t}, nil
}
