// Package parsetest holds the fixture helpers tests build programs, rules,
// literals and interpretations with: each panics or fails where production
// code would return an error. Only tests and benchmark/ import it.
package parsetest

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/interp"
	"repro/internal/parser"
)

// MustParseProgram parses src and panics on error.
func MustParseProgram(src string) *ast.OrderedProgram {
	p, err := parser.ParseProgram(src)
	if err != nil {
		panic(err)
	}
	return p
}

// MustParseRule parses a single clause and panics on error.
func MustParseRule(src string) *ast.Rule {
	r, err := parser.ParseRule(src)
	if err != nil {
		panic(err)
	}
	return r
}

// MustParseLiteral parses a literal and panics on error.
func MustParseLiteral(src string) ast.Literal {
	l, err := parser.ParseLiteral(src)
	if err != nil {
		panic(err)
	}
	return l
}

// FromLiterals builds an interpretation from AST literals; every atom must
// already be interned. It fails on inconsistent or unknown literals.
func FromLiterals(tab *interp.Table, lits []ast.Literal) (*interp.Interp, error) {
	in := interp.New(tab)
	for _, l := range lits {
		id, ok := tab.Lookup(l.Atom)
		if !ok {
			return nil, fmt.Errorf("literal %s: atom not in Herbrand base", l)
		}
		if !in.AddLit(interp.MkLit(id, l.Neg)) {
			return nil, fmt.Errorf("literal %s makes the interpretation inconsistent", l)
		}
	}
	return in, nil
}
