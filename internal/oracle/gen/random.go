package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/ast"
)

// RandomConfig shapes random propositional program generation.
type RandomConfig struct {
	Atoms    int // number of propositional atoms a0..a(n-1)
	Rules    int // number of rules
	MaxBody  int // maximum body length
	NegHeads bool
	NegBody  bool
}

// RandomPropositional generates a seeded random propositional program.
// Bodies never repeat a literal; heads are negative with probability 1/3
// when NegHeads is set; body literals are negative with probability 1/2
// when NegBody is set.
func RandomPropositional(rng *rand.Rand, cfg RandomConfig) []*ast.Rule {
	prop := func(i int) ast.Atom { return ast.Atom{Pred: fmt.Sprintf("a%d", i)} }
	rules := make([]*ast.Rule, 0, cfg.Rules)
	for r := 0; r < cfg.Rules; r++ {
		head := ast.Literal{Atom: prop(rng.Intn(cfg.Atoms))}
		if cfg.NegHeads && rng.Intn(3) == 0 {
			head.Neg = true
		}
		bodyLen := rng.Intn(cfg.MaxBody + 1)
		used := make(map[int]bool)
		var body []ast.Literal
		for len(body) < bodyLen {
			i := rng.Intn(cfg.Atoms)
			if used[i] {
				break // accept shorter bodies rather than loop
			}
			used[i] = true
			l := ast.Literal{Atom: prop(i)}
			if cfg.NegBody && rng.Intn(2) == 0 {
				l.Neg = true
			}
			body = append(body, l)
		}
		rules = append(rules, &ast.Rule{Head: head, Body: body})
	}
	return rules
}

// RandomDatalog generates a seeded random non-ground seminegative program
// over nconst constants: an EDB relation e/2 with random facts, plus rules
// defining p/1, q/1 and r/2 whose bodies draw on all predicates with
// random sign. Every rule is safe-ish in the weak sense that unbound
// variables are tolerated by the grounder's universe enumeration.
func RandomDatalog(rng *rand.Rand, nconst, nfacts, nrules int) []*ast.Rule {
	c := func(i int) ast.Term { return ast.Sym(fmt.Sprintf("c%d", i)) }
	vnames := []string{"X", "Y", "Z"}
	v := func(i int) ast.Term { return ast.Var{Name: vnames[i%len(vnames)]} }
	var rules []*ast.Rule
	for i := 0; i < nfacts; i++ {
		rules = append(rules, ast.Fact(ast.Pos(ast.Atom{
			Pred: "e", Args: []ast.Term{c(rng.Intn(nconst)), c(rng.Intn(nconst))},
		})))
	}
	preds := []struct {
		name  string
		arity int
	}{{"e", 2}, {"p", 1}, {"q", 1}, {"r", 2}}
	randAtom := func(maxVar int) ast.Atom {
		pk := preds[rng.Intn(len(preds))]
		args := make([]ast.Term, pk.arity)
		for j := range args {
			if rng.Intn(3) == 0 {
				args[j] = c(rng.Intn(nconst))
			} else {
				args[j] = v(rng.Intn(maxVar))
			}
		}
		return ast.Atom{Pred: pk.name, Args: args}
	}
	for i := 0; i < nrules; i++ {
		maxVar := 1 + rng.Intn(2)
		headPk := preds[1+rng.Intn(len(preds)-1)] // never redefine the EDB
		hargs := make([]ast.Term, headPk.arity)
		for j := range hargs {
			hargs[j] = v(rng.Intn(maxVar))
		}
		r := &ast.Rule{Head: ast.Pos(ast.Atom{Pred: headPk.name, Args: hargs})}
		for b := 0; b < 1+rng.Intn(2); b++ {
			r.Body = append(r.Body, ast.Literal{Neg: rng.Intn(3) == 0, Atom: randAtom(maxVar)})
		}
		rules = append(rules, r)
	}
	return rules
}

// RandomOrderedDatalog generates a seeded random NON-ground ordered
// program: comps components over a random DAG order, each holding rules
// over unary predicates p0..p3 and the binary EDB e/2 with nconst
// constants. It exercises grounding, inheritance and competitor retention
// together.
func RandomOrderedDatalog(rng *rand.Rand, comps, nconst int) *ast.OrderedProgram {
	p := ast.NewOrderedProgram()
	c := func(i int) ast.Term { return ast.Sym(fmt.Sprintf("c%d", i)) }
	x, y := ast.Var{Name: "X"}, ast.Var{Name: "Y"}
	unary := []string{"p0", "p1", "p2", "p3"}
	for ci := 0; ci < comps; ci++ {
		comp := &ast.Component{Name: fmt.Sprintf("m%d", ci)}
		// A few EDB facts per component.
		for k := 0; k < 2; k++ {
			comp.AddRule(ast.Fact(ast.Pos(ast.Atom{
				Pred: "e", Args: []ast.Term{c(rng.Intn(nconst)), c(rng.Intn(nconst))},
			})))
			comp.AddRule(ast.Fact(ast.Literal{
				Neg:  rng.Intn(4) == 0,
				Atom: ast.Atom{Pred: unary[rng.Intn(len(unary))], Args: []ast.Term{c(rng.Intn(nconst))}},
			}))
		}
		// A few rules.
		for k := 0; k < 3; k++ {
			head := ast.Literal{
				Neg:  rng.Intn(3) == 0,
				Atom: ast.Atom{Pred: unary[rng.Intn(len(unary))], Args: []ast.Term{x}},
			}
			r := &ast.Rule{Head: head}
			r.Body = append(r.Body, ast.Pos(ast.Atom{Pred: "e", Args: []ast.Term{x, y}}))
			r.Body = append(r.Body, ast.Literal{
				Neg:  rng.Intn(2) == 0,
				Atom: ast.Atom{Pred: unary[rng.Intn(len(unary))], Args: []ast.Term{y}},
			})
			comp.AddRule(r)
		}
		if err := p.AddComponent(comp); err != nil {
			panic(err)
		}
	}
	for i := 0; i < comps; i++ {
		for j := i + 1; j < comps; j++ {
			if rng.Intn(2) == 0 {
				if err := p.AddEdge(fmt.Sprintf("m%d", i), fmt.Sprintf("m%d", j)); err != nil {
					panic(err)
				}
			}
		}
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return p
}

// RandomOrdered generates a seeded random propositional ordered program:
// comps components over a random DAG order, each holding a slice of a
// random negative program.
func RandomOrdered(rng *rand.Rand, comps int, cfg RandomConfig) *ast.OrderedProgram {
	p := ast.NewOrderedProgram()
	for c := 0; c < comps; c++ {
		rules := RandomPropositional(rng, RandomConfig{
			Atoms:    cfg.Atoms,
			Rules:    cfg.Rules/comps + 1,
			MaxBody:  cfg.MaxBody,
			NegHeads: cfg.NegHeads,
			NegBody:  cfg.NegBody,
		})
		comp := &ast.Component{Name: fmt.Sprintf("m%d", c), Rules: rules}
		if err := p.AddComponent(comp); err != nil {
			panic(err)
		}
	}
	// Random DAG edges respecting the index order (i < j can get an edge
	// m_i < m_j), each present with probability 1/2.
	for i := 0; i < comps; i++ {
		for j := i + 1; j < comps; j++ {
			if rng.Intn(2) == 0 {
				if err := p.AddEdge(fmt.Sprintf("m%d", i), fmt.Sprintf("m%d", j)); err != nil {
					panic(err)
				}
			}
		}
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return p
}
