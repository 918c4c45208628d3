// Inheritance and versioning: the object-oriented reading of §5. Modules
// are objects; "extends" is the isa hierarchy; rules are methods and
// default properties; more specific modules overrule inherited defaults —
// and a new *version* of a module is just a more specific module that
// overrides what changed, as the paper suggests.
package main

import (
	"context"
	"fmt"
	"log"

	ordlog "repro"
)

const kb = `
% A small product knowledge base.
module product {
  shippable(X) :- item(X).
  price(X, 100) :- item(X).
  -fragile(X) :- item(X).
}

% Glassware is a kind of product: fragile and pricier, an exception to the
% defaults.
module glassware extends product {
  fragile(X) :- item(X).
  price(X, 180) :- item(X).
  -price(X, 100) :- item(X).
}

% Version 2 of glassware: a sale re-prices everything. Versioning is just
% one more level of specificity.
module glassware_v2 extends glassware {
  price(X, 150) :- item(X).
  -price(X, 180) :- item(X).
}

module shop extends glassware_v2 {
  item(vase).
  item(tumbler).
}
`

func main() {
	prog, err := ordlog.ParseProgram(kb)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	eng, err := ordlog.NewEngineCtx(ctx, prog, ordlog.Config{})
	if err != nil {
		log.Fatal(err)
	}

	// Each component is an object with its own meaning; the upper ones
	// hold no item facts, so their least models are empty.
	for _, comp := range []string{"product", "glassware", "glassware_v2"} {
		m, err := eng.LeastModelCtx(ctx, comp)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("view from %s:\n  least model: %s\n", comp, m)
	}

	m, err := eng.LeastModelCtx(ctx, "shop")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("view from shop (inherits glassware_v2 -> glassware -> product):")
	fmt.Printf("  least model: %s\n", m)

	price, err := ordlog.Parse(`?- price(vase, P).`)
	if err != nil {
		log.Fatal(err)
	}
	for _, b := range m.Query(price.Queries[0]) {
		fmt.Printf("  effective price of vase: %s\n", b["P"])
	}
	frag, err := ordlog.ParseLiteral("fragile(vase)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  fragile(vase): %s (glassware exception beats product default)\n", m.Value(frag.Atom))

	fmt.Println("\nwhy does the vase cost 150?")
	lit, err := ordlog.ParseLiteral("price(vase, 150)")
	if err != nil {
		log.Fatal(err)
	}
	for _, line := range m.Explain(lit.Atom) {
		fmt.Println("  " + line)
	}
	lit2, err := ordlog.ParseLiteral("price(vase, 180)")
	if err != nil {
		log.Fatal(err)
	}
	for _, line := range m.Explain(lit2.Atom) {
		fmt.Println("  " + line)
	}
}
