package serve

import (
	"fmt"
	"strings"
)

// winMoveCyclesSrc builds a win-move program of k disjoint 2-cycles:
// every cycle contributes an independent binary choice, so the program
// has 2^k stable models — the deadline and drain tests use it as a
// long-running but well-understood enumeration.
func winMoveCyclesSrc(k int) string {
	var sb strings.Builder
	// The OV encoding (closed-world component above) makes -win behave as
	// default negation, so each 2-cycle is an independent binary choice.
	sb.WriteString("module cwa {\n  -win(X1).\n  -move(X1,X2).\n}\n")
	sb.WriteString("module main extends cwa {\n  win(X) :- move(X,Y), -win(Y).\n")
	for i := 0; i < k; i++ {
		fmt.Fprintf(&sb, "  move(a%d,b%d). move(b%d,a%d).\n", i, i, i, i)
	}
	sb.WriteString("}\n")
	return sb.String()
}

// queryRespJSON is the wire shape of a query response as encoding/json
// sees it: what the tests decode into, and the reference the hand-laid
// response bytes are compared against (TestQueryResponseBytes).
type queryRespJSON struct {
	Tenant    string              `json:"tenant"`
	Component string              `json:"component"`
	Version   uint64              `json:"version"`
	Query     string              `json:"query"`
	Truncated bool                `json:"truncated"`
	Answers   []map[string]string `json:"answers"`
}
