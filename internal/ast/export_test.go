// Test-only accessors: methods the tests inspect state with that no
// production code calls.

package ast

import "slices"

// SortTerms sorts ts in the CompareTerms order.
func SortTerms(ts []Term) {
	slices.SortFunc(ts, CompareTerms)
}

// Negate returns the complementary comparison (e.g. < becomes >=).
func (op CmpOp) Negate() CmpOp {
	switch op {
	case EQ:
		return NE
	case NE:
		return EQ
	case LT:
		return GE
	case LE:
		return GT
	case GT:
		return LE
	case GE:
		return LT
	}
	return op
}
